"""Seeded randomness and budgeted resampled fitness.

The generator is numpy's PCG64, wrapped so that every run owns a single
stream. ``resample_many`` is the one path that adds Gaussian noise to true
fitness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import benchmarks

__all__ = ["RngState", "Budget", "check_budget", "resampled_fitness", "resample_many"]

_MASK64 = (1 << 64) - 1


class RngState:
    """Deterministic random source (PCG64).

    Identical seeds give identical streams. Single-owner: never share one
    state across concurrent callers.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def __repr__(self):
        return f"RngState(seed={self.seed})"


@dataclass
class Budget:
    """Evaluation accounting for one run.

    ``total_eval`` counts actual noisy-fitness calls; ``total_unchanged``
    counts the evaluations skipped for carried-over individuals. For the
    fixed-schedule baselines these satisfy
    ``pop_size * total_it * rs - total_unchanged == total_eval`` exactly.
    """

    pop_size: int
    total_it: int
    rs: int
    total_unchanged: int = 0
    total_eval: int = 0

    def charge(self, n):
        self.total_eval += int(n)

    def skip(self, n):
        self.total_unchanged += int(n)


def check_budget(total_eval, pop_size, rs):
    """Raise ``ValueError`` unless ``total_eval`` covers scoring the first
    population: ``pop_size`` points, ``rs`` evaluations each."""
    if total_eval < pop_size * rs:
        raise ValueError(f"budget {total_eval} is below pop_size={pop_size} x rs={rs}")


def resampled_fitness(fn, x, rs, noise, rng, budget):
    """Mean of ``rs`` noisy evaluations of one point: ``resample_many`` on one row."""
    return float(resample_many(fn, np.asarray(x)[None], rs, noise, rng, budget)[0])


def resample_many(fn, xs, rs, noise, rng, budget):
    """Mean of ``rs`` noisy evaluations of each row of ``xs``; charges n*rs."""
    if rs < 1:
        raise ValueError(f"rs must be a positive integer, got {rs}")
    xs = np.asarray(xs, dtype=np.float64)
    base = benchmarks.evaluate_many(fn, xs)
    budget.charge(xs.shape[0] * rs)
    if noise.sigma == 0.0:
        return base + noise.mu
    draws = rng.normal(noise.mu, noise.sigma, (xs.shape[0], rs))
    return base + draws.mean(axis=1)
