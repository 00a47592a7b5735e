"""Seeded randomness, budgeted resampled fitness and a run's record.

The generator is numpy's ``Generator`` on PCG64, and every run owns a
single stream. ``resample_many`` is the one path that adds Gaussian noise
to true fitness, and the one place a run computes true fitness: it offers
those values to the run's ``Budget``, the record a ``RunResult`` reports.
A run computes each genome's true fitness once: re-measuring rows whose
true fitness an earlier call gave back (``true_out``) passes it in
(``known``), and only the noise and the charge are new.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import benchmarks

__all__ = [
    "RngState",
    "Budget",
    "CycleRecord",
    "RunResult",
    "check_budget",
    "resampled_fitness",
    "resample_many",
]

_MASK64 = (1 << 64) - 1


class RngState(np.random.Generator):
    """Deterministic random source: numpy's ``Generator`` on ``PCG64`` seeded
    with ``seed`` masked to 64 bits.

    Identical seeds give identical streams. Single-owner: never share one
    state across concurrent callers.
    """

    def __init__(self, seed):
        self.seed = int(seed) & _MASK64
        super().__init__(np.random.PCG64(self.seed))

    def __reduce__(self):
        # Generator.__setstate__ takes a bit generator's state dict
        return RngState, (self.seed,), self.bit_generator.state

    def __repr__(self):
        return f"RngState(seed={self.seed})"


@dataclass(frozen=True)
class CycleRecord:
    """One switching cycle (or generation, for baselines) of a run trace."""

    cycle: int
    total_eval: int
    best_fitness: float
    n_clusters: int = 0
    n_eligible: int = 0


@dataclass
class Budget:
    """Evaluation accounting and the record of one run.

    ``total_eval`` counts actual noisy-fitness calls; ``total_unchanged``
    counts the evaluations skipped for carried-over individuals. For the
    fixed-schedule baselines these satisfy
    ``pop_size * total_it * rs - total_unchanged == total_eval`` exactly.
    ``resample_many`` offers every point it charges, with its true fitness,
    to ``offer``, which keeps the best so far; ``end_cycle`` appends one
    ``CycleRecord`` to ``trace``. Equality compares the accounting only.
    """

    pop_size: int
    total_it: int
    rs: int
    total_unchanged: int = 0
    total_eval: int = 0
    best_genome: np.ndarray | None = field(default=None, repr=False, compare=False)
    best_fitness: float = field(default=np.inf, repr=False, compare=False)
    trace: list[CycleRecord] = field(default_factory=list, repr=False, compare=False)

    def charge(self, n):
        self.total_eval += int(n)

    def skip(self, n):
        self.total_unchanged += int(n)

    def offer(self, xs, values):
        """Keep the row of ``xs`` with the least true fitness, the array
        ``values``, if it beats the best so far (ties keep the earlier
        genome)."""
        if len(values) == 0:
            return
        i = int(values.argmin())
        if values[i] < self.best_fitness:
            self.best_fitness = float(values[i])
            self.best_genome = np.array(xs[i], copy=True)

    def end_cycle(self, **counts):
        """Record the cycle just ended, with ``CycleRecord``'s other fields
        from ``counts``."""
        self.trace.append(CycleRecord(len(self.trace), self.total_eval,
                                      self.best_fitness, **counts))


@dataclass
class RunResult:
    """Best-ever solution of a run, scored by the true (noiseless) fitness."""

    best_genome: np.ndarray
    best_fitness: float
    budget: Budget
    trace: list[CycleRecord] = field(default_factory=list)

    @classmethod
    def from_budget(cls, budget):
        """The best so far and the trace that ``budget`` recorded."""
        return cls(budget.best_genome, budget.best_fitness, budget, budget.trace)


def check_budget(total_eval, pop_size, rs):
    """Raise ``ValueError`` unless ``pop_size`` and ``rs`` are at least 1 and
    ``total_eval`` covers scoring the first population: ``pop_size`` points,
    ``rs`` evaluations each. Every algorithm's parameters call it, so these
    are their one lower limits on ``pop_size`` and ``rs``."""
    if pop_size < 1 or rs < 1:
        raise ValueError(f"pop_size and rs must be >= 1, got pop_size={pop_size}, rs={rs}")
    if total_eval < pop_size * rs:
        raise ValueError(f"budget {total_eval} is below pop_size={pop_size} x rs={rs}")


def resampled_fitness(fn, x, rs, noise, rng, budget):
    """Mean of ``rs`` noisy evaluations of one point: ``resample_many`` on one row."""
    return float(resample_many(fn, np.asarray(x)[None], rs, noise, rng, budget)[0])


def resample_many(fn, xs, rs, noise, rng, budget, *, known=None, true_out=None):
    """Mean of ``rs`` noisy evaluations of each row of ``xs``; charges n*rs.

    The true fitness of each row is the base of the noisy mean. It is
    computed here and offered with the rows to ``budget.offer``, unless a
    caller passes it as ``known``: the true fitness an earlier call gave the
    same rows (through ``true_out``, an ``(n,)`` array it is copied into).
    Then neither the evaluation nor the offer is repeated; the offer could
    not change the best so far, which already saw those values and keeps
    only a strictly smaller one. The charge and the draws are the same
    either way, so a run computes each genome's true fitness once however
    often it re-measures it.
    """
    if rs < 1:
        raise ValueError(f"rs must be a positive integer, got {rs}")
    xs = np.asarray(xs, dtype=np.float64)
    if known is None:
        base = benchmarks.evaluate_many(fn, xs)
        budget.offer(xs, base)
    elif len(known) != xs.shape[0]:
        raise ValueError(f"known has {len(known)} values for {xs.shape[0]} rows")
    else:
        base = known
    budget.charge(xs.shape[0] * rs)
    if true_out is not None:
        true_out[...] = base
    if noise.sigma == 0.0:
        return base + noise.mu
    draws = rng.normal(noise.mu, noise.sigma, (xs.shape[0], rs))
    return base + np.add.reduce(draws, 1) / rs  # draws.mean(axis=1), bit for bit
