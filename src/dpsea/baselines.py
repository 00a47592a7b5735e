"""Baseline optimizers under the fixed-evaluation-budget protocol.

All three follow the same schedule, started by ``_first_population``: as
many iterations as ``total_eval`` pays for at ``pop_size * rs`` each, the
first scoring a uniform population (a budget that cannot pay for it is
rejected on construction), each recorded by ``Budget.end_cycle``. Results
report the best solution found, scored by the true (noiseless) fitness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ga import GaParams, evolve_generation
from .stochastics import Budget, RunResult, check_budget, resample_many

__all__ = ["CgaConfig", "DeConfig", "PsoConfig", "run_cga", "run_de", "run_pso",
           "inertia_weight"]


@dataclass(frozen=True)
class CgaConfig:
    ga: GaParams = field(default_factory=GaParams)
    rs: int = 1
    total_eval: int = 100_000

    def __post_init__(self):
        check_budget(self.total_eval, self.ga.pop_size, self.rs)


@dataclass(frozen=True)
class DeConfig:
    pop_size: int = 50
    cf: float = 0.8       # crossover factor
    f_scale: float = 0.5  # differential scaling factor
    rs: int = 1
    total_eval: int = 100_000

    def __post_init__(self):
        if self.pop_size < 4:
            raise ValueError("DE needs pop_size >= 4")
        if not 0.0 <= self.cf <= 1.0:
            raise ValueError("cf must be in [0, 1]")
        if not math.isfinite(self.f_scale):
            raise ValueError("f_scale must be finite")
        check_budget(self.total_eval, self.pop_size, self.rs)


@dataclass(frozen=True)
class PsoConfig:
    pop_size: int = 20
    w_start: float = 1.0
    w_end: float = 0.7
    phi_min: float = 0.0
    phi_max: float = 2.0
    rs: int = 1
    total_eval: int = 100_000

    def __post_init__(self):
        for name in ("w_start", "w_end", "phi_min", "phi_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.w_end > self.w_start:
            raise ValueError("w_end must not exceed w_start")
        if self.phi_min > self.phi_max:
            raise ValueError("phi_min must not exceed phi_max")
        check_budget(self.total_eval, self.pop_size, self.rs)


def _first_population(fn, noise, rng, pop_size, rs, total_eval):
    """Iteration 0 of the fixed schedule: the run's ``Budget`` and a uniform
    population, scored by ``rs``-fold resampling and recorded; returns
    ``(budget, xs, fs)``."""
    budget = Budget(pop_size=pop_size, total_it=total_eval // (pop_size * rs), rs=rs)
    lo, hi = fn.bounds
    xs = rng.uniform(lo, hi, (pop_size, fn.dimension))
    fs = resample_many(fn, xs, rs, noise, rng, budget)
    budget.end_cycle()
    return budget, xs, fs


def run_cga(fn, noise, cfg, rng):
    """Generational real-coded GA with elitism and resampled fitness."""
    budget, genomes, vals = _first_population(fn, noise, rng, cfg.ga.pop_size, cfg.rs,
                                              cfg.total_eval)
    for _ in range(1, budget.total_it):
        genomes, vals, _ = evolve_generation(
            genomes,
            vals,
            cfg.ga,
            rng,
            fn.bounds,
            lambda xs: resample_many(fn, xs, cfg.rs, noise, rng, budget),
        )
        budget.skip(cfg.ga.n_elites * cfg.rs)
        budget.end_cycle()
    return RunResult.from_budget(budget)


def _distinct_triples(n, rng):
    """r1, r2, r3 per target: mutually distinct and different from the target."""
    base = np.arange(n)
    r = rng.integers(0, n, (n, 3))
    while True:
        bad = (
            (r[:, 0] == r[:, 1])
            | (r[:, 0] == r[:, 2])
            | (r[:, 1] == r[:, 2])
            | (r[:, 0] == base)
            | (r[:, 1] == base)
            | (r[:, 2] == base)
        )
        if not bad.any():
            return r
        r[bad] = rng.integers(0, n, (int(bad.sum()), 3))


def run_de(fn, noise, cfg, rng):
    """DE/rand/1/bin with greedy selection on resampled noisy fitness."""
    budget, xs, fs = _first_population(fn, noise, rng, cfg.pop_size, cfg.rs,
                                       cfg.total_eval)
    lo, hi = fn.bounds
    n, d = cfg.pop_size, fn.dimension
    for _ in range(1, budget.total_it):
        r = _distinct_triples(n, rng)
        mutant = xs[r[:, 0]] + cfg.f_scale * (xs[r[:, 1]] - xs[r[:, 2]])
        mutant = np.clip(mutant, lo, hi)
        cross = rng.random((n, d)) < cfg.cf
        forced = rng.integers(0, d, n)
        cross[np.arange(n), forced] = True
        trial = np.where(cross, mutant, xs)
        tf = resample_many(fn, trial, cfg.rs, noise, rng, budget)
        better = tf <= fs
        xs[better] = trial[better]
        fs[better] = tf[better]
        budget.end_cycle()
    return RunResult.from_budget(budget)


def inertia_weight(it, total_it, w_start, w_end):
    """Linear inertia schedule: w_start at iteration 0, w_end at the last."""
    if total_it <= 1:
        return w_start
    return w_start + (w_end - w_start) * it / (total_it - 1)


def run_pso(fn, noise, cfg, rng):
    """Synchronous PSO with per-dimension random velocity weights."""
    budget, xs, fs = _first_population(fn, noise, rng, cfg.pop_size, cfg.rs,
                                       cfg.total_eval)
    lo, hi = fn.bounds
    n, d = cfg.pop_size, fn.dimension
    vs = np.zeros((n, d))
    pbest = xs.copy()
    pbest_f = fs.copy()
    g = int(np.argmin(fs))
    gbest = xs[g].copy()
    gbest_f = float(fs[g])

    for it in range(1, budget.total_it):
        w = inertia_weight(it, budget.total_it, cfg.w_start, cfg.w_end)
        phi1 = rng.uniform(cfg.phi_min, cfg.phi_max, (n, d))
        phi2 = rng.uniform(cfg.phi_min, cfg.phi_max, (n, d))
        vs = w * vs + phi1 * (pbest - xs) + phi2 * (gbest - xs)
        xs = np.clip(xs + vs, lo, hi)
        fs = resample_many(fn, xs, cfg.rs, noise, rng, budget)
        improved = fs < pbest_f
        pbest[improved] = xs[improved]
        pbest_f[improved] = fs[improved]
        g = int(np.argmin(pbest_f))
        if pbest_f[g] < gbest_f:
            gbest_f = float(pbest_f[g])
            gbest = pbest[g].copy()
        budget.end_cycle()
    return RunResult.from_budget(budget)
