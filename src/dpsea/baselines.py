"""Baseline optimizers under the fixed-evaluation-budget protocol.

All three follow the same schedule: the total number of evaluations is
held constant by running ``total_it = total_eval // (pop_size * rs)``
iterations, the first of which scores the initial population. Results are
always reported as the best solution found, scored by the true
(noiseless) fitness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import benchmarks
from .ga import GaParams, evolve_generation
from .results import CycleRecord, RunResult
from .stochastics import Budget, resample_many

__all__ = ["CgaConfig", "DeConfig", "PsoConfig", "run_cga", "run_de", "run_pso",
           "inertia_weight"]


@dataclass(frozen=True)
class CgaConfig:
    ga: GaParams = field(default_factory=GaParams)
    rs: int = 1
    total_eval: int = 100_000


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
        if self.w_end > self.w_start:
            raise ValueError("w_end must not exceed w_start")
        if self.phi_min > self.phi_max:
            raise ValueError("phi_min must not exceed phi_max")


def _total_it(total_eval, pop_size, rs):
    total_it = total_eval // (pop_size * rs)
    if total_it < 1:
        raise ValueError(
            f"budget {total_eval} cannot cover one iteration of "
            f"pop_size={pop_size} at rs={rs}"
        )
    return total_it


class _BestTracker:
    """Running minimum of true fitness over every evaluated genome."""

    def __init__(self, fn):
        self.fn = fn
        self.best_genome = None
        self.best_fitness = np.inf

    def update(self, xs):
        tv = benchmarks.evaluate_many(self.fn, xs)
        i = int(np.argmin(tv))
        if tv[i] < self.best_fitness:
            self.best_fitness = float(tv[i])
            self.best_genome = np.array(xs[i], copy=True)


def run_cga(fn, noise, cfg, rng):
    """Generational real-coded GA with elitism and resampled fitness."""
    total_it = _total_it(cfg.total_eval, cfg.ga.pop_size, cfg.rs)
    budget = Budget(pop_size=cfg.ga.pop_size, total_it=total_it, rs=cfg.rs)
    lo, hi = fn.bounds
    tracker = _BestTracker(fn)

    genomes = rng.uniform(lo, hi, (cfg.ga.pop_size, fn.dimension))
    vals = resample_many(fn, genomes, cfg.rs, noise, rng, budget)
    tracker.update(genomes)

    trace = [CycleRecord(0, budget.total_eval, tracker.best_fitness)]
    for it in range(1, total_it):
        genomes, vals, _ = evolve_generation(
            genomes,
            vals,
            cfg.ga,
            rng,
            fn.bounds,
            lambda xs: resample_many(fn, xs, cfg.rs, noise, rng, budget),
        )
        budget.skip(cfg.ga.n_elites * cfg.rs)
        tracker.update(genomes[cfg.ga.n_elites :])
        trace.append(CycleRecord(it, budget.total_eval, tracker.best_fitness))
    return RunResult(tracker.best_genome, tracker.best_fitness, budget, trace)


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
    total_it = _total_it(cfg.total_eval, cfg.pop_size, cfg.rs)
    budget = Budget(pop_size=cfg.pop_size, total_it=total_it, rs=cfg.rs)
    lo, hi = fn.bounds
    n, d = cfg.pop_size, fn.dimension
    tracker = _BestTracker(fn)

    xs = rng.uniform(lo, hi, (n, d))
    fs = resample_many(fn, xs, cfg.rs, noise, rng, budget)
    tracker.update(xs)

    trace = [CycleRecord(0, budget.total_eval, tracker.best_fitness)]
    for it in range(1, total_it):
        r = _distinct_triples(n, rng)
        mutant = xs[r[:, 0]] + cfg.f_scale * (xs[r[:, 1]] - xs[r[:, 2]])
        mutant = np.clip(mutant, lo, hi)
        cross = rng.uniform(size=(n, d)) < cfg.cf
        forced = rng.integers(0, d, n)
        cross[np.arange(n), forced] = True
        trial = np.where(cross, mutant, xs)
        tf = resample_many(fn, trial, cfg.rs, noise, rng, budget)
        better = tf <= fs
        xs[better] = trial[better]
        fs[better] = tf[better]
        tracker.update(trial)
        trace.append(CycleRecord(it, budget.total_eval, tracker.best_fitness))
    return RunResult(tracker.best_genome, tracker.best_fitness, budget, trace)


def inertia_weight(it, total_it, w_start, w_end):
    """Linear inertia schedule: w_start at iteration 0, w_end at the last."""
    if total_it <= 1:
        return w_start
    return w_start + (w_end - w_start) * it / (total_it - 1)


def run_pso(fn, noise, cfg, rng):
    """Synchronous PSO with per-dimension random velocity weights."""
    total_it = _total_it(cfg.total_eval, cfg.pop_size, cfg.rs)
    budget = Budget(pop_size=cfg.pop_size, total_it=total_it, rs=cfg.rs)
    lo, hi = fn.bounds
    n, d = cfg.pop_size, fn.dimension
    tracker = _BestTracker(fn)

    xs = rng.uniform(lo, hi, (n, d))
    vs = np.zeros((n, d))
    fs = resample_many(fn, xs, cfg.rs, noise, rng, budget)
    pbest = xs.copy()
    pbest_f = fs.copy()
    g = int(np.argmin(fs))
    gbest = xs[g].copy()
    gbest_f = float(fs[g])
    tracker.update(xs)

    trace = [CycleRecord(0, budget.total_eval, tracker.best_fitness)]
    for it in range(1, total_it):
        w = inertia_weight(it, total_it, cfg.w_start, cfg.w_end)
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
        tracker.update(xs)
        trace.append(CycleRecord(it, budget.total_eval, tracker.best_fitness))
    return RunResult(tracker.best_genome, tracker.best_fitness, budget, trace)
