"""Result containers shared by the switching engine and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import benchmarks
from .stochastics import Budget

__all__ = ["CycleRecord", "RunResult", "BestSoFar"]


@dataclass(frozen=True)
class CycleRecord:
    """One switching cycle (or generation, for baselines) of a run trace."""

    cycle: int
    total_eval: int
    best_fitness: float
    n_clusters: int = 0
    n_eligible: int = 0


@dataclass
class RunResult:
    """Best-ever solution of a run, scored by the true (noiseless) fitness."""

    best_genome: np.ndarray
    best_fitness: float
    budget: Budget
    trace: list[CycleRecord] = field(default_factory=list)


class BestSoFar:
    """Running minimum of the true (noiseless) fitness of every genome updated."""

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

    def result(self, budget, trace):
        return RunResult(self.best_genome, self.best_fitness, budget, trace)
