"""Result containers shared by the switching engine and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stochastics import Budget

__all__ = ["CycleRecord", "RunResult"]


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

    @classmethod
    def from_budget(cls, budget, trace):
        """The result of a run: the best-so-far its ``budget`` tracked."""
        return cls(budget.best.best_genome, budget.best.best_fitness, budget, trace)
