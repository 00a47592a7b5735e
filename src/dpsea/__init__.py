"""Noisy-optimization toolkit: a distributed population switching
evolutionary algorithm with local-regression fitness estimation, baseline
optimizers (canonical GA, DE/rand/1/bin, PSO), noisy benchmark problems,
and a reproducible experiment harness."""

from .benchmarks import (
    BenchmarkFunction,
    NoiseModel,
    evaluate,
    make_function,
    optimum,
)
from .baselines import CgaConfig, DeConfig, PsoConfig, run_cga, run_de, run_pso
from .engine import DpseaParams, run
from .ga import GaParams
from .regression import ModelKind, RegressionModel, fit, select_kind
from .stochastics import Budget, CycleRecord, RngState, RunResult, resampled_fitness

__version__ = "0.1.0"

__all__ = [
    "BenchmarkFunction",
    "NoiseModel",
    "evaluate",
    "make_function",
    "optimum",
    "CgaConfig",
    "DeConfig",
    "PsoConfig",
    "run_cga",
    "run_de",
    "run_pso",
    "DpseaParams",
    "run",
    "GaParams",
    "ModelKind",
    "RegressionModel",
    "fit",
    "select_kind",
    "CycleRecord",
    "RunResult",
    "Budget",
    "RngState",
    "resampled_fitness",
]
