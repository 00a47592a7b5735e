"""Config-driven experiment harness: seeded sweeps over noise levels and
resampling counts, aggregation into mean/std tables, success-rate analysis,
and CSV/JSON emission.

Every run's seed is a documented mix of the base seed and the sweep
indices, so any single cell can be reproduced in isolation. Output files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import secrets
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

from . import baselines, benchmarks, engine
from .ga import GaParams
from .stochastics import RngState

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "Summary",
    "DEFAULT_EPSILON",
    "TABLE_BUDGETS",
    "default_total_eval",
    "derive_seed",
    "run_single",
    "run_experiment",
    "worker_count",
    "summarize",
    "success_rate",
    "emit",
    "parse_runs_csv",
]

ALGOS = ("dpsea", "cga", "de", "pso")

# per-function success thresholds on distance to the known optimum
DEFAULT_EPSILON = {
    "sphere": 1e-3,
    "griewank": 1e-2,
    "rastrigin1": 1e-1,
    "rosenbrock": 50.0,
}

# evaluation budgets used for the reported comparisons
TABLE_BUDGETS = {
    "dpsea": {"sphere": 90_000, "griewank": 430_000, "rastrigin1": 450_000,
              "rosenbrock": 450_000},
    "baseline": {"sphere": 100_000, "griewank": 500_000, "rastrigin1": 500_000,
                 "rosenbrock": 500_000},
}

RUNS_COLUMNS = [
    "function", "dimension", "noisy", "sigma", "algo", "rs", "repeat",
    "seed", "best_true_fitness", "total_eval", "success", "wall_ms",
]

SIGMA_SWEEP = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9]
RS_SWEEP = [1, 5, 20, 50, 100]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def default_total_eval(function, algo):
    key = "dpsea" if algo == "dpsea" else "baseline"
    return TABLE_BUDGETS[key][function]


@dataclass(frozen=True)
class ExperimentConfig:
    function: str = "sphere"
    dimension: int | None = None
    noisy: bool = True
    sigmas: tuple = (1.0,)
    algo: str = "dpsea"
    rs_list: tuple = (1,)
    repeats: int = 30
    base_seed: int = 0
    total_eval: int | None = None
    rastrigin_constant: float | None = None
    epsilon: dict = field(default_factory=lambda: dict(DEFAULT_EPSILON))
    # per-namespace parameter overrides: dpsea.*, cga.*, de.*, pso.*, regression.*
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.function not in benchmarks.FUNCTION_IDS:
            raise ConfigError(f"unknown function {self.function!r}")
        if self.algo not in ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}; expected one of {ALGOS}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not self.sigmas:
            raise ConfigError("sigma sweep must be nonempty")
        if not self.rs_list:
            raise ConfigError("rs sweep must be nonempty")
        if any(s < 0 for s in self.sigmas):
            raise ConfigError("sigma values must be nonnegative")
        if any(r < 1 for r in self.rs_list):
            raise ConfigError("rs values must be positive integers")


@dataclass(frozen=True)
class RunRecord:
    function: str
    dimension: int
    noisy: bool
    sigma: float
    algo: str
    rs: int
    repeat: int
    seed: int
    best_true_fitness: float
    total_eval: int
    success: bool
    wall_ms: float


@dataclass(frozen=True)
class Summary:
    function: str
    algo: str
    sigma: float
    rs: int
    n: int
    mean_best_true_fitness: float
    std_best_true_fitness: float


def derive_seed(base_seed, sigma_index, rs_index, repeat):
    """Stable per-run seed: blake2b of the base seed and sweep indices."""
    key = f"{base_seed}:{sigma_index}:{rs_index}:{repeat}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")


def entropy_seed():
    return secrets.randbits(63)


def _ga_params(overrides):
    allowed = {"pop_size", "p_c", "p_m", "n_elites", "sigma_m"}
    kwargs = {k: v for k, v in overrides.items() if k in allowed}
    return GaParams(**kwargs)


def _build_function(cfg):
    return benchmarks.make_function(
        cfg.function, cfg.dimension, cfg.rastrigin_constant
    )


def run_single(cfg, sigma, rs, seed):
    """Execute one seeded run of the configured algorithm."""
    fn = _build_function(cfg)
    noise = benchmarks.NoiseModel(0.0, sigma if cfg.noisy else 0.0)
    total_eval = cfg.total_eval or default_total_eval(cfg.function, cfg.algo)
    rng = RngState(seed)
    reg = cfg.params.get("regression", {})

    start = time.perf_counter()
    if cfg.algo == "dpsea":
        opts = dict(cfg.params.get("dpsea", {}))
        ga = _ga_params(opts)
        keys = {"t_switch", "max_clusters", "radius_fraction", "kappa",
                "s_min", "staleness_limit"}
        kwargs = {k: v for k, v in opts.items() if k in keys}
        params = engine.DpseaParams(
            ga=ga,
            rs_merge=rs,
            max_total_eval=total_eval,
            regression_lambda=reg.get("lambda", 1e-6),
            quadratic_min_samples_factor=reg.get("quadratic_min_samples_factor", 1.0),
            **kwargs,
        )
        result = engine.run(fn, noise, params, rng)
    elif cfg.algo == "cga":
        ga = _ga_params(cfg.params.get("cga", {}))
        result = baselines.run_cga(
            fn, noise, baselines.CgaConfig(ga=ga, rs=rs, total_eval=total_eval), rng
        )
    elif cfg.algo == "de":
        opts = cfg.params.get("de", {})
        dcfg = baselines.DeConfig(
            pop_size=opts.get("pop_size", 50),
            cf=opts.get("cf", 0.8),
            f_scale=opts.get("f_scale", 0.5),
            rs=rs,
            total_eval=total_eval,
        )
        result = baselines.run_de(fn, noise, dcfg, rng)
    else:
        opts = cfg.params.get("pso", {})
        pcfg = baselines.PsoConfig(
            pop_size=opts.get("pop_size", 20),
            w_start=opts.get("w_start", 1.0),
            w_end=opts.get("w_end", 0.7),
            phi_min=opts.get("phi_min", 0.0),
            phi_max=opts.get("phi_max", 2.0),
            rs=rs,
            total_eval=total_eval,
        )
        result = baselines.run_pso(fn, noise, pcfg, rng)
    wall_ms = (time.perf_counter() - start) * 1000.0

    _, opt_value = benchmarks.optimum(fn)
    eps = cfg.epsilon.get(cfg.function, DEFAULT_EPSILON[cfg.function])
    return RunRecord(
        function=cfg.function,
        dimension=fn.dimension,
        noisy=cfg.noisy,
        sigma=float(sigma),
        algo=cfg.algo,
        rs=int(rs),
        repeat=0,  # caller fills in
        seed=int(seed),
        best_true_fitness=float(result.best_fitness),
        total_eval=int(result.budget.total_eval),
        success=bool(result.best_fitness - opt_value <= eps),
        wall_ms=wall_ms,
    ), result


def _run_cell(args):
    cfg, si, sigma, ri, rs, rep = args
    seed = derive_seed(cfg.base_seed, si, ri, rep)
    record, _ = run_single(cfg, sigma, rs, seed)
    return replace(record, repeat=rep)


def worker_count():
    """Worker processes set by ``DPSEA_THREADS``; 0 (unset or empty) is serial.

    Raises ``ConfigError`` unless the value is a non-negative integer.
    """
    text = os.environ.get("DPSEA_THREADS", "").strip()
    if not text:
        return 0
    if not (text.isascii() and text.isdigit()):
        raise ConfigError(
            f"DPSEA_THREADS must be a non-negative integer, got {text!r}"
        )
    return int(text)


def run_experiment(cfg):
    """All (sigma, rs, repeat) cells, in deterministic sweep order.

    ``worker_count()`` > 0 (the environment variable ``DPSEA_THREADS``)
    runs the cells in that many worker processes, at most one per cell;
    output order is by sweep index either way.
    """
    jobs = [
        (cfg, si, sigma, ri, rs, rep)
        for si, sigma in enumerate(cfg.sigmas)
        for ri, rs in enumerate(cfg.rs_list)
        for rep in range(cfg.repeats)
    ]
    workers = min(worker_count(), len(jobs))
    if workers > 0:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, jobs))
    return [_run_cell(job) for job in jobs]


def summarize(records):
    """Mean and sample standard deviation of best true fitness per cell."""
    cells = {}
    for r in records:
        cells.setdefault((r.sigma, r.rs), []).append(r)
    out = []
    for (sigma, rs) in sorted(cells):
        rows = cells[(sigma, rs)]
        vals = [r.best_true_fitness for r in rows]
        n = len(vals)
        mean = sum(vals) / n
        if n > 1:
            var = sum((v - mean) ** 2 for v in vals) / (n - 1)
            std = var ** 0.5
        else:
            std = 0.0
        out.append(
            Summary(rows[0].function, rows[0].algo, sigma, rs, n, mean, std)
        )
    return out


def success_rate(records, epsilon, optimum_value):
    """Integer success percentage per sigma level."""
    cells = {}
    for r in records:
        cells.setdefault(r.sigma, []).append(r)
    out = {}
    for sigma in sorted(cells):
        rows = cells[sigma]
        wins = sum(
            1 for r in rows if r.best_true_fitness - optimum_value <= epsilon
        )
        out[sigma] = round(100.0 * wins / len(rows))
    return out


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _atomic_write(path, text):
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit(records, summaries, fmt, out_dir):
    """Write runs.{csv,json} and summary.{csv,json} atomically.

    Returns the paths written. Raises ``OSError`` when the output path is
    not writable; no partial files are left behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt == "csv":
        lines = [",".join(RUNS_COLUMNS)]
        for r in records:
            row = asdict(r)
            lines.append(",".join(_fmt(row[c]) for c in RUNS_COLUMNS))
        runs_path = os.path.join(out_dir, "runs.csv")
        _atomic_write(runs_path, "\n".join(lines) + "\n")
        paths.append(runs_path)

        cols = ["function", "algo", "sigma", "rs", "n",
                "mean_best_true_fitness", "std_best_true_fitness"]
        lines = [",".join(cols)]
        for s in summaries:
            row = asdict(s)
            lines.append(",".join(_fmt(row[c]) for c in cols))
        summary_path = os.path.join(out_dir, "summary.csv")
        _atomic_write(summary_path, "\n".join(lines) + "\n")
        paths.append(summary_path)
    elif fmt == "json":
        runs_path = os.path.join(out_dir, "runs.json")
        _atomic_write(runs_path, json.dumps([asdict(r) for r in records], indent=2))
        paths.append(runs_path)
        summary_path = os.path.join(out_dir, "summary.json")
        _atomic_write(summary_path, json.dumps([asdict(s) for s in summaries], indent=2))
        paths.append(summary_path)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    return paths


def parse_runs_csv(path):
    """Read runs.csv back into RunRecord objects (round-trip of emit)."""
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            records.append(
                RunRecord(
                    function=row["function"],
                    dimension=int(row["dimension"]),
                    noisy=row["noisy"] == "true",
                    sigma=float(row["sigma"]),
                    algo=row["algo"],
                    rs=int(row["rs"]),
                    repeat=int(row["repeat"]),
                    seed=int(row["seed"]),
                    best_true_fitness=float(row["best_true_fitness"]),
                    total_eval=int(row["total_eval"]),
                    success=row["success"] == "true",
                    wall_ms=float(row["wall_ms"]),
                )
            )
    return records
