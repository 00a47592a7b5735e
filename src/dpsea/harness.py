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
import numbers
import os
import secrets
import time
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

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
    "build_params",
    "resolved_settings",
    "run_single",
    "run_experiment",
    "worker_count",
    "summarize",
    "success_rate",
    "csv_text",
    "emit",
    "parse_runs_csv",
]

# An algorithm: its parameter dataclass, the module and name of its runner,
# called as runner(fn, noise, params, rng), and the names of the two fields
# the sweep sets from rs and total_eval. The runner is looked up when it is
# called, so a wrapper put on the module attribute is the one that runs.
_Algo = namedtuple("_Algo", "config module runner rs budget")
REGISTRY = {
    "dpsea": _Algo(engine.DpseaParams, engine, "run", "rs_merge", "max_total_eval"),
    "cga": _Algo(baselines.CgaConfig, baselines, "run_cga", "rs", "total_eval"),
    "de": _Algo(baselines.DeConfig, baselines, "run_de", "rs", "total_eval"),
    "pso": _Algo(baselines.PsoConfig, baselines, "run_pso", "rs", "total_eval"),
}
ALGOS = tuple(REGISTRY)

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

SIGMA_SWEEP = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9]
RS_SWEEP = [1, 5, 20, 50, 100]


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def default_total_eval(function, algo):
    key = "dpsea" if algo == "dpsea" else "baseline"
    return TABLE_BUDGETS[key][function]


def _check(ok, message):
    if not ok:
        raise ConfigError(message)


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _list_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(ok, v))


# ExperimentConfig field -> (what it must be, test)
_RULES = {
    "function": (f"one of {benchmarks.FUNCTION_IDS}",
                 lambda v: v in benchmarks.FUNCTION_IDS),
    "dimension": ("null or an integer", lambda v: v is None or _is_int(v)),
    "noisy": ("true or false", lambda v: isinstance(v, bool)),
    "sigmas": ("a nonempty list of numbers >= 0",
               _list_of(lambda v: _is_real(v) and v >= 0)),
    "algo": (f"one of {ALGOS}", lambda v: v in ALGOS),
    "rs_list": ("a nonempty list of integers >= 1",
                _list_of(lambda v: _is_int(v) and v >= 1)),
    "repeats": ("an integer >= 1", lambda v: _is_int(v) and v >= 1),
    "base_seed": ("an integer", _is_int),
    "total_eval": ("null or an integer >= 1",
                   lambda v: v is None or _is_int(v) and v >= 1),
    "rastrigin_constant": ("null or a number", lambda v: v is None or _is_real(v)),
    "epsilon": ("an object mapping function ids to numbers",
                lambda v: isinstance(v, dict) and all(
                    k in benchmarks.FUNCTION_IDS and _is_real(x) for k, x in v.items())),
    "params": (f"an object mapping algo ids {ALGOS} to blocks",
               lambda v: isinstance(v, dict) and all(k in ALGOS for k in v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep. Construction checks every field and builds every block in
    ``params`` (see ``build_params``) and the benchmark function, so a bad
    value raises ``ConfigError`` before any run. ``epsilon`` is filled in
    from ``DEFAULT_EPSILON``."""

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
    epsilon: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, (what, ok) in _RULES.items():
            value = getattr(self, name)
            _check(ok(value), f"{name} must be {what}, got {value!r}")
        object.__setattr__(self, "epsilon", {**DEFAULT_EPSILON, **self.epsilon})
        for algo, block in self.params.items():
            build_params(algo, block)
        try:
            _build_function(self)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


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


def _block_keys(algo):
    """Defaults of the block keys set on ``algo``'s dataclass, and of those
    that go into its ``GaParams`` (none when it has no ``ga`` field)."""
    spec = REGISTRY[algo]
    own = {f.name: f.default for f in fields(spec.config)
           if f.name not in (spec.rs, spec.budget)}
    ga = {f.name: f.default for f in fields(GaParams)} if "ga" in own else {}
    own.pop("ga", None)
    return own, ga


def build_params(algo, block, rs=None, total_eval=None):
    """``algo``'s parameter dataclass, built from its config ``block``.

    A key naming a ``GaParams`` field goes into ``ga`` when the dataclass
    has that field; any other field is set directly, except ``ga`` and the
    two that the sweep sets from ``rs`` and ``total_eval`` (``None`` keeps
    the dataclass's value). An unknown key or bad value raises ``ConfigError``.
    """
    spec = REGISTRY[algo]
    _check(isinstance(block, dict), f"the {algo} block must be an object, got {block!r}")
    own, ga = _block_keys(algo)
    for key, value in block.items():
        _check(key in own or key in ga, f"unknown key {key!r} in the {algo} "
               f"block; expected one of {sorted({**own, **ga})}")
        default = own[key] if key in own else ga[key]  # a float or an int
        is_type = _is_real if isinstance(default, float) else _is_int
        _check(is_type(value),
               f"{algo}.{key} must be {type(default).__name__}, got {value!r}")
    kwargs = {k: v for k, v in block.items() if k in own}
    sweep = {spec.rs: rs, spec.budget: total_eval}
    kwargs.update({k: v for k, v in sweep.items() if v is not None})
    try:
        if ga:
            kwargs["ga"] = GaParams(**{k: v for k, v in block.items() if k in ga})
        return spec.config(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{algo} block: {exc}") from None


def _build_function(cfg):
    return benchmarks.make_function(cfg.function, cfg.dimension, cfg.rastrigin_constant)


def _total_eval(cfg):
    return cfg.total_eval or default_total_eval(cfg.function, cfg.algo)


def resolved_settings(cfg):
    """What ``cfg``'s runs use where it leaves a default: ``dimension``,
    ``total_eval`` and the selected algo's block with every key it accepts."""
    own, ga = _block_keys(cfg.algo)
    return {
        "dimension": _build_function(cfg).dimension,
        "total_eval": _total_eval(cfg),
        cfg.algo: {**ga, **own, **cfg.params.get(cfg.algo, {})},
    }


def run_single(cfg, sigma, rs, seed):
    """Execute one seeded run of the configured algorithm."""
    fn = _build_function(cfg)
    noise = benchmarks.NoiseModel(0.0, sigma if cfg.noisy else 0.0)
    params = build_params(cfg.algo, cfg.params.get(cfg.algo, {}), rs, _total_eval(cfg))
    rng = RngState(seed)

    start = time.perf_counter()
    spec = REGISTRY[cfg.algo]
    result = getattr(spec.module, spec.runner)(fn, noise, params, rng)
    wall_ms = (time.perf_counter() - start) * 1000.0

    _, opt_value = benchmarks.optimum(fn)
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
        success=bool(result.best_fitness - opt_value <= cfg.epsilon[cfg.function]),
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
    _check(not text or (text.isascii() and text.isdigit()),
           f"DPSEA_THREADS must be a non-negative integer, got {text!r}")
    return int(text or 0)


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


def _cells(records, key):
    cells = {}
    for r in records:
        cells.setdefault(key(r), []).append(r)
    return sorted(cells.items())


def summarize(records):
    """Mean and sample standard deviation of best true fitness per cell."""
    out = []
    for (sigma, rs), rows in _cells(records, lambda r: (r.sigma, r.rs)):
        vals = [r.best_true_fitness for r in rows]
        n = len(vals)
        mean = sum(vals) / n
        std = (sum((v - mean) ** 2 for v in vals) / (n - 1)) ** 0.5 if n > 1 else 0.0
        out.append(Summary(rows[0].function, rows[0].algo, sigma, rs, n, mean, std))
    return out


def success_rate(records, epsilon=None, optimum_value=0.0):
    """Integer success percentage per sigma level: of the ``success`` flags
    the runs recorded, or, given ``epsilon``, of best - optimum <= epsilon."""
    out = {}
    for sigma, rows in _cells(records, lambda r: r.sigma):
        wins = sum(r.success if epsilon is None
                   else r.best_true_fitness - optimum_value <= epsilon for r in rows)
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


def csv_text(cls, rows):
    """CSV of dataclass ``rows``, one column per field of ``cls``."""
    cols = [f.name for f in fields(cls)]
    lines = [",".join(cols)]
    lines += [",".join(_fmt(getattr(r, c)) for c in cols) for r in rows]
    return "\n".join(lines) + "\n"


def emit(records, summaries, fmt, out_dir):
    """Write runs.{csv,json} and summary.{csv,json} atomically.

    Returns the paths written. Raises ``OSError`` when the output path is
    not writable; no partial files are left behind.
    """
    _check(fmt in ("csv", "json"), f"unknown output format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, cls, rows in (("runs", RunRecord, records),
                            ("summary", Summary, summaries)):
        path = os.path.join(out_dir, f"{name}.{fmt}")
        if fmt == "csv":
            _atomic_write(path, csv_text(cls, rows))
        else:
            _atomic_write(path, json.dumps([asdict(r) for r in rows], indent=2))
        paths.append(path)
    return paths


# RunRecord field type (an annotation string) -> parser of its CSV text
_PARSE = {"str": str, "int": int, "float": float, "bool": lambda t: t == "true"}


def parse_runs_csv(path):
    """Read runs.csv back into RunRecord objects (round-trip of emit)."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [
            RunRecord(**{f.name: _PARSE[f.type](row[f.name])
                         for f in fields(RunRecord)})
            for row in csv.DictReader(fh)
        ]
