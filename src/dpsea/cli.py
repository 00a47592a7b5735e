"""Command-line front end.

Subcommands:
  run        execute a sweep from a JSON config and/or flags
  summarize  aggregate an existing runs.csv into mean/std per cell
  success    success-rate table per noise level from an existing runs.csv

Exit codes: 0 success, 1 invalid configuration, 2 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import benchmarks, harness
from .harness import ConfigError, ExperimentConfig


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpsea", description="Noisy-optimization experiment harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep of seeded experiments")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--algo", choices=harness.ALGOS)
    run.add_argument("--function", choices=benchmarks.FUNCTION_IDS)
    run.add_argument("--rs", type=_int_list, help="comma-separated rs sweep")
    run.add_argument("--sigma", type=_float_list, help="comma-separated sigma sweep")
    run.add_argument("--repeats", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--total-eval", type=int)
    run.add_argument("--out", help="output directory")
    run.add_argument("--format", choices=["csv", "json"])

    summ = sub.add_parser("summarize", help="aggregate runs.csv into summary rows")
    summ.add_argument("--in", dest="in_dir", required=True)

    succ = sub.add_parser("success", help="success rates per noise level")
    succ.add_argument("--in", dest="in_dir", required=True)
    succ.add_argument("--epsilon", type=float, help="override the success threshold")

    return parser


def _load_config(args):
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")

    def pick(key, flag, default=None):
        # pop the file's key even when the flag wins, so it is not "unknown"
        value = raw.pop(key, default)
        return value if flag is None else flag

    out_dir = pick("out", args.out, "results")
    fmt = pick("format", args.format, "csv")

    seed = pick("seed", args.seed)
    if seed is None:
        seed = harness.entropy_seed()
        print(f"no seed given; using entropy seed {seed}", file=sys.stderr)

    overrides = {
        k: raw.pop(k)
        for k in ("dpsea", "cga", "de", "pso", "regression")
        if k in raw
    }
    epsilon = dict(harness.DEFAULT_EPSILON)
    epsilon.update(raw.pop("success", {}).get("epsilon", {}))

    cfg = ExperimentConfig(
        function=pick("function", args.function, "sphere"),
        dimension=raw.pop("dimension", None),
        noisy=raw.pop("noisy", True),
        sigmas=tuple(pick("sigma", args.sigma, [1.0])),
        algo=pick("algo", args.algo, "dpsea"),
        rs_list=tuple(pick("rs", args.rs, [1])),
        repeats=pick("repeats", args.repeats, 30),
        base_seed=int(seed),
        total_eval=pick("total_eval", args.total_eval),
        rastrigin_constant=raw.pop("rastrigin_constant", None),
        epsilon=epsilon,
        params=overrides,
    )
    unknown = set(raw)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    harness.worker_count()  # a bad DPSEA_THREADS fails before any run
    return cfg, out_dir, fmt


def _cmd_run(args):
    try:
        cfg, out_dir, fmt = _load_config(args)
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    records = harness.run_experiment(cfg)
    summaries = harness.summarize(records)
    try:
        paths = harness.emit(records, summaries, fmt, out_dir)
        echo = {
            "function": cfg.function,
            "dimension": cfg.dimension,
            "noisy": cfg.noisy,
            "sigma": list(cfg.sigmas),
            "algo": cfg.algo,
            "rs": list(cfg.rs_list),
            "repeats": cfg.repeats,
            "seed": cfg.base_seed,
            "total_eval": cfg.total_eval,
            "format": fmt,
        }
        harness._atomic_write(
            os.path.join(out_dir, "config.json"), json.dumps(echo, indent=2)
        )
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


def _read_records(in_dir):
    path = os.path.join(in_dir, "runs.csv")
    if not os.path.exists(path):
        raise ConfigError(f"no runs.csv under {in_dir}")
    records = harness.parse_runs_csv(path)
    if not records:
        raise ConfigError(f"{path} holds no records")
    return records


def _cmd_summarize(args):
    try:
        records = _read_records(args.in_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("function,algo,sigma,rs,n,mean_best_true_fitness,std_best_true_fitness")
    for s in harness.summarize(records):
        print(
            f"{s.function},{s.algo},{s.sigma!r},{s.rs},{s.n},"
            f"{s.mean_best_true_fitness!r},{s.std_best_true_fitness!r}"
        )
    return 0


def _cmd_success(args):
    try:
        records = _read_records(args.in_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    fn = benchmarks.make_function(records[0].function, records[0].dimension)
    _, opt_value = benchmarks.optimum(fn)
    eps = (
        args.epsilon
        if args.epsilon is not None
        else harness.DEFAULT_EPSILON[records[0].function]
    )
    print("sigma,success_pct")
    for sigma, pct in harness.success_rate(records, eps, opt_value).items():
        print(f"{sigma!r},{pct}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "summarize":
        return _cmd_summarize(args)
    return _cmd_success(args)


if __name__ == "__main__":
    sys.exit(main())
