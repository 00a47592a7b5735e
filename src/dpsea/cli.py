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


def _list_of(kind):
    return lambda text: tuple(kind(v) for v in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dpsea", description="Noisy-optimization experiment harness."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep of seeded experiments")
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--algo", choices=harness.ALGOS)
    run.add_argument("--function", choices=benchmarks.FUNCTION_IDS)
    run.add_argument("--rs", type=_list_of(int), help="comma-separated rs sweep")
    run.add_argument("--sigma", type=_list_of(float), help="comma-separated sigma sweep")
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


# config-file key -> ExperimentConfig field; a flag of the same name wins
_FILE_KEYS = {
    "function": "function", "dimension": "dimension", "noisy": "noisy",
    "sigma": "sigmas", "algo": "algo", "rs": "rs_list", "repeats": "repeats",
    "seed": "base_seed", "total_eval": "total_eval",
    "rastrigin_constant": "rastrigin_constant",
}


def _load_config(args):
    raw = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")

    # a flag wins over the file's key, which is popped either way so that
    # what is left is unknown; null in the file keeps the default
    values = {}
    for key in (*_FILE_KEYS, "out", "format"):
        value, flag = raw.pop(key, None), getattr(args, key, None)
        values[key] = value if flag is None else flag
    out_dir = values.pop("out") or "results"
    fmt = values.pop("format") or "csv"
    if not isinstance(out_dir, str) or fmt not in ("csv", "json"):
        raise ConfigError(f"bad out {out_dir!r} or format {fmt!r}")
    kwargs = {_FILE_KEYS[k]: v for k, v in values.items() if v is not None}
    entropy = "base_seed" not in kwargs
    kwargs.setdefault("base_seed", harness.entropy_seed())
    success = raw.pop("success", {})
    if not isinstance(success, dict) or set(success) - {"epsilon"}:
        raise ConfigError(
            f"success must be an object whose one key is epsilon, got {success!r}"
        )
    cfg = ExperimentConfig(
        **kwargs,
        epsilon=success.get("epsilon", {}),
        params={k: raw.pop(k) for k in harness.ALGOS if k in raw},
    )
    if raw:
        raise ConfigError(f"unknown config keys: {sorted(raw)}")
    harness.worker_count()  # a bad DPSEA_THREADS fails before any run
    if entropy:
        print(f"no seed given; using entropy seed {cfg.base_seed}", file=sys.stderr)
    return cfg, out_dir, fmt


def _echo(cfg, fmt):
    """The config file that reproduces ``cfg``'s runs."""
    echo = {key: getattr(cfg, name) for key, name in _FILE_KEYS.items()}
    echo.update(harness.resolved_settings(cfg))
    echo["success"] = {"epsilon": cfg.epsilon}
    echo["format"] = fmt
    return echo


def _cmd_run(args):
    try:
        cfg, out_dir, fmt = _load_config(args)
    except (ValueError, OSError) as exc:  # ConfigError and bad JSON included
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    records = harness.run_experiment(cfg)
    summaries = harness.summarize(records)
    try:
        paths = harness.emit(records, summaries, fmt, out_dir)
        harness._atomic_write(
            os.path.join(out_dir, "config.json"),
            json.dumps(_echo(cfg, fmt), indent=2),
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


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    try:
        records = _read_records(args.in_dir)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "summarize":
        print(harness.csv_text(harness.Summary, harness.summarize(records)), end="")
        return 0
    opt_value = 0.0
    if args.epsilon is not None:
        fn = benchmarks.make_function(records[0].function, records[0].dimension)
        _, opt_value = benchmarks.optimum(fn)
    print("sigma,success_pct")
    for sigma, pct in harness.success_rate(records, args.epsilon, opt_value).items():
        print(f"{sigma!r},{pct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
