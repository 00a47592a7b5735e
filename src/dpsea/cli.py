"""Command-line front end: flags, the ``--config`` file's JSON, printing and
exit codes. What a config file holds and what a run directory holds, and
how it is written and read back, are ``harness``'s.

Subcommands:
  run        execute a sweep from a JSON config and/or flags
  summarize  aggregate a run directory's runs into mean/std per cell
  success    success-rate table per noise level of a run directory's runs

Exit codes: 0 success, 1 invalid configuration or flag, 2 unwritable output path.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import benchmarks, harness
from .harness import ConfigError


def _list_of(kind):
    def parse(text):
        return tuple(kind(v) for v in text.split(","))

    parse.__name__ = f"comma-separated {kind.__name__}"  # named in errors
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad flag is a bad configuration: exit 1
        self.exit(1, f"error: invalid configuration: {message}\n")


def build_parser():
    parser = _Parser(
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
    run.add_argument("--format", choices=harness.FORMATS)

    summ = sub.add_parser("summarize",
                          help="aggregate runs.csv or runs.json into summary rows")
    summ.add_argument("--in", dest="in_dir", required=True)

    succ = sub.add_parser("success", help="success rates per noise level")
    succ.add_argument("--in", dest="in_dir", required=True)
    succ.add_argument("--epsilon", type=float, help="override the success threshold")

    return parser


def _cmd_run(args):
    try:
        raw = {}
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
            if not isinstance(raw, dict):
                raise ConfigError(f"{args.config} must hold a JSON object")
        cfg, out_dir, fmt, entropy = harness.load_config(raw, vars(args))
    except (ValueError, OSError) as exc:  # ConfigError and bad JSON included
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    if entropy:
        print(f"no seed given; using entropy seed {cfg.base_seed}", file=sys.stderr)
    records = harness.run_experiment(cfg)
    try:
        paths = harness.emit(records, harness.summarize(records), fmt, out_dir)
        harness.write_echo(cfg, fmt, out_dir)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    epsilon = getattr(args, "epsilon", None)
    try:
        records, opt_value = harness.read_run(args.in_dir, epsilon)
    except (ValueError, OSError) as exc:  # ConfigError and bad JSON included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.command == "summarize":
        print(harness.csv_text(harness.Summary, harness.summarize(records)), end="")
        return 0
    print("sigma,success_pct")
    for sigma, pct in harness.success_rate(records, epsilon, opt_value).items():
        print(f"{sigma!r},{pct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
