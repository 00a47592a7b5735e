"""Paired perfbench runs of two checkouts, written to one BENCH_*.json.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workloads sphere-5d,rastrigin1-50d,sweep-cli --pairs 10 \\
        --seconds 20 --seed 1 --out BENCH_8.json

For each workload, runs ``perfbench/run.py --trace 0`` in ``--parent`` and
in ``--change`` (each checkout's own benchmark and sources), ``--pairs``
times, alternating which side runs first. Every run is the same command
with the same ``--seconds`` and ``--seed``. The output file holds each
run's ``env`` line and end-to-end metrics, and, per workload and metric,
each side's median and quartiles, the change-over-parent ratio of the
medians, the pairs the change won (ties count for neither; "better" is
read from the change's ``BENCHMARK.json``), the parent's interquartile
range and a verdict, printed when the workload's last pair is done:

- ``better``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's ``bound`` in ``BENCHMARK.json``, a share of the parent's
  median;
- ``unresolved``: otherwise.

The file is rewritten after every pair, so an interrupted comparison keeps
the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root, workload, seconds, seed):
    """One ``--trace 0`` perfbench run in ``root``: (env, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": q2, "q3": q3}


def summarize(runs, metrics):
    """Per-metric medians, quartiles, ratio, wins and verdict over complete
    pairs; ``metrics`` is ``BENCHMARK.json``'s ``end_to_end`` list."""
    pairs = [p for p in runs if "parent" in p and "change" in p]
    out = {}
    for metric in metrics:
        if len(pairs) < 2:
            break
        name = metric["name"]
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        stats = {side: quartiles(v) for side, v in sides.items()}
        sign = 1 if metric["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(*sides.values()))
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        if wins >= 0.9 * len(pairs) and sign * (parent - change) > iqr:
            verdict = "better"
        elif sign * (change - parent) > metric["bound"] * abs(parent):
            verdict = "worse"
        else:
            verdict = "unresolved"
        out[name] = {
            **stats,
            "ratio": change / parent,
            "change_wins": wins,
            "pairs": len(pairs),
            "parent_iqr": iqr,
            "verdict": verdict,
        }
    failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    return {"metrics": out, "failed": failed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    report = {
        "command": f"perfbench/run.py --seed {args.seed} --seconds {args.seconds} --trace 0",
        "pairs": args.pairs,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        entry = report["workloads"][workload] = {"runs": runs}
        for i in range(args.pairs):
            pair = {}
            runs.append(pair)
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                try:
                    env, result = run_once(root, workload, args.seconds, args.seed)
                except subprocess.CalledProcessError as exc:
                    print(f"{workload} pair {i} {side}: perfbench exited "
                          f"{exc.returncode}; its stderr:\n{exc.stderr}",
                          file=sys.stderr, flush=True)
                    raise
                entry.setdefault("env", env)
                pair[side] = result
                print(f"{workload} pair {i} {side}: run_cal "
                      f"{result['metrics']['run_cal']['value']:.3f}", flush=True)
            entry["summary"] = summarize(runs, spec["end_to_end"])
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        for name, m in summarize(runs, spec["end_to_end"])["metrics"].items():
            print(f"{workload} {name}: {m['verdict']}, ratio {m['ratio']:.3f}, "
                  f"{m['change_wins']} of {m['pairs']} pairs won", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
