"""dpsea benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sphere-5d --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the workload is timed with tracing off and the
end-to-end metrics are reported; with ``--trace 1`` one traced execution
gives the per-layer metrics. Every output is checked. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it list every metric with its unit and
the environment the figures were taken in. Exits 2 when the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Printed with the end-to-end metrics but kept out of the JSON result. Raw
# seconds swing with the host's speed (see workloads.CAL_ITERATIONS); the
# gap spreads over orders of magnitude across seeds; the failed share is
# carried by the result's own "failed" and "attempted".
PRINTED_ONLY = {
    "run_s": "s", "cpu_s": "s", "evals_per_s": "1/s", "cal_s": "s",
    "best_gap_median": "fitness", "runs_failed_frac": "ratio",
}


def environment(numpy, seed, run_seeds):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "DPSEA_THREADS": os.environ.get("DPSEA_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "seed": seed,
        "run_seeds": list(run_seeds),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="dpsea benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dpsea" / "__init__.py").is_file():
        print(f"error: no dpsea sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tally = workloads.Tally()
    if args.trace:
        found = workloads.trace(ROOT, args.workload, args.seed, tally)
    else:
        found = workloads.measure(ROOT, args.workload, args.seed, args.seconds, tally)
        found["setup_s"] = workloads.setup_s(ROOT, args.workload, args.seed)
    if tally.attempted:
        found["runs_failed_frac"] = tally.failed / tally.attempted

    run_seeds = workloads.build(args.workload, args.seed).seeds
    print("env " + json.dumps(environment(numpy, args.seed, run_seeds)))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(PRINTED_ONLY)
    for name, value in found.items():
        print(f"metric {args.workload} {name} = {value!r} {units[name]}")

    # Metrics the workload does not exercise (such as harness.* on a library
    # workload) read 0.
    metrics = {m["name"]: {"value": float(found.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    complete = args.trace or all(m["name"] in found for m in wanted)
    correct = complete and tally.attempted > 0 and tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
