"""Result distributions of two checkouts: DPSEA over function x sigma, a
rank-sum test per cell.

    python tools/quality.py --parent ../parent --change . --quick \\
        --seeds 30 --out QUALITY.json

Each side runs in a fresh Python process with that checkout's ``src``
first on ``PYTHONPATH`` (``digests.start``), the parent first, then the
change; a side runs its runs in ``DPSEA_THREADS`` worker processes
(serially when unset or 0). A cell is one function at one noise level
sigma, run at ``--seeds`` seeds: rep ``r`` at sigma ``s`` uses
``harness.derive_seed(base, SIGMA_SWEEP.index(s), 0, r)``, the seeds of a
harness sweep with base seed ``--base-seed`` (default 0) at rs = 1, so at
base 0 the sigma-0 reps 0-2 are acceptance criterion 8's runs. The budget
is the published ``TABLE_BUDGETS["dpsea"]``; ``--quick`` runs 45k
evaluations, 90k on sphere.

Per cell and side it reports the count of successes, as ``dpsea success``
counts them (``harness._success`` at ``DEFAULT_EPSILON``), and the
quartiles of best - optimum; per cell, how many seeds end at a
bit-identical gap on both sides (a cell the initial design settles shows
no change to the loop), and the change's Mann-Whitney U against the
parent with its two-sided p-value. A cell with p below 0.05
divided by the cell count is worse when U is above ``n1 * n2 / 2`` (the
change's gaps tend larger), better otherwise; both are marked, and the
tool exits 1 only if a cell is worse. ``--out`` gets every gap, the tables
and the environment (core count, Python, numpy and BLAS versions).
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from digests import case, collect, run_case, start  # noqa: E402

FUNCTIONS = ("sphere", "griewank", "rastrigin1", "rosenbrock")
SIGMAS = (0.0, 0.5, 0.9)
QUICK_BUDGETS = {"sphere": 90_000, "griewank": 45_000, "rastrigin1": 45_000,
                 "rosenbrock": 45_000}
LEVEL = 0.05


def mann_whitney(x, y):
    """Two-sided Mann-Whitney U test of ``x`` against ``y``: ``(U, p)``.

    ``U`` counts the pairs in which ``x`` is the larger, ties as half. The
    p-value is the normal approximation without continuity correction:
    tied values share their average rank and the variance is tie-corrected.
    When every value ties, p is 1.
    """
    n1, n2 = len(x), len(y)
    n = n1 + n2
    _, inverse, counts = np.unique(np.concatenate([x, y]), return_inverse=True,
                                   return_counts=True)
    ends = np.cumsum(counts)
    ranks = (ends - (counts - 1) / 2.0)[inverse]
    u = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)
    ties = float(np.sum(counts**3 - counts))
    var = n1 * n2 / 12.0 * ((n + 1) - ties / (n * (n - 1)))
    if var <= 0:
        return u, 1.0
    z = (u - n1 * n2 / 2.0) / math.sqrt(var)
    return u, math.erfc(abs(z) / math.sqrt(2.0))


def runs(functions, sigmas, seeds, quick, base_seed=0):
    """One ``digests.case`` per run, cell by cell, reps in order, each with
    its function's ``DEFAULT_EPSILON`` as ``epsilon``."""
    from dpsea import harness

    return [dict(case("dpsea", function, sigma,
                      (QUICK_BUDGETS if quick else harness.TABLE_BUDGETS["dpsea"])[function],
                      harness.derive_seed(base_seed, harness.SIGMA_SWEEP.index(sigma), 0, rep),
                      dimension=None), epsilon=harness.DEFAULT_EPSILON[function])
            for function in functions for sigma in sigmas for rep in range(seeds)]


def outcome(spec):
    """Best - optimum of one DPSEA run and whether ``harness._success``
    counts it at ``spec["epsilon"]``, from whichever ``dpsea`` is imported."""
    from dpsea import harness
    from dpsea.benchmarks import make_function, optimum

    best = run_case(spec).best_fitness
    opt = optimum(make_function(spec["function"]))[1]
    return best - opt, harness._success(best, opt, spec["epsilon"])


def worker():
    """Outcomes of the runs read as JSON from stdin, printed as JSON in order."""
    import dpsea
    from dpsea import harness

    specs = json.load(sys.stdin)
    workers = min(harness.worker_count(), len(specs))
    if workers > 0:
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            outcomes = list(pool.map(outcome, specs))
    else:
        outcomes = [outcome(s) for s in specs]
    print(json.dumps({"dpsea": dpsea.__file__, "outcomes": outcomes}))


def side_outcomes(root, specs, side):
    """The ``(gap, success)`` pairs of ``specs`` run by ``root``'s ``src``
    in a fresh process."""
    proc, src = start(root, __file__)
    return collect(proc, src, specs, side)["outcomes"]


def describe(outcomes):
    gaps = [g for g, _ in outcomes]
    q1, median, q3 = statistics.quantiles(gaps, n=4, method="inclusive")
    return {"successes": sum(ok for _, ok in outcomes), "q1": q1,
            "median": median, "q3": q3, "gaps": gaps}


def cells(specs, outcomes):
    """Per (function, sigma): each side's summary, U and p."""
    grouped = {}
    for spec, parent, change in zip(specs, outcomes["parent"], outcomes["change"]):
        key = (spec["function"], spec["sigma"])
        cell = grouped.setdefault(key, {"budget": spec["budget"], "parent": [],
                                        "change": []})
        cell["parent"].append(parent)
        cell["change"].append(change)
    out = []
    for (function, sigma), cell in grouped.items():
        parent, change = describe(cell["parent"]), describe(cell["change"])
        u, p = mann_whitney(change["gaps"], parent["gaps"])
        out.append({"function": function, "sigma": sigma, "budget": cell["budget"],
                    "parent": parent, "change": change,
                    "identical": sum(a == b for a, b in zip(parent["gaps"], change["gaps"])),
                    "u": u, "p": p})
    return out


def verdict(row, alpha):
    """``"worse"`` or ``"better"`` for a cell with p below ``alpha``, else
    ``None``; worse means the change's gaps tend larger."""
    if row["p"] >= alpha:
        return None
    n1, n2 = len(row["change"]["gaps"]), len(row["parent"]["gaps"])
    return "worse" if row["u"] > n1 * n2 / 2 else "better"


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "DPSEA_THREADS": os.environ.get("DPSEA_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def table(rows, alpha):
    lines = [f"{'function':<11}{'sigma':>6}{'budget':>8}  {'ok':>7}  "
             f"{'parent q1 / median / q3':<32}{'change q1 / median / q3':<32}"
             f"{'same':>5}{'p':>8}"]
    for r in rows:
        quart = lambda s: f"{s['q1']:.3g} / {s['median']:.3g} / {s['q3']:.3g}"
        ok = f"{r['parent']['successes']}:{r['change']['successes']}"
        flag = verdict(r, alpha)
        lines.append(f"{r['function']:<11}{r['sigma']:>6}{r['budget']:>8}  {ok:>7}  "
                     f"{quart(r['parent']):<32}{quart(r['change']):<32}"
                     f"{r['identical']:>5}{r['p']:>8.3f}" + (f"  {flag}" if flag else ""))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--seeds", type=int, default=30)
    parser.add_argument("--base-seed", type=int, default=0)
    parser.add_argument("--functions", default=",".join(FUNCTIONS))
    parser.add_argument("--sigmas", default=",".join(map(str, SIGMAS)))
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker()
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    # budgets, seeds and success thresholds come from the change's harness
    sys.path.insert(0, str(args.change.resolve() / "src"))
    from dpsea import harness

    functions = args.functions.split(",")
    sigmas = [float(s) for s in args.sigmas.split(",")]
    if args.seeds < 2 or not set(functions) <= set(FUNCTIONS) or not set(
            sigmas) <= set(harness.SIGMA_SWEEP):
        parser.error("need --seeds >= 2, known --functions and --sigmas "
                     f"from {harness.SIGMA_SWEEP}")
    specs = runs(functions, sigmas, args.seeds, args.quick, args.base_seed)
    outcomes = {side: side_outcomes(root, specs, side)
                for side, root in (("parent", args.parent), ("change", args.change))}
    rows = cells(specs, outcomes)
    alpha = LEVEL / len(rows)
    verdicts = [verdict(r, alpha) for r in rows]
    print(table(rows, alpha))
    print(f"{verdicts.count('worse')} of {len(rows)} cells worse and "
          f"{verdicts.count('better')} better with p < {alpha:.3g} (ok: parent:change "
          f"successes at DEFAULT_EPSILON; same: seeds with an "
          f"identical gap)")
    if args.out:
        args.out.write_text(json.dumps(
            {"env": environment(), "seeds": args.seeds, "base_seed": args.base_seed,
             "quick": args.quick,
             "alpha": alpha, "cells": rows}, indent=1) + "\n", encoding="utf-8")
    return 1 if "worse" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
