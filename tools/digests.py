"""Bit-identity check of two checkouts: fixed-seed run digests, case by case.

    python tools/digests.py --parent ../parent --change . [--quick]

Runs every case in a fresh Python process per checkout, with that
checkout's ``src`` first on ``PYTHONPATH`` (the two sides run side by side).
A run case's digest is the SHA-256 of its ``best_fitness``, ``best_genome``,
``total_eval``, ``total_unchanged`` and full trace, floats taken exactly. A
run-directory case calls ``cli.main(["run", ...])`` and digests the files
it writes: the runs file without ``wall_ms``, the summary file and the bytes
of config.json. Prints one line per case that differs and a count, and
exits 1 if any case differs.

``--quick`` (a few seconds per side) runs 20 DPSEA cases: the defaults on
5-D versions of the four functions at sigma 0, 0.5 and 1, one case per
function at rs = 5 whose budget does not fit the initial design (the
functions' own dimensions, 10k evaluations, 2.9k on sphere), one 50-D
rastrigin1 run at 6k whose budget fits it (a 4180 x 101 fit), one 5-D
sphere run at sigma 1, rs = 3 and 9k whose steps without surrogate
generations re-noise known true fitness, and two 5-D sphere runs at 2k
whose populations of 6 and 3 fit linear and constant step models. It adds
small cGA, DE and PSO runs, and four run directories: ``dpsea run`` of
DPSEA and cGA on 5-D griewank over sigma 0, 0.5 x rs 1, 5, in csv and in
json. The full mode adds the 20 noiseless sphere 90k runs
of acceptance criterion 1 and the 30 sigma-1 sphere 90k runs of criterion
2, where estimates near 1e-20 decide orderings; it took 75 s on a 2-core
box.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# budgets at rs = 5 that the initial design does not fit in, at each
# function's own dimension
DESIGN_SKIPPED_BUDGETS = {"sphere": 2_900, "griewank": 10_000, "rastrigin1": 10_000,
                          "rosenbrock": 10_000}
FUNCTIONS = ("sphere", "griewank", "rastrigin1", "rosenbrock")
SIGMAS = (0.0, 0.5, 1.0)


def case(algo, function, sigma, budget, seed, *, dimension=5, rs=1, tag="default",
         params=None):
    """One run; ``dimension=None`` is the function's own, and ``params`` is
    the algo's block of ``ExperimentConfig.params``."""
    dim = f"{dimension}d" if dimension else "owndim"
    name = f"{algo}-{function}-{dim}-sigma{sigma}-rs{rs}-{tag}-seed{seed}"
    return {"name": name, "algo": algo, "function": function,
            "dimension": dimension, "sigma": sigma, "rs": rs, "budget": budget,
            "seed": seed, "params": params or {}}


def run_dir_case(algo, fmt):
    """One ``dpsea run`` on 5-D griewank (the dimension comes from a config
    file), written in format ``fmt``."""
    argv = ["run", "--algo", algo, "--function", "griewank", "--sigma", "0,0.5",
            "--rs", "1,5", "--repeats", "2", "--seed", "7", "--total-eval", "6000",
            "--format", fmt]
    return {"name": f"rundir-{algo}-griewank-5d-{fmt}", "argv": argv, "format": fmt}


def cases(full):
    """Every case of the chosen mode, in a fixed order."""
    out = [case("dpsea", function, sigma, 6000, 8 + 3 * j + i)
           for j, function in enumerate(FUNCTIONS) for i, sigma in enumerate(SIGMAS)]
    out += [case("dpsea", function, 0.5, budget, 50 + j, dimension=None, rs=5,
                 tag="skipdesign")
            for j, (function, budget) in enumerate(DESIGN_SKIPPED_BUDGETS.items())]
    out.append(case("dpsea", "rastrigin1", 0.5, 6000, 60, dimension=None, tag="design"))
    out.append(case("dpsea", "sphere", 1.0, 9000, 70, rs=3, tag="reuse"))
    # populations of 6 and 3 fit linear and constant step models
    out += [case("dpsea", "sphere", 0.5, 2000, 11, tag=kind,
                 params={"pop_size": pop_size, "n_elites": 1})
            for kind, pop_size in (("linear", 6), ("constant", 3))]
    out += [
        case("cga", "griewank", 0.5, 5000, 1),
        case("cga", "sphere", 1.0, 5000, 2, rs=3),
        case("de", "rastrigin1", 0.5, 5000, 3),
        case("pso", "rosenbrock", 0.5, 5000, 4),
    ]
    out += [run_dir_case(algo, fmt) for algo in ("dpsea", "cga") for fmt in ("csv", "json")]
    if full:
        out += [case("dpsea", "sphere", 0.0, 90_000, s, tag="criterion1")
                for s in range(20)]
        out += [case("dpsea", "sphere", 1.0, 90_000, s, tag="criterion2")
                for s in range(30)]
    return out


def run_case(c):
    """The ``RunResult`` of one case, from whichever ``dpsea`` is imported:
    one cell of a ``harness`` sweep."""
    from dpsea import harness

    cfg = harness.ExperimentConfig(
        function=c["function"], dimension=c["dimension"], sigmas=(c["sigma"],),
        algo=c["algo"], rs_list=(c["rs"],), repeats=1, total_eval=c["budget"],
        params={c["algo"]: c["params"]})
    return harness.run_single(cfg, c["sigma"], c["rs"], c["seed"])[1]


def _exact(value):
    return float(value).hex() if isinstance(value, float) else value


def digest(res):
    """SHA-256 of a result's best, budget counters and trace, floats exact.

    Each trace row is hashed field by field, whatever fields the imported
    ``CycleRecord`` has."""
    trace = [tuple(map(_exact, dataclasses.astuple(r))) for r in res.trace]
    best_genome = [float(x).hex() for x in res.best_genome]
    record = (float(res.best_fitness).hex(), best_genome,
              int(res.budget.total_eval), int(res.budget.total_unchanged), trace)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def run_dir_digest(c):
    """SHA-256 of the files ``dpsea run`` writes for a run-directory case:
    the runs file without ``wall_ms``, the summary file and config.json."""
    from dpsea import cli

    fmt = c["format"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config, out = tmp / "config-in.json", tmp / "out"
        config.write_text(json.dumps({"dimension": 5}))
        with contextlib.redirect_stdout(io.StringIO()):  # the paths written
            code = cli.main([*c["argv"], "--config", str(config), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{c['name']}: dpsea run exited {code}")
        runs = (out / f"runs.{fmt}").read_text()
        if fmt == "csv":  # wall_ms is the last column
            runs = [line.rsplit(",", 1)[0] for line in runs.splitlines()]
        else:
            runs = [{k: v for k, v in row.items() if k != "wall_ms"}
                    for row in json.loads(runs)]
        record = (runs, (out / f"summary.{fmt}").read_text(),
                  (out / "config.json").read_bytes())
    return hashlib.sha256(repr(record).encode()).hexdigest()


def case_digest(c):
    return run_dir_digest(c) if "argv" in c else digest(run_case(c))


def worker():
    """Digest the cases read as JSON from stdin; print ``{name: digest}``."""
    import dpsea

    out = {"dpsea": dpsea.__file__}
    out.update((c["name"], case_digest(c)) for c in json.load(sys.stdin))
    print(json.dumps(out))


def start(root, script=__file__):
    """A fresh ``script --worker`` process that imports ``dpsea`` from
    ``root``'s src."""
    env = dict(os.environ)
    src = str(Path(root).resolve() / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, str(Path(script).resolve()), "--worker"],
        cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    return proc, src


def collect(proc, src, selected, side):
    """Feed ``selected`` to a ``start``ed worker as JSON; return its JSON
    object without the ``dpsea`` path it checks."""
    out, err = proc.communicate(json.dumps(selected))
    if proc.returncode != 0:
        raise RuntimeError(f"{side} worker exited {proc.returncode}:\n{err}")
    digests = json.loads(out)
    imported = Path(digests.pop("dpsea")).resolve()
    if not imported.is_relative_to(src):
        raise RuntimeError(f"{side} worker imported {imported}, not {src}")
    return digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker()
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    selected = cases(full=not args.quick)
    sides = {side: start(root)
             for side, root in (("parent", args.parent), ("change", args.change))}
    got = {side: collect(proc, src, selected, side)
           for side, (proc, src) in sides.items()}
    differ = [c["name"] for c in selected
              if got["parent"][c["name"]] != got["change"][c["name"]]]
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(selected) - len(differ)} of {len(selected)} cases identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
