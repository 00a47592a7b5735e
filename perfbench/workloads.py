"""The benchmark's workloads: inputs built from the workload seed, timed
runs with tracing off, one traced run, and the checks on every output.

Library workloads call ``dpsea.run`` serially in this process.
``sweep-cli`` calls ``cli.main`` (the ``dpsea run`` command) serially in
this process, once per algorithm; its traced run also runs the command in a
subprocess with ``DPSEA_THREADS=2``. The benchmark sets no BLAS or OpenMP
thread variable: the program's own thread policy is what is measured.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import dpsea
from dpsea import cli, harness

import tracing

# function, noise sigma, budget per run, seeds in one pass. sphere runs at
# its published budget. One rastrigin1 run at the published 450k takes
# 30-38 s on a 2-core box: a benchmark run could hold one, timed across
# several swings of the host's speed. 45k runs (about 3.5 s) are used
# instead, so that a median of several runs, each calibrated, is reported.
LIBRARY = {
    "sphere-5d": ("sphere", 1.0, 90_000, 3),
    "rastrigin1-50d": ("rastrigin1", 0.5, 45_000, 3),
}

# 4 cells per invocation. The cga cells get 5x the dpsea budget so that the
# baseline's generations carry a visible share of the sweep's time; at equal
# budgets cga would be about 5 % of it. Timed runs are serial and in this
# process, next to the calibration kernel: with 2 pool workers the dpsea
# invocation took 1 s or 12 s for identical cells (default OpenBLAS threads
# in both workers on 2 cores), too unsteady for a bound, so the pool is
# measured in the traced run (harness.*) instead.
SWEEP_FUNCTION = "griewank"
SWEEP_BUDGETS = {"dpsea": 10_000, "cga": 50_000}
SWEEP_WORKERS = "2"
SWEEP_CELLS = 4

WORKLOADS = (*LIBRARY, "sweep-cli")

# Hard stop for one CLI invocation, well inside the run's 180 s limit.
CLI_TIMEOUT_S = 120

# Iterations of the calibration kernel: 0.1-0.25 s. Identical runs of
# dpsea took from 1x to 1.7x their fastest time within a minute on a shared
# 2-core box, and the kernel slowed with them. Dividing a time by the
# kernel's time beside it cancels most of that swing: over 10 s windows of
# 9k sphere runs, the spread of the median run time was 50 %, of the ratio
# 3 %; for 9k rastrigin1 runs (BLAS on both cores), 19 % and 7 %.
CAL_ITERATIONS = 1000


def derive_seed(seed, label):
    """63-bit run seed from the workload seed and a label."""
    digest = hashlib.blake2b(f"perfbench/{seed}/{label}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") >> 1


@dataclass(frozen=True)
class LibraryInputs:
    fn: dpsea.BenchmarkFunction
    noise: dpsea.NoiseModel
    params: dpsea.DpseaParams
    seeds: tuple


@dataclass(frozen=True)
class SweepInputs:
    fn: dpsea.BenchmarkFunction
    argv: dict  # algo -> `dpsea` command-line arguments without --out
    seeds: tuple  # the --seed given to both invocations


def build(name, seed):
    """The workload's inputs; the program receives nothing else."""
    if name in LIBRARY:
        function, sigma, budget, n_seeds = LIBRARY[name]
        return LibraryInputs(
            dpsea.make_function(function),
            dpsea.NoiseModel(0.0, sigma),
            dpsea.DpseaParams(rs_merge=1, max_total_eval=budget),
            tuple(derive_seed(seed, f"{name}/{i}") for i in range(n_seeds)),
        )
    if name == "sweep-cli":
        base = derive_seed(seed, name)
        argv = {
            algo: ["run", "--algo", algo, "--function", SWEEP_FUNCTION,
                   "--sigma", "0.0,0.5", "--rs", "1,5", "--repeats", "1",
                   "--seed", str(base), "--total-eval", str(budget)]
            for algo, budget in SWEEP_BUDGETS.items()
        }
        return SweepInputs(dpsea.make_function(SWEEP_FUNCTION), argv, (base,))
    raise ValueError(f"unknown workload {name!r}")


class Tally:
    """Runs or cells attempted and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {what}: {'; '.join(problems)}", file=sys.stderr)

    def crashed(self, what, count=1):
        self.attempted += count
        self.failed += count
        print(f"check failed: {what} raised", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _gap_problems(fn, best, total_eval, cap):
    problems = []
    if total_eval > cap:
        problems.append(f"total_eval {total_eval} > cap {cap}")
    opt = dpsea.optimum(fn)[1]
    if not math.isfinite(best) or best < opt:
        problems.append(f"best_fitness {best!r} not finite or below optimum {opt!r}")
    return problems


# ------------------------------------------------------------ calibration


@dataclass
class _Member:
    genome: float
    fitness: float
    sampled: bool = False


def calibrate():
    """(wall s, cpu s) of a fixed kernel shaped like the optimizer's work:
    numpy on small arrays, and dataclass churn with sorting and copying. It
    makes no BLAS call and runs no dpsea code, so no change to the program
    can change it. Its CPU time is this thread's: idle OpenBLAS threads may
    still spin."""
    rows = [np.linspace(-1.0, 1.0, 5) * (i + 1) for i in range(100)]
    pop = [_Member(float(i), float(i * 7919 % 100)) for i in range(100)]
    wall, cpu = time.perf_counter(), time.thread_time()
    for _ in range(CAL_ITERATIONS):
        a = np.stack(rows)
        order = np.argsort(a[:, 0], kind="stable")
        np.clip(a[order] * 0.5, -1.0, 1.0).sum()
        rows = [a[i] for i in range(len(rows))]
        ranked = sorted(range(len(pop)), key=lambda i: (pop[i].fitness, i))
        pop = [dataclasses.replace(pop[i], sampled=True) for i in ranked[:10]] + [
            _Member(m.genome * 0.5 + 1.0, min(m.fitness * 1.01, 1e9)) for m in pop[10:]]
    return time.perf_counter() - wall, time.thread_time() - cpu


@dataclass(frozen=True)
class Unit:
    """Measured work: seconds, and the same in calibration units, which
    divide by the mean of the kernel's times just before and just after."""

    wall: float
    cpu: float
    evals: int
    wall_cal: float
    cpu_cal: float

    def __add__(self, other):
        return Unit(*(a + b for a, b in zip(dataclasses.astuple(self),
                                            dataclasses.astuple(other))))


class Clock:
    """Runs the calibration kernel between measured units of work."""

    def __init__(self):
        self.kernel = [calibrate()]

    def unit(self, wall, cpu, evals):
        """The work that just ended, with the kernel's time beside it."""
        self.kernel.append(calibrate())
        (w0, c0), (w1, c1) = self.kernel[-2:]
        return Unit(wall, cpu, evals, 2 * wall / (w0 + w1), 2 * cpu / (c0 + c1))

    def summary(self, units):
        """End-to-end metrics over the units, in calibration units; raw
        seconds beside them."""
        med = statistics.median
        return {
            "run_cal": med(u.wall_cal for u in units),
            "cpu_cal": med(u.cpu_cal for u in units),
            "evals_per_cal": med(u.evals / u.wall_cal for u in units),
            "run_s": med(u.wall for u in units),
            "cpu_s": med(u.cpu for u in units),
            "evals_per_s": med(u.evals / u.wall for u in units),
            "cal_s": med(w for w, _ in self.kernel),
        }


# ---------------------------------------------------------------- library


def _library_run(inputs, seed, tally, seen, tracer=contextlib.nullcontext()):
    """One dpsea.run; returns (wall s, cpu s, result), or None if it raised."""
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        with tracer:
            result = dpsea.run(inputs.fn, inputs.noise, inputs.params,
                               dpsea.RngState(seed))
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        best, total = result.best_fitness, result.budget.total_eval
        problems = _gap_problems(inputs.fn, best, total, inputs.params.max_total_eval)
        if best != dpsea.evaluate(inputs.fn, result.best_genome):
            problems.append("best_fitness differs from evaluate(best_genome)")
        if seen.setdefault(seed, (best, total)) != (best, total):
            problems.append(f"seed {seed} repeated with {(best, total)}, "
                            f"first gave {seen[seed]}")
    except Exception:
        tally.crashed(f"dpsea.run seed {seed}")
        return None
    tally.record(f"dpsea.run seed {seed}", problems)
    return wall, cpu, result


def _library_measure(inputs, seconds, tally):
    """One pass over the seeds, then more passes while time remains."""
    seen, units, gaps = {}, [], []
    opt = dpsea.optimum(inputs.fn)[1]
    clock = Clock()
    start = time.perf_counter()
    i = 0
    while True:
        out = _library_run(inputs, inputs.seeds[i % len(inputs.seeds)], tally, seen)
        i += 1
        if out is None:
            return {}
        wall, cpu, result = out
        units.append(clock.unit(wall, cpu, result.budget.total_eval))
        gaps.append(result.best_fitness - opt)
        if i >= len(inputs.seeds) and time.perf_counter() - start + wall > seconds:
            break
    m = clock.summary(units)
    m["best_gap_median"] = statistics.median(gaps)
    return m


def _library_trace(inputs, tally, spans_path):
    """The first seed untraced, then traced; tracing must not change it."""
    seed, seen = inputs.seeds[0], {}
    tracer = tracing.Tracer()
    clock = Clock()
    plain = _library_run(inputs, seed, tally, seen)
    plain_cal = clock.unit(plain[0], 0.0, 0).wall_cal if plain else None
    traced = _library_run(inputs, seed, tally, seen, tracer)
    traced_cal = clock.unit(traced[0], 0.0, 0).wall_cal if traced else None
    tracer.write(spans_path)
    if not (plain and traced):
        return {}
    m = tracing.layer_metrics(tracer.spans)
    m["trace.overhead_frac"] = traced_cal / plain_cal - 1.0
    m["trace.cal_s"] = statistics.median(w for w, _ in clock.kernel)
    m["search.best_gap_median"] = traced[2].best_fitness - dpsea.optimum(inputs.fn)[1]
    return m


# ------------------------------------------------------------------ sweep


def run_child(cmd, timeout_s, **popen_args):
    """Run ``cmd`` in a session of its own and wait for it; returns its wall
    seconds. A timer kills the whole session at ``timeout_s``, so the wait
    can block: a wait with a timeout polls, which rounds the time measured
    up by as much as 50 ms."""
    wall = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True, **popen_args)
    watchdog = threading.Timer(timeout_s, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, err = proc.communicate()
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - wall
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:4]} exited {proc.returncode}: {err.decode()[-500:]}")
    return wall


def _cli_pool(root, argv, out_dir):
    """`dpsea run` in a subprocess with 2 pool workers; returns (wall s,
    cpu s, records). The CPU time is not measured and reads 0."""
    env = dict(os.environ, DPSEA_THREADS=SWEEP_WORKERS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "dpsea.cli", *argv, "--out", str(out_dir)]
    wall = run_child(cmd, CLI_TIMEOUT_S, cwd=root, env=env)
    return wall, 0.0, harness.parse_runs_csv(out_dir / "runs.csv")


def _cli_serial(argv, out_dir, tracer=contextlib.nullcontext()):
    """`dpsea run` through cli.main in this process, with DPSEA_THREADS
    hidden so the cells run serially; returns (wall s, cpu s, records)."""
    saved = os.environ.pop("DPSEA_THREADS", None)
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", str(out_dir)])
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if saved is not None:
            os.environ["DPSEA_THREADS"] = saved
    if code != 0:
        raise RuntimeError(f"cli.main exited {code}")
    return wall, cpu, harness.parse_runs_csv(out_dir / "runs.csv")


def _without_wall(records):
    return [dataclasses.replace(r, wall_ms=0.0) for r in records]


def _check_cells(inputs, algo, records, tally, reference=None):
    """Per-cell checks; ``reference`` is the records the cells must repeat
    apart from wall_ms."""
    cap = SWEEP_BUDGETS[algo]
    if len(records) != SWEEP_CELLS:
        tally.attempted += SWEEP_CELLS
        tally.failed += SWEEP_CELLS
        print(f"check failed: {algo} wrote {len(records)} cells", file=sys.stderr)
        return
    same = reference is None or _without_wall(records) == _without_wall(reference)
    for r in records:
        problems = _gap_problems(inputs.fn, r.best_true_fitness, r.total_eval, cap)
        if not same:
            problems.append("records differ from the first invocation apart from wall_ms")
        tally.record(f"{algo} cell sigma={r.sigma} rs={r.rs}", problems)


def _sweep_pair(inputs, out_dir, tally, first, clock, invoke=_cli_serial):
    """Both invocations through ``invoke``; returns (Unit by algo, records
    by algo) or None. ``first`` maps algo to the records to repeat."""
    units, records = {}, {}
    for algo, argv in inputs.argv.items():
        try:
            wall, cpu, recs = invoke(argv, out_dir / algo)
        except Exception:
            tally.crashed(f"dpsea run --algo {algo}", SWEEP_CELLS)
            return None
        units[algo] = clock.unit(wall, cpu, sum(r.total_eval for r in recs))
        _check_cells(inputs, algo, recs, tally, first.get(algo))
        first.setdefault(algo, recs)
        records[algo] = recs
    return units, records


def _median_unit(units):
    columns = zip(*(dataclasses.astuple(u) for u in units))
    return Unit(*(statistics.median(c) for c in columns))


def _sweep_measure(inputs, seconds, tally, work_dir):
    """Pairs of invocations while time remains. The unit reported is the sum
    over the two algorithms of each one's median invocation."""
    first, reps = {}, []
    clock = Clock()
    start = time.perf_counter()
    while True:
        out = _sweep_pair(inputs, work_dir / f"rep{len(reps)}", tally, first, clock)
        if out is None:
            return {}
        reps.append(out[0])
        if time.perf_counter() - start + sum(u.wall for u in out[0].values()) > seconds:
            break
    medians = [_median_unit([rep[algo] for rep in reps]) for algo in inputs.argv]
    m = clock.summary([sum(medians[1:], medians[0])])
    opt = dpsea.optimum(inputs.fn)[1]
    m["best_gap_median"] = statistics.median(
        r.best_true_fitness - opt for recs in first.values() for r in recs)
    return m


def _sweep_trace(root, inputs, tally, work_dir, spans_path):
    """The pair of invocations in this process untraced, then traced, then
    by the CLI with 2 pool workers; all must give the same records apart
    from wall_ms."""
    serial = {}
    tracer = tracing.Tracer()
    clock = Clock()
    runs = [
        _sweep_pair(inputs, work_dir / "plain", tally, serial, clock),
        _sweep_pair(inputs, work_dir / "traced", tally, serial, clock,
                    functools.partial(_cli_serial, tracer=tracer)),
        _sweep_pair(inputs, work_dir / "pool", tally, serial, clock,
                    functools.partial(_cli_pool, root)),
    ]
    tracer.write(spans_path)
    if None in runs:
        return {}
    (plain, _), (traced, _), (pool, pool_records) = runs

    def cell_s(records):
        return [r.wall_ms / 1e3 for recs in records.values() for r in recs]

    def wall_cal(units):
        return sum(u.wall_cal for u in units.values())

    m = tracing.layer_metrics(tracer.spans)
    m["harness.cell_s_median"] = statistics.median(cell_s(pool_records))
    m["harness.cell_s_sum"] = sum(cell_s(pool_records))
    m["harness.cell_inflation"] = sum(cell_s(pool_records)) / sum(cell_s(serial))
    m["harness.parallel_speedup"] = sum(cell_s(serial)) / sum(u.wall for u in pool.values())
    m["trace.overhead_frac"] = wall_cal(traced) / wall_cal(plain) - 1.0
    m["trace.cal_s"] = statistics.median(w for w, _ in clock.kernel)
    opt = dpsea.optimum(inputs.fn)[1]
    m["search.best_gap_median"] = statistics.median(
        r.best_true_fitness - opt for recs in serial.values() for r in recs)
    return m


# ------------------------------------------------------------------- entry


SETUP_REPEATS = 9
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]))"
)


def setup_s(root, name, seed):
    """Median wall time of a fresh interpreter importing dpsea and building
    the workload's inputs."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(root / "src"),
           str(Path(__file__).resolve().parent), name, str(seed)]
    return statistics.median(
        run_child(cmd, 60, cwd=root) for _ in range(SETUP_REPEATS))


def measure(root, name, seed, seconds, tally):
    """End-to-end metrics with tracing off, except setup_s."""
    inputs = build(name, seed)
    if name in LIBRARY:
        return _library_measure(inputs, seconds, tally)
    with _work_dir(root) as work_dir:
        return _sweep_measure(inputs, seconds, tally, work_dir)


def trace(root, name, seed, tally):
    """Per-layer metrics from one traced execution of the workload."""
    inputs = build(name, seed)
    spans_path = root / ".bench_out" / f"{name}.spans.tsv"
    spans_path.parent.mkdir(exist_ok=True)
    if name in LIBRARY:
        return _library_trace(inputs, tally, spans_path)
    with _work_dir(root) as work_dir:
        return _sweep_trace(root, inputs, tally, work_dir, spans_path)


@contextlib.contextmanager
def _work_dir(root):
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        yield Path(tmp)
