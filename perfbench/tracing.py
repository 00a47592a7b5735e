"""Outside-in span tracing of the dpsea package, and the per-layer figures
derived from the spans.

``Tracer`` replaces every public function of the traced modules with a
wrapper that records a span. The wrapper is put at every place the function
is looked up: its own module, and every dpsea module (or the package) that
imported it by name, such as ``engine.evolve_generation``,
``baselines.resample_many`` or ``dpsea.run``. Nothing inside ``src/``
changes. Spans stay in memory as tuples until the traced call has returned.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from dataclasses import dataclass, field

MODULES = ("engine", "ga", "regression", "stochastics", "benchmarks",
           "harness", "baselines", "cli")

# Called once per cluster member per surrogate generation (about 5e5 times
# in one sphere 90k run). A wrapper would cost about as much as the call, so
# its time stays in the self time of engine.evolve_pseudo.
UNTRACED = {"engine.adaptive_mutation_rate"}

# What a span counts, from the call's bound arguments and its result.
WORK = {
    "benchmarks.evaluate_many": lambda arg, out: len(out),
    "stochastics.resample_many": lambda arg, out: len(out) * arg("rs"),
    "regression.fit": lambda arg, out: (len(arg("xs")), out.kind.value == "diag_quadratic"),
    "regression.predict_many": lambda arg, out: len(out),
    "ga.evolve_generation": lambda arg, out: arg("params").pop_size - arg("params").n_elites,
    "engine.run": lambda arg, out: out,
    "baselines.run_cga": lambda arg, out: out,
}

# Self times listed as per-layer metrics; trace.self_sum_frac is their share
# of the traced wall time.
SELF_TIMES = (
    "engine.run", "engine.evolve_pseudo", "engine.self_organize",
    "engine.assess_eligibility", "engine.merge_and_resample",
    "ga.evolve_generation.main", "ga.evolve_generation.pseudo",
    "regression.fit", "regression.predict_many", "stochastics.resample_many",
    "benchmarks.evaluate_many.noisy", "benchmarks.evaluate_many.track",
    "baselines.run_cga",
)


class Tracer:
    """Records (name, parent index, start ns, end ns, work) per call."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def __enter__(self):
        package = sys.modules["dpsea"]
        wrappers = {}
        for short in MODULES:
            module = sys.modules[f"dpsea.{short}"]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[obj] = self._wrap(name, obj)
        sites = [package] + [sys.modules[n] for n in list(sys.modules)
                             if n.startswith("dpsea.")]
        for module in sites:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, parent, start, end, None)
            if work is not None:
                def arg(key):
                    return signature.bind(*args, **kwargs).arguments[key]
                spans[index] = (name, parent, start, end, work(arg, out))
            return out

        return traced

    def write(self, path):
        """Write the spans as tab-separated lines: name, parent, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, start, end, _ in self.spans:
                fh.write(f"{name}\t{parent}\t{start}\t{end}\n")


@dataclass
class _Layer:
    self_ns: int = 0
    calls: int = 0
    work: list = field(default_factory=list)


def _label(name, parent_name):
    """Split evaluation and generation spans by the span that caused them."""
    if name == "benchmarks.evaluate_many":
        noisy = parent_name == "stochastics.resample_many"
        return name + (".noisy" if noisy else ".track")
    if name == "ga.evolve_generation":
        pseudo = parent_name == "engine.evolve_pseudo"
        return name + (".pseudo" if pseudo else ".main")
    return name


def layer_metrics(spans):
    """Per-layer metrics from the spans of one traced call (or several)."""
    child_ns = [0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layers = {}
    merge_evals = 0
    for i, (name, parent, start, end, work) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        layer = layers.setdefault(_label(name, parent_name), _Layer())
        layer.self_ns += end - start - child_ns[i]
        layer.calls += 1
        layer.work.append(work)
        if name == "stochastics.resample_many" and parent_name == "engine.merge_and_resample":
            merge_evals += work
    root_ns = sum(end - start for _, parent, start, end, _ in spans if parent < 0)

    def get(label):
        return layers.get(label, _Layer())

    m = {f"{label}.self_s": get(label).self_ns / 1e9 for label in SELF_TIMES}
    m["trace.self_sum_frac"] = sum(m.values()) * 1e9 / root_ns if root_ns else 0.0
    for label in ("engine.evolve_pseudo", "engine.self_organize",
                  "ga.evolve_generation.main", "ga.evolve_generation.pseudo",
                  "regression.fit"):
        m[f"{label}.calls"] = get(label).calls
    m["engine.merge_and_resample.evals"] = merge_evals
    m["ga.offspring"] = sum(get("ga.evolve_generation.main").work
                            + get("ga.evolve_generation.pseudo").work)
    fits = get("regression.fit").work
    m["regression.fit.rows_mean"] = statistics.fmean(r for r, _ in fits) if fits else 0.0
    m["regression.fit.quadratic_frac"] = (
        sum(q for _, q in fits) / len(fits) if fits else 0.0)
    m["regression.predict_many.rows"] = sum(get("regression.predict_many").work)
    m["stochastics.resample_many.evals"] = sum(get("stochastics.resample_many").work)
    for label in ("benchmarks.evaluate_many.noisy", "benchmarks.evaluate_many.track"):
        m[f"{label}.rows"] = sum(get(label).work)

    results = get("engine.run").work
    cycles = [c for r in results for c in r.trace]
    m["engine.cycles"] = len(cycles)
    m["engine.clusters_mean"] = (
        statistics.fmean(c.n_clusters for c in cycles) if cycles else 0.0)
    m["engine.eligible_mean"] = (
        statistics.fmean(c.n_eligible for c in cycles) if cycles else 0.0)
    budgets = [r.budget for r in results + get("baselines.run_cga").work]
    charged = sum(b.total_eval for b in budgets)
    skipped = sum(b.total_unchanged for b in budgets)
    m["stochastics.evals_skipped"] = skipped
    m["stochastics.eval_useful_frac"] = (
        charged / (charged + skipped) if charged + skipped else 0.0)
    return m
