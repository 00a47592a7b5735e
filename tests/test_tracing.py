"""The package's contract with perfbench's tracer (``perfbench/tracing.py``).

``perfbench/run.py --trace 1`` wraps the package's public functions where
they are looked up and derives its per-layer figures from the spans. A
change under ``src/`` that renames, inlines or bypasses a function the
figures are built from, or that lets tracing change a result, fails here.
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import dpsea.cli  # noqa: F401  the tracer wraps every module it names
from dpsea import baselines, engine
from dpsea.baselines import CgaConfig
from dpsea.benchmarks import NoiseModel, make_function
from dpsea.engine import DpseaParams
from dpsea.stochastics import RngState

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    """``perfbench/tracing.py``, imported once; its dataclasses look their
    module up in ``sys.modules``."""
    name = "perfbench_tracing"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "tracing.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def outcome(result):
    """What a run returned, as comparable values."""
    budget = result.budget
    return (result.best_fitness, result.best_genome.tobytes(), budget.total_eval,
            budget.total_unchanged, [dataclasses.astuple(c) for c in result.trace])


def dpsea_run():
    params = DpseaParams(max_total_eval=6000)
    return engine.run(make_function("sphere"), NoiseModel(0.0, 0.0), params, RngState(3))


def cga_run():
    cfg = CgaConfig(total_eval=3000)
    return baselines.run_cga(make_function("sphere"), NoiseModel(0.0, 0.5), cfg, RngState(4))


@pytest.fixture(scope="module")
def traced():
    """Untraced and traced outcomes of both runs, and the traced metrics."""
    tracing = load_tracing()
    plain = [outcome(dpsea_run()), outcome(cga_run())]
    tracer = tracing.Tracer()
    with tracer:
        seen = [outcome(dpsea_run()), outcome(cga_run())]
    return plain, seen, tracing.layer_metrics(tracer.spans)


def test_tracing_does_not_change_results(traced):
    plain, seen, _ = traced
    assert seen == plain


def test_every_metric_is_a_declared_per_layer_name(traced):
    declared = {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]}
    metrics = traced[2]
    assert metrics
    assert set(metrics) <= declared


def test_cycles_and_pseudo_generations_are_seen(traced):
    metrics = traced[2]
    assert metrics["engine.cycles"] > 0
    assert metrics["ga.evolve_generation.pseudo.calls"] > 0
    assert metrics["engine.evolve_pseudo.calls"] == metrics["ga.evolve_generation.pseudo.calls"]
    assert metrics["baselines.run_cga.self_s"] > 0



def noisy_dpsea_run():
    params = DpseaParams(max_total_eval=9000)
    return engine.run(make_function("sphere"), NoiseModel(0.0, 1.0), params, RngState(1))


@pytest.mark.parametrize("runner", [noisy_dpsea_run, cga_run])
def test_true_fitness_only_inside_resampling(runner):
    # every charged evaluation goes through resample_many, and nothing
    # outside it computes true fitness; a DPSEA step without surrogate
    # generations re-noises its 90 offspring from known true fitness (unless
    # it is the last and its merge is over the cap)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer:
        result = runner()
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["benchmarks.evaluate_many.track.rows"] == 0
    assert metrics["stochastics.resample_many.evals"] == result.budget.total_eval
    computed = metrics["benchmarks.evaluate_many.noisy.rows"] * result.budget.rs
    if runner is noisy_dpsea_run:
        zero_generation_steps = metrics["engine.cycles"] - metrics["engine.evolve_pseudo.calls"]
        assert zero_generation_steps > 0
        renoised = (result.budget.total_eval - computed) // (90 * result.budget.rs)
        assert result.budget.total_eval - computed == 90 * renoised * result.budget.rs
        assert renoised in (zero_generation_steps, zero_generation_steps - 1)
    else:
        assert computed == result.budget.total_eval
