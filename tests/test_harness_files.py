"""The success rule, the repeat a run records, and config files and run
directories whose config.json is malformed."""

import json
import math

import pytest

from dpsea import cli
from dpsea.benchmarks import SIGMA_MAX
from dpsea.harness import ExperimentConfig, run_single, success_rate


@pytest.mark.parametrize("algo, const, total_eval", [
    ("dpsea", SIGMA_MAX, 6000),
    ("cga", 1e16, 2000),
])
def test_no_success_where_the_spacing_at_the_optimum_exceeds_epsilon(
    algo, const, total_eval
):
    # the constant absorbs the landscape: every point scores the optimum's
    # value, so best - optimum is 0 for a blind run
    cfg = ExperimentConfig(function="rastrigin1", dimension=5, rastrigin_constant=const,
                           algo=algo, total_eval=total_eval)
    optimum = const - 50.0
    assert math.ulp(optimum) > cfg.epsilon["rastrigin1"]
    rec, _ = run_single(cfg, 0.0, 1, 1)
    assert rec.best_true_fitness - optimum <= cfg.epsilon["rastrigin1"]
    assert rec.success is False
    assert success_rate([rec], 0.1, optimum) == {0.0: 0}
    # a threshold the spacing resolves counts as before
    assert success_rate([rec], math.ulp(optimum), optimum) == {0.0: 100}


def test_run_single_records_the_repeat():
    cfg = ExperimentConfig(algo="cga", total_eval=2000)
    assert run_single(cfg, 0.5, 1, 3)[0].repeat == 0
    assert run_single(cfg, 0.5, 1, 3, 4)[0].repeat == 4


def patched_run_dir(tmp_path, capsys, patch):
    """A one-run directory whose config.json is updated with ``patch``."""
    out = tmp_path / "res"
    assert cli.main(["run", "--algo", "cga", "--sigma", "0", "--rs", "1",
                     "--repeats", "1", "--seed", "1", "--total-eval", "500",
                     "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    (out / "config.json").write_text(json.dumps({**echo, **patch}))
    capsys.readouterr()
    return out


@pytest.mark.parametrize("fmt", [["csv"], {"csv": 1}])
def test_config_json_naming_an_unhashable_format_exits_1(fmt, tmp_path, capsys):
    out = patched_run_dir(tmp_path, capsys, {"format": fmt})
    assert cli.main(["summarize", "--in", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: no runs.{fmt} under {out}\n")


@pytest.mark.parametrize("patch, field", [
    ({"function": ["sphere"]}, "function"),
    ({"dimension": "5"}, "dimension"),
    ({"dimension": 5.5}, "dimension"),
    ({"rastrigin_constant": "x"}, "rastrigin_constant"),
])
def test_epsilon_with_a_malformed_recorded_function_exits_1(patch, field, tmp_path,
                                                            capsys):
    out = patched_run_dir(tmp_path, capsys, patch)
    assert cli.main(["success", "--in", str(out), "--epsilon", "1"]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: {field} must be")


@pytest.mark.parametrize("fmt", [["csv"], {"csv": 1}])
def test_config_file_naming_an_unhashable_format_exits_1(fmt, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"format": fmt}))
    out = tmp_path / "res"
    assert cli.main(["run", "--config", str(path), "--algo", "cga", "--sigma", "0",
                     "--repeats", "1", "--seed", "1", "--total-eval", "500",
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: invalid configuration: bad out {str(out)!r} or format {fmt!r}\n")
    assert not out.exists()
