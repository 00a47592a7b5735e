import json
import math
import os
from dataclasses import asdict

import numpy as np
import pytest

from dpsea import cli, harness
from dpsea.benchmarks import SIGMA_MAX
from dpsea.ga import GaParams
from dpsea.harness import (
    ConfigError,
    ExperimentConfig,
    RunRecord,
    derive_seed,
    emit,
    parse_runs_csv,
    run_experiment,
    run_single,
    success_rate,
    summarize,
)


def tiny_config(**kwargs):
    base = dict(
        function="sphere",
        sigmas=(0.0, 0.5),
        algo="cga",
        rs_list=(1,),
        repeats=2,
        base_seed=7,
        total_eval=2_000,
        params={"cga": {"pop_size": 20, "n_elites": 2}},
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


def record(**kwargs):
    base = dict(
        function="sphere",
        dimension=5,
        noisy=True,
        sigma=0.5,
        algo="dpsea",
        rs=1,
        repeat=0,
        seed=42,
        best_true_fitness=0.125,
        total_eval=90_000,
        success=True,
        wall_ms=1234.5,
    )
    base.update(kwargs)
    return RunRecord(**base)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"function": "nope"},
            {"algo": "annealing"},
            {"repeats": 0},
            {"sigmas": ()},
            {"rs_list": ()},
            {"sigmas": (-0.1,)},
            {"rs_list": (0,)},
            {"sigmas": "abc"},
            {"total_eval": 0},
            {"dimension": 0},
            {"epsilon": {"nope": 1.0}},
            {"params": {"regression": {"lambda": 1e-4}}},
            {"params": {"de": {"pop_size": 3}}},
            {"params": {"dpsea": {"pop_size": "20"}}},
            # budgets below pop_size * rs at some rs of the sweep
            {"rs_list": (1, 101)},
            {"algo": "dpsea", "total_eval": 50, "params": {}},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_config(**kwargs)


class TestBuildParams:
    def test_ga_keys_go_into_ga_and_sweep_fields_are_set(self):
        params = harness.build_params(
            "dpsea", {"pop_size": 40, "n_elites": 4, "t_switch": 3,
                      "regression_lambda": 1e-4}, rs=5, total_eval=7_000)
        assert params.ga == GaParams(pop_size=40, n_elites=4)
        assert (params.t_switch, params.regression_lambda) == (3, 1e-4)
        assert (params.rs_merge, params.max_total_eval) == (5, 7_000)
        de = harness.build_params("de", {"pop_size": 8}, rs=2, total_eval=900)
        assert (de.pop_size, de.rs, de.total_eval) == (8, 2, 900)

    def test_accepted_keys(self):
        ga = {"pop_size", "p_c", "p_m", "n_elites", "sigma_m"}
        expected = {
            "dpsea": ga | {"t_switch", "regression_lambda"},
            "cga": ga,
            "de": {"pop_size", "cf", "f_scale"},
            "pso": {"pop_size", "w_start", "w_end", "phi_min", "phi_max"},
        }
        for algo, keys in expected.items():
            own, ga_keys = harness._block_keys(algo)
            assert set(own) | set(ga_keys) == keys

    @pytest.mark.parametrize("algo", harness.ALGOS)
    def test_sweep_fields_are_not_block_keys(self, algo):
        spec = harness.REGISTRY[algo]
        for key in ("ga", spec.rs, spec.budget):
            with pytest.raises(ConfigError, match=repr(key)):
                harness.build_params(algo, {key: 1})

    def test_post_init_errors_become_config_errors(self):
        with pytest.raises(ConfigError, match="dpsea block: t_switch"):
            harness.build_params("dpsea", {"t_switch": 0})


class TestSeeds:
    def test_derive_seed_stable(self):
        assert derive_seed(1, 2, 3, 4) == derive_seed(1, 2, 3, 4)

    def test_derive_seed_distinct_across_cells(self):
        seeds = {
            derive_seed(9, si, ri, rep)
            for si in range(8)
            for ri in range(5)
            for rep in range(10)
        }
        assert len(seeds) == 8 * 5 * 10

    def test_base_seed_changes_everything(self):
        assert derive_seed(1, 0, 0, 0) != derive_seed(2, 0, 0, 0)


class TestRunExperiment:
    def test_record_count_and_sweep_order(self):
        cfg = tiny_config()
        records = run_experiment(cfg)
        assert len(records) == 2 * 1 * 2  # sigmas * rs * repeats
        got = [(r.sigma, r.rs, r.repeat) for r in records]
        assert got == [(0.0, 1, 0), (0.0, 1, 1), (0.5, 1, 0), (0.5, 1, 1)]

    def test_deterministic_apart_from_wall_time(self):
        cfg = tiny_config()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        for ra, rb in zip(a, b):
            da, db = vars(ra).copy(), vars(rb).copy()
            da.pop("wall_ms")
            db.pop("wall_ms")
            assert da == db

    @pytest.mark.parametrize("algo", harness.ALGOS)
    def test_rastrigin_constant_at_the_bound_stays_finite(self, algo):
        # the largest constant make_function accepts, either sign: no value
        # of any algorithm's run overflows; DPSEA fits its initial design at
        # rs 1 and skips it at rs 5
        for const in (SIGMA_MAX, -SIGMA_MAX):
            cfg = ExperimentConfig(function="rastrigin1", dimension=5,
                                   rastrigin_constant=const, algo=algo, total_eval=2900)
            for sigma in (0.0, 0.5):
                for rs in (1, 5):
                    with np.errstate(over="raise", invalid="raise", divide="raise"):
                        rec, res = run_single(cfg, sigma, rs, seed=1)
                    assert np.isfinite(rec.best_true_fitness) and len(res.trace) > 0

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = tiny_config(repeats=2)
        serial = run_experiment(cfg)
        monkeypatch.setenv("DPSEA_THREADS", "2")
        parallel = run_experiment(cfg)
        assert [r.best_true_fitness for r in serial] == [
            r.best_true_fitness for r in parallel
        ]
        assert [r.seed for r in serial] == [r.seed for r in parallel]

    def test_mixed_rs_parallel_matches_serial(self, monkeypatch):
        cfg = tiny_config(rs_list=(1, 4, 2), repeats=1)
        serial = run_experiment(cfg)
        monkeypatch.setenv("DPSEA_THREADS", "2")
        parallel = run_experiment(cfg)

        def without_wall_time(r):
            return {k: v for k, v in vars(r).items() if k != "wall_ms"}

        assert [without_wall_time(r) for r in parallel] == [
            without_wall_time(r) for r in serial
        ]

    def test_worker_count_parsing(self, monkeypatch):
        for text, expected in (("", 0), ("0", 0), ("3", 3), (" 2 ", 2)):
            monkeypatch.setenv("DPSEA_THREADS", text)
            assert harness.worker_count() == expected
        monkeypatch.delenv("DPSEA_THREADS")
        assert harness.worker_count() == 0
        for text in ("abc", "-1", "1.5", "2x"):
            monkeypatch.setenv("DPSEA_THREADS", text)
            with pytest.raises(ConfigError, match="DPSEA_THREADS"):
                harness.worker_count()

    def test_workers_capped_at_cell_count(self, monkeypatch):
        # a stand-in pool: no process is started
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("DPSEA_THREADS", "64")
        records = run_experiment(tiny_config())
        assert sizes == [4]
        assert len(records) == 4

    def test_run_single_respects_budget(self):
        cfg = tiny_config(algo="dpsea", total_eval=3_000, params={
            "dpsea": {"pop_size": 20, "n_elites": 2}})
        rec, result = run_single(cfg, 0.5, 1, 99)
        assert rec.total_eval <= 3_000
        assert rec.total_eval == result.budget.total_eval
        assert rec.best_true_fitness == result.best_fitness

    def test_all_algos_run(self):
        for algo in harness.ALGOS:
            cfg = tiny_config(
                algo=algo,
                sigmas=(0.1,),
                repeats=1,
                total_eval=2_000,
                params={"dpsea": {"pop_size": 20, "n_elites": 2},
                        "cga": {"pop_size": 20, "n_elites": 2}},
            )
            records = run_experiment(cfg)
            assert len(records) == 1
            assert records[0].algo == algo
            assert np.isfinite(records[0].best_true_fitness)


class TestSummarize:
    def test_hand_mean_and_std(self):
        rows = [
            record(best_true_fitness=v, repeat=i) for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        out = summarize(rows)
        assert len(out) == 1
        assert out[0].n == 3
        assert out[0].mean_best_true_fitness == pytest.approx(2.0)
        assert out[0].std_best_true_fitness == pytest.approx(1.0)

    def test_single_run_std_zero(self):
        out = summarize([record()])
        assert out[0].std_best_true_fitness == 0.0

    def test_sorted_by_sigma_then_rs(self):
        rows = [
            record(sigma=0.5, rs=5),
            record(sigma=0.0, rs=5),
            record(sigma=0.0, rs=1),
        ]
        out = summarize(rows)
        assert [(s.sigma, s.rs) for s in out] == [(0.0, 1), (0.0, 5), (0.5, 5)]


class TestSuccessRate:
    def test_hand_percentages(self):
        rows = [
            record(sigma=0.0, best_true_fitness=0.0001),
            record(sigma=0.0, best_true_fitness=0.0005),
            record(sigma=0.5, best_true_fitness=0.0001),
            record(sigma=0.5, best_true_fitness=5.0),
        ]
        got = success_rate(rows, epsilon=1e-3, optimum_value=0.0)
        assert got == {0.0: 100, 0.5: 50}

    def test_threshold_is_inclusive(self):
        rows = [record(sigma=0.0, best_true_fitness=1e-3)]
        assert success_rate(rows, 1e-3, 0.0) == {0.0: 100}

    def test_shifted_optimum(self):
        rows = [record(sigma=0.0, best_true_fitness=-299.95)]
        assert success_rate(rows, 0.1, -300.0) == {0.0: 100}


class TestEmit:
    def test_golden_csv_line(self, tmp_path):
        rec = record()
        emit([rec], summarize([rec]), "csv", str(tmp_path))
        lines = (tmp_path / "runs.csv").read_text().splitlines()
        assert lines[0] == (
            "function,dimension,noisy,sigma,algo,rs,repeat,seed,"
            "best_true_fitness,total_eval,success,wall_ms"
        )
        assert lines[1] == (
            "sphere,5,true,0.5,dpsea,1,0,42,0.125,90000,true,1234.5"
        )

    def test_round_trip(self, tmp_path):
        rows = [record(repeat=i, seed=i, best_true_fitness=i * 0.1) for i in range(5)]
        emit(rows, summarize(rows), "csv", str(tmp_path))
        back = parse_runs_csv(str(tmp_path / "runs.csv"))
        assert back == rows

    def test_json_output(self, tmp_path):
        rec = record()
        paths = emit([rec], summarize([rec]), "json", str(tmp_path))
        data = json.loads((tmp_path / "runs.json").read_text())
        assert data[0]["function"] == "sphere"
        assert data[0]["success"] is True
        assert len(paths) == 2

    def test_no_temp_files_left(self, tmp_path):
        rec = record()
        emit([rec], summarize([rec]), "csv", str(tmp_path))
        assert not [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit([record()], [], "yaml", str(tmp_path))


class TestCli:
    def run_cli(self, argv, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def base_args(self, out_dir):
        return [
            "run", "--algo", "cga", "--function", "sphere", "--sigma", "0.0",
            "--rs", "1", "--repeats", "1", "--seed", "3",
            "--total-eval", "2000", "--out", out_dir,
        ]

    def test_run_writes_outputs(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        code, stdout, _ = self.run_cli(self.base_args(out), capsys)
        assert code == 0
        assert os.path.exists(os.path.join(out, "runs.csv"))
        assert os.path.exists(os.path.join(out, "summary.csv"))
        assert os.path.exists(os.path.join(out, "config.json"))
        assert "runs.csv" in stdout

    def test_run_from_config_file(self, tmp_path, capsys):
        cfg = {
            "algo": "cga",
            "function": "sphere",
            "sigma": [0.0],
            "rs": [1],
            "repeats": 1,
            "seed": 3,
            "total_eval": 2000,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / "res")
        code, _, _ = self.run_cli(
            ["run", "--config", str(path), "--out", out], capsys
        )
        assert code == 0
        flag_out = str(tmp_path / "res2")
        code, _, _ = self.run_cli(self.base_args(flag_out), capsys)
        a = (tmp_path / "res" / "runs.csv").read_text()
        b = (tmp_path / "res2" / "runs.csv").read_text()
        # identical apart from measured wall time (final column)
        trim = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert trim(a) == trim(b)

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algo": "cga", "bogus": 1}))
        code, _, err = self.run_cli(
            ["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "bogus" in err

    def test_config_file_not_an_object_exits_1(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(["algo", "cga"]))
        code, _, err = self.run_cli(
            ["run", "--config", str(path), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "JSON object" in err

    def test_flags_override_config_file_keys(self, tmp_path, capsys):
        file_out = tmp_path / "file_out"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "out": str(file_out),
            "format": "json",
            "seed": 99,
            "function": "griewank",
            "sigma": [0.5],
            "algo": "dpsea",
            "rs": [3],
            "repeats": 2,
            "total_eval": 1_000_000,
        }))
        out = str(tmp_path / "res")
        code, _, err = self.run_cli(
            self.base_args(out) + ["--config", str(path), "--format", "csv"],
            capsys,
        )
        assert code == 0, err
        assert not file_out.exists()
        echo = json.loads((tmp_path / "res" / "config.json").read_text())
        assert echo == {
            "function": "sphere", "dimension": 5, "noisy": True,
            "sigma": [0.0], "algo": "cga", "rs": [1], "repeats": 1,
            "seed": 3, "total_eval": 2000, "rastrigin_constant": None,
            "cga": asdict(GaParams()),
            "success": {"epsilon": harness.DEFAULT_EPSILON},
            "format": "csv",
        }
        plain = str(tmp_path / "plain")
        self.run_cli(self.base_args(plain), capsys)
        a = (tmp_path / "res" / "runs.csv").read_text()
        b = (tmp_path / "plain" / "runs.csv").read_text()
        trim = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert trim(a) == trim(b)

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_bad_worker_count_exits_1_before_any_run(
        self, value, tmp_path, capsys, monkeypatch
    ):
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.setenv("DPSEA_THREADS", value)
        out = tmp_path / "res"
        code, _, err = self.run_cli(self.base_args(str(out)), capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration: DPSEA_THREADS")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--algo", "cga", "--rs", "1,5", "--total-eval", "300"],
        ["--algo", "dpsea", "--rs", "1,3", "--total-eval", "50"],
    ])
    def test_budget_below_first_population_exits_1_before_any_run(
        self, argv, tmp_path, capsys, monkeypatch
    ):
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "res"
        code, _, err = self.run_cli([
            "run", "--function", "sphere", "--sigma", "0", "--repeats", "1",
            "--seed", "1", *argv, "--out", str(out),
        ], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration:")
        assert not out.exists()

    @pytest.mark.parametrize("algo, key", [
        ("dpsea", "t_swich"), ("cga", "pop_sise"), ("de", "f_scal"),
        ("pso", "w_strat"),
    ])
    def test_unknown_block_key_exits_1(self, algo, key, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"algo": algo, algo: {key: 3}}))
        out = tmp_path / "o"
        code, _, err = self.run_cli(
            ["run", "--config", str(path), "--out", str(out)], capsys
        )
        assert code == 1
        assert repr(key) in err and f"{algo} block" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        {"success": [1]},
        {"success": {"epsilon": {"nope": 1.0}}},
        {"success": {"epsilon": {"sphere": "tight"}}},
        {"success": {"eps": {"sphere": 1.0}}},
        {"sigma": "abc"},
        {"sigma": 0.5},
        {"dpsea": 5},
        {"dimension": 0},
        {"de": {"pop_size": 3}},
        {"dpsea": {"t_switch": 0}},
        {"dpsea": {"staleness_limit": 2}},
        {"de": {"f_scale": math.inf}},
        {"pso": {"w_start": math.nan}},
        {"cga": {"sigma_m": math.inf}},
        {"sigma": [math.inf]},
        {"rastrigin_constant": math.inf},
        {"success": {"epsilon": {"sphere": math.nan}}},
        {"regression": {"lambda": 1e-4}},
        {"format": "yaml"},
        {"dpsea": {"max_clusters": 4}},
        {"dpsea": {"t_switch": 101}},  # engine.T_SWITCH_MAX + 1
        # a zero population once died in the run with ZeroDivisionError
        {"pso": {"pop_size": 0}},
        {"algo": "pso", "pso": {"pop_size": 0}},
        # inertia 2 overflowed the velocity and f_scale 1e308 the mutant,
        # and both runs exited 0 with a normal-looking record
        {"algo": "pso", "function": "griewank", "dimension": 5, "sigma": [0.5],
         "total_eval": 100_000, "pso": {"w_start": 2.0, "w_end": 2.0}},
        {"algo": "de", "function": "griewank", "dimension": 5, "sigma": [0.5],
         "total_eval": 100_000, "de": {"f_scale": 1e308}},
    ])
    def test_malformed_value_exits_1_before_any_run(
        self, bad, tmp_path, capsys, monkeypatch
    ):
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algo": "cga", "function": "sphere", "sigma": [0.0], "rs": [1],
            "repeats": 1, "seed": 3, "total_eval": 2000, **bad,
        }))
        out = tmp_path / "res"
        code, _, err = self.run_cli(
            ["run", "--config", str(path), "--out", str(out)], capsys
        )
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration:")
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e308", "0,1.1e153"])
    def test_sigma_above_the_noise_bound_exits_1_before_any_run(
        self, sigma, tmp_path, capsys, monkeypatch
    ):
        # at 1e308 a noise draw overflowed to inf and the dpsea run died in
        # its surrogate fit
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "res"
        code, _, err = self.run_cli([
            "run", "--repeats", "1", "--seed", "1", "--total-eval", "2000",
            "--sigma", sigma, "--out", str(out),
        ], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration: sigmas must be")
        assert not out.exists()

    @pytest.mark.parametrize("const", [1e308, -1e308])
    def test_rastrigin_constant_above_the_bound_exits_1_before_any_run(
        self, const, tmp_path, capsys, monkeypatch
    ):
        # at 1e308 the config passed and the dpsea run died in its surrogate fit
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": "rastrigin1", "rastrigin_constant": const}))
        out = tmp_path / "res"
        code, _, err = self.run_cli([
            "run", "--config", str(path), "--algo", "dpsea", "--repeats", "1",
            "--seed", "1", "--total-eval", "12000", "--out", str(out),
        ], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration: rastrigin_constant must be")
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["inf", "0,nan"])
    def test_non_finite_sigma_flag_exits_1_before_any_run(
        self, sigma, tmp_path, capsys, monkeypatch
    ):
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "res"
        code, _, err = self.run_cli([
            "run", "--algo", "cga", "--repeats", "1", "--seed", "3",
            "--total-eval", "2000", "--sigma", sigma, "--out", str(out),
        ], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration:")
        assert "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["run", "--rs", "x"],
        ["run", "--repeats", "1.5"],
        ["run", "--sigma", "0,abc"],
        ["run", "--algo", "nope"],
        ["summarize"],
        [],
    ])
    def test_usage_error_exits_1(self, argv, tmp_path, capsys, monkeypatch):
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        out = tmp_path / "res"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(out)] if argv[:1] == ["run"] else argv)
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("block", [
        {"regression_lambda": -1},
        {"regression_lambda": math.inf},
        {"regression_lambda": math.nan},
        {"regression_lambda": -math.inf},
    ])
    def test_bad_regression_setting_exits_1_before_any_run(
        self, block, tmp_path, capsys, monkeypatch
    ):
        def no_run(cfg):
            raise AssertionError("a run started")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dpsea": block}))
        out = tmp_path / "res"
        code, _, err = self.run_cli([
            "run", "--config", str(path), "--algo", "dpsea", "--function",
            "sphere", "--sigma", "0", "--rs", "1", "--repeats", "1", "--seed",
            "1", "--total-eval", "2000", "--out", str(out),
        ], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error: invalid configuration:")
        assert next(iter(block)) in err
        assert not out.exists()

    @pytest.mark.parametrize("algo, block", [
        ("dpsea", {"t_switch": 3, "pop_size": 30, "n_elites": 3,
                   "regression_lambda": 1e-4}),
        ("cga", {"pop_size": 30, "n_elites": 3, "p_m": 0.2}),
        ("de", {"pop_size": 20, "cf": 0.7, "f_scale": 0.6}),
        ("pso", {"pop_size": 15, "w_start": 0.9, "w_end": 0.5}),
    ])
    def test_echoed_config_reproduces_the_run(self, algo, block, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "algo": algo, "function": "rastrigin1", "dimension": 5,
            "rastrigin_constant": 7.5, "sigma": [0.0, 0.5], "rs": [2],
            "repeats": 1, "seed": 11, "total_eval": 3000, algo: block,
            "success": {"epsilon": {"rastrigin1": 40.0}},
        }))
        first, again = tmp_path / "first", tmp_path / "again"
        code, _, err = self.run_cli(
            ["run", "--config", str(path), "--out", str(first)], capsys
        )
        assert code == 0, err
        code, _, err = self.run_cli(
            ["run", "--config", str(first / "config.json"), "--out", str(again)],
            capsys,
        )
        assert code == 0, err
        trim = lambda path: [ln.rsplit(",", 1)[0]
                             for ln in path.read_text().splitlines()]
        assert trim(first / "runs.csv") == trim(again / "runs.csv")
        assert (first / "config.json").read_bytes() == (
            again / "config.json").read_bytes()
        echo = json.loads((first / "config.json").read_text())
        assert {k: echo[algo][k] for k in block} == block
        assert echo["success"]["epsilon"]["rastrigin1"] == 40.0
        assert echo["rastrigin_constant"] == 7.5

    def test_config_echo_written_atomically(self, tmp_path, capsys, monkeypatch):
        written = []
        atomic_write = harness._atomic_write

        def spy(path, text):
            written.append(os.path.basename(path))
            atomic_write(path, text)

        monkeypatch.setattr(harness, "_atomic_write", spy)
        out = tmp_path / "res"
        code, _, _ = self.run_cli(self.base_args(str(out)), capsys)
        assert code == 0
        assert written == ["runs.csv", "summary.csv", "config.json"]
        assert sorted(os.listdir(out)) == ["config.json", "runs.csv", "summary.csv"]

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a plain file, not a directory")
        code, _, err = self.run_cli(self.base_args(str(blocker)), capsys)
        assert code == 2
        assert "cannot write" in err

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, capsys):
        # summary.csv is a directory: its rename fails after the temp is written
        out = tmp_path / "res"
        (out / "summary.csv").mkdir(parents=True)
        code, _, err = self.run_cli(self.base_args(str(out)), capsys)
        assert code == 2
        assert "cannot write" in err
        assert sorted(os.listdir(out)) == ["runs.csv", "summary.csv"]

    def test_missing_seed_uses_entropy(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        argv = [
            "run", "--algo", "cga", "--sigma", "0.0", "--rs", "1",
            "--repeats", "1", "--total-eval", "2000", "--out", out,
        ]
        code, _, err = self.run_cli(argv, capsys)
        assert code == 0
        assert "entropy seed" in err

    def test_summarize_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        self.run_cli(self.base_args(out), capsys)
        code, stdout, _ = self.run_cli(["summarize", "--in", out], capsys)
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0].startswith("function,algo,sigma,rs,n,")
        assert lines[1].startswith("sphere,cga,0.0,1,1,")

    def test_success_subcommand(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        self.run_cli(self.base_args(out), capsys)
        code, stdout, _ = self.run_cli(["success", "--in", out], capsys)
        assert code == 0
        assert stdout.splitlines()[0] == "sigma,success_pct"

    def test_success_epsilon_override(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        self.run_cli(self.base_args(out), capsys)
        code, stdout, _ = self.run_cli(
            ["success", "--in", out, "--epsilon", "1e30"], capsys
        )
        assert code == 0
        assert stdout.splitlines()[1].endswith(",100")

    @pytest.mark.parametrize("flag", [["--epsilon", "nan"], ["--epsilon", "inf"],
                                      ["--epsilon=-inf"]])
    def test_success_non_finite_epsilon_exits_1(self, tmp_path, capsys, flag):
        out = str(tmp_path / "res")
        self.run_cli(self.base_args(out), capsys)
        code, stdout, err = self.run_cli(["success", "--in", out, *flag], capsys)
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [err.strip()]
        assert "--epsilon must be a finite number" in err

    def test_success_epsilon_measures_against_the_runs_optimum(self, tmp_path, capsys):
        # 10-D rastrigin1 with constant 3.0 has its optimum at 3 - 100 = -97
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"function": "rastrigin1", "dimension": 10,
                                    "rastrigin_constant": 3.0}))
        out = str(tmp_path / "res")
        code, _, err = self.run_cli([
            "run", "--config", str(path), "--algo", "cga", "--sigma", "0,0.5",
            "--rs", "1", "--repeats", "2", "--seed", "3", "--total-eval", "2000",
            "--out", out,
        ], capsys)
        assert code == 0, err
        records = parse_runs_csv(os.path.join(out, "runs.csv"))
        want = success_rate(records, 5.0, -97.0)
        assert want != success_rate(records, 5.0, 0.0)
        code, stdout, _ = self.run_cli(["success", "--in", out, "--epsilon", "5"], capsys)
        assert code == 0
        assert stdout.splitlines()[1:] == [f"{s!r},{p}" for s, p in want.items()]

        os.remove(os.path.join(out, "config.json"))
        code, _, err = self.run_cli(["success", "--in", out, "--epsilon", "5"], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert "config.json" in err

    def test_success_counts_the_recorded_flags(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"success": {"epsilon": {"sphere": 1e30}}}))
        out = str(tmp_path / "res")
        code, _, err = self.run_cli(
            self.base_args(out) + ["--config", str(path)], capsys
        )
        assert code == 0, err
        assert parse_runs_csv(os.path.join(out, "runs.csv"))[0].success
        code, stdout, _ = self.run_cli(["success", "--in", out], capsys)
        assert code == 0
        assert stdout.splitlines() == ["sigma,success_pct", "0.0,100"]

    def test_summarize_and_success_read_json_runs(self, tmp_path, capsys):
        outputs = {}
        for fmt in ("csv", "json"):
            out = str(tmp_path / fmt)
            code, _, err = self.run_cli([
                "run", "--algo", "cga", "--function", "sphere", "--sigma", "0",
                "--rs", "1", "--repeats", "1", "--seed", "1", "--total-eval",
                "500", "--format", fmt, "--out", out,
            ], capsys)
            assert code == 0, err
            assert sorted(os.listdir(out)) == ["config.json", f"runs.{fmt}",
                                               f"summary.{fmt}"]
            outputs[fmt] = [
                self.run_cli([command, "--in", out, *extra], capsys)
                for command, extra in (("summarize", []), ("success", []),
                                       ("success", ["--epsilon", "1e30"]))
            ]
        assert all(code == 0 for code, _, _ in outputs["json"])
        assert outputs["json"] == outputs["csv"]

    def test_summarize_reads_the_format_config_json_names(self, tmp_path, capsys):
        # a csv run, then a json run into the same directory: the csv is stale
        out = str(tmp_path / "res")
        for sigma, seed, fmt in (("0", "1", "csv"), ("0.5", "2", "json")):
            code, _, err = self.run_cli([
                "run", "--algo", "cga", "--function", "sphere", "--sigma", sigma,
                "--rs", "1", "--repeats", "1", "--seed", seed, "--total-eval",
                "500", "--format", fmt, "--out", out,
            ], capsys)
            assert code == 0, err
        sigma_of = lambda stdout: stdout.splitlines()[1].split(",")[2]
        code, stdout, _ = self.run_cli(["summarize", "--in", out], capsys)
        assert code == 0
        assert sigma_of(stdout) == "0.5"
        code, stdout, _ = self.run_cli(["success", "--in", out], capsys)
        assert (code, stdout.splitlines()[1]) == (0, "0.5,0")

        # without config.json, runs.csv comes first
        os.remove(os.path.join(out, "config.json"))
        code, stdout, _ = self.run_cli(["summarize", "--in", out], capsys)
        assert code == 0
        assert sigma_of(stdout) == "0.0"

    @pytest.mark.parametrize("fmt, key, value", [
        ("json", "best_true_fitness", "abc"),
        ("json", "success", 1),
        ("json", "total_eval", True),
        ("json", "seed", 1.5),
        ("csv", "success", "yes"),
    ])
    def test_mistyped_runs_field_exits_1(self, fmt, key, value, tmp_path, capsys):
        out = str(tmp_path / "res")
        code, _, err = self.run_cli([
            "run", "--algo", "cga", "--function", "sphere", "--sigma", "0",
            "--rs", "1", "--repeats", "1", "--seed", "1", "--total-eval",
            "500", "--format", fmt, "--out", out,
        ], capsys)
        assert code == 0, err
        path = os.path.join(out, f"runs.{fmt}")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if fmt == "json":
            rows = json.loads(text)
            rows[0][key] = value
            text = json.dumps(rows)
        else:
            header, row = text.splitlines()
            cells = dict(zip(header.split(","), row.split(",")))
            cells[key] = value
            text = f"{header}\n{','.join(cells.values())}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for argv in (["summarize", "--in", out], ["success", "--in", out, "--epsilon", "1"]):
            code, stdout, err = self.run_cli(argv, capsys)
            assert (code, stdout) == (1, "")
            assert err.splitlines() == [err.strip()]
            assert f"runs.{fmt}" in err and repr(value) in err

    def test_malformed_runs_json_exits_1(self, tmp_path, capsys):
        (tmp_path / "runs.json").write_text(json.dumps([{"function": "sphere"}]))
        code, _, err = self.run_cli(["summarize", "--in", str(tmp_path)], capsys)
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert "runs.json" in err

    def test_summarize_missing_dir_exits_1(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["summarize", "--in", str(tmp_path / "nope")], capsys
        )
        assert code == 1
        assert "runs.csv" in err
