import json
import os

import numpy as np
import pytest

from dpsea import cli, harness
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
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            tiny_config(**kwargs)


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

    def test_parallel_matches_serial(self, monkeypatch):
        cfg = tiny_config(repeats=2)
        serial = run_experiment(cfg)
        monkeypatch.setenv("DPSEA_THREADS", "2")
        parallel = run_experiment(cfg)
        assert [r.best_true_fitness for r in serial] == [
            r.best_true_fitness for r in parallel
        ]
        assert [r.seed for r in serial] == [r.seed for r in parallel]

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
            "function": "sphere", "dimension": None, "noisy": True,
            "sigma": [0.0], "algo": "cga", "rs": [1], "repeats": 1,
            "seed": 3, "total_eval": 2000, "format": "csv",
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

    def test_summarize_missing_dir_exits_1(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["summarize", "--in", str(tmp_path / "nope")], capsys
        )
        assert code == 1
        assert "runs.csv" in err
