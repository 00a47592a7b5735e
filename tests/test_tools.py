import importlib.util
import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairs:
    def test_failing_run_prints_its_stderr(self, tmp_path, capsys):
        bench_pairs = load_tool("bench_pairs")
        root = tmp_path / "root"
        (root / "perfbench").mkdir(parents=True)
        (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": []}))
        (root / "perfbench" / "run.py").write_text(
            "import sys\nprint('workload exploded', file=sys.stderr)\nsys.exit(1)\n"
        )
        with pytest.raises(subprocess.CalledProcessError):
            bench_pairs.main([
                "--parent", str(root), "--change", str(root), "--workloads",
                "sphere-5d", "--pairs", "1", "--seconds", "1",
                "--out", str(tmp_path / "bench.json"),
            ])
        err = capsys.readouterr().err
        assert "sphere-5d pair 0 parent: perfbench exited 1" in err
        assert "workload exploded" in err


    def test_verdicts_follow_wins_spread_and_bound(self, tmp_path, capsys):
        # each run.py reports the metrics its checkout's values.json holds
        # for the run's index; the change's run_cal is lower in 9 of 10
        # pairs by more than the parent's spread, its cpu_cal within the
        # bound, its evals_per_cal 30 % lower and its setup_s 10 % lower in
        # every pair but inside the parent's spread
        bench_pairs = load_tool("bench_pairs")
        parent = {"run_cal": [1.0, 1.1, 1.0, 1.05, 1.0, 1.1, 1.0, 1.05, 1.0, 1.1],
                  "cpu_cal": [1.0] * 10, "evals_per_cal": [10.0] * 10,
                  "setup_s": [0.5, 1.5] * 5}
        change = {"run_cal": [0.8] * 9 + [1.2], "cpu_cal": [1.2] * 10,
                  "evals_per_cal": [7.0] * 10, "setup_s": [0.45, 1.35] * 5}
        spec = {"end_to_end": [
            {"name": "run_cal", "better": "lower", "bound": 0.25},
            {"name": "cpu_cal", "better": "lower", "bound": 0.25},
            {"name": "evals_per_cal", "better": "higher", "bound": 0.25},
            {"name": "setup_s", "better": "lower", "bound": 0.25},
        ]}
        run_py = (
            "import json, pathlib\n"
            "count = pathlib.Path('count')\n"
            "i = int(count.read_text()) if count.exists() else 0\n"
            "count.write_text(str(i + 1))\n"
            "values = json.loads(pathlib.Path('values.json').read_text())\n"
            "print('env {}')\n"
            "print(json.dumps({'failed': 0, 'metrics': {k: {'value': v[i]} "
            "for k, v in values.items()}}))\n"
        )
        roots = {}
        for side, values in (("parent", parent), ("change", change)):
            root = roots[side] = tmp_path / side
            (root / "perfbench").mkdir(parents=True)
            (root / "BENCHMARK.json").write_text(json.dumps(spec))
            (root / "values.json").write_text(json.dumps(values))
            (root / "perfbench" / "run.py").write_text(run_py)
        out = tmp_path / "bench.json"
        assert bench_pairs.main([
            "--parent", str(roots["parent"]), "--change", str(roots["change"]),
            "--workloads", "sphere-5d", "--pairs", "10", "--seconds", "1",
            "--out", str(out),
        ]) == 0
        metrics = json.loads(out.read_text())["workloads"]["sphere-5d"]["summary"]["metrics"]
        want = {"run_cal": "better", "cpu_cal": "unresolved",
                "evals_per_cal": "worse", "setup_s": "unresolved"}
        assert {name: m["verdict"] for name, m in metrics.items()} == want
        assert metrics["run_cal"]["change_wins"] == 9
        assert metrics["setup_s"]["change_wins"] == 10
        printed = capsys.readouterr().out
        for name, verdict in want.items():
            assert f"sphere-5d {name}: {verdict}, ratio " in printed


class TestDigests:
    ROOT = TOOLS.parent

    def test_identical_roots_pass_and_a_drift_is_named(self, tmp_path, capsys,
                                                       monkeypatch):
        digests = load_tool("digests")
        picked = [c for c in digests.cases(full=False)
                  if c["name"] in ("dpsea-sphere-5d-sigma0.0-rs1-default-seed8",
                                   "cga-griewank-5d-sigma0.5-rs1-default-seed1")]
        assert len(picked) == 2
        monkeypatch.setattr(digests, "cases", lambda full: picked)

        assert digests.main(["--parent", str(self.ROOT), "--change",
                             str(self.ROOT), "--quick"]) == 0
        assert capsys.readouterr().out == "2 of 2 cases identical\n"

        # a smaller initial design moves every DPSEA run and no baseline
        change = tmp_path / "change"
        shutil.copytree(self.ROOT / "src" / "dpsea", change / "src" / "dpsea",
                        ignore=shutil.ignore_patterns("__pycache__"))
        engine = change / "src" / "dpsea" / "engine.py"
        text = engine.read_text()
        assert "DESIGN_FACTOR = 40\n" in text
        engine.write_text(text.replace("DESIGN_FACTOR = 40\n", "DESIGN_FACTOR = 39\n"))
        assert digests.main(["--parent", str(self.ROOT), "--change", str(change),
                             "--quick"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: dpsea-sphere-5d-sigma0.0-rs1-default-seed8",
            "1 of 2 cases identical",
        ]

    def test_run_dir_cases_digest_stably_and_match_themselves(self, capsys,
                                                              monkeypatch):
        digests = load_tool("digests")
        picked = [c for c in digests.cases(full=False) if "argv" in c]
        assert sorted(c["name"] for c in picked) == [
            f"rundir-{algo}-griewank-5d-{fmt}"
            for algo in ("cga", "dpsea") for fmt in ("csv", "json")]
        first = [digests.case_digest(c) for c in picked]
        assert [digests.case_digest(c) for c in picked] == first
        assert len(set(first)) == len(first)
        capsys.readouterr()

        monkeypatch.setattr(digests, "cases", lambda full: picked)
        assert digests.main(["--parent", str(self.ROOT), "--change",
                             str(self.ROOT), "--quick"]) == 0
        assert capsys.readouterr().out == "4 of 4 cases identical\n"

    def test_quick_dpsea_cases_include_design_skipped_runs(self):
        # every function has a quick case whose budget does not fit the
        # initial design, which then charges only the first population
        from dpsea import engine
        from dpsea.benchmarks import NoiseModel, make_function
        from dpsea.stochastics import Budget, RngState

        digests = load_tool("digests")
        skipped, fitted = set(), set()
        for c in digests.cases(full=False):
            if c.get("algo") != "dpsea":  # run-directory cases have no algo key
                continue
            fn = make_function(c["function"], dimension=c["dimension"])
            params = engine.DpseaParams(max_total_eval=c["budget"], rs_merge=c["rs"])
            budget = Budget(pop_size=100, total_it=0, rs=c["rs"])
            _, ys = engine.initial_design(fn, NoiseModel(0.0, c["sigma"]), params,
                                          RngState(c["seed"]), budget)
            if len(ys) == params.ga.pop_size:
                skipped.add(c["function"])
            else:
                fitted.add(fn.dimension)
        assert skipped == set(digests.FUNCTIONS)
        # and one case fits a 50-D design: 4180 rows, 101 columns
        assert 50 in fitted

    def test_quick_mode_fits_every_step_model_kind(self, monkeypatch):
        # the defaults fit diagonal quadratics; two small populations fit the
        # linear and constant bases, set through the config's dpsea block
        from dpsea import regression

        digests = load_tool("digests")
        real, kinds = regression.fit_rated, set()

        def fit_rated(xs, ys, kind, lam):
            kinds.add(kind)
            return real(xs, ys, kind, lam)

        monkeypatch.setattr(regression, "fit_rated", fit_rated)
        picked = {c["name"].split("-")[5]: c for c in digests.cases(full=False)
                  if c.get("params")}  # run-directory cases have no params key
        assert sorted(picked) == ["constant", "linear"]
        for tag, c in picked.items():
            kinds.clear()
            assert digests.run_case(c).trace
            assert kinds == {regression.ModelKind[tag.upper()]}

    def test_quick_mode_re_noises_known_true_fitness_at_rs_above_one(self, monkeypatch):
        # the quick case whose steps without surrogate generations re-noise
        # the main generation's offspring, rs times each
        from dpsea import engine

        digests = load_tool("digests")
        (c,) = [c for c in digests.cases(full=False) if c["name"].endswith("-reuse-seed70")]
        assert c["rs"] > 1
        merge, renoised = engine.merge_and_resample, []

        def merging(*args):
            out = merge(*args)
            if out is not None and args[-1] is not None:
                renoised.append(len(args[-1]))
            return out

        monkeypatch.setattr(engine, "merge_and_resample", merging)
        digests.run_case(c)
        assert renoised and set(renoised) == {90}


class TestQuality:
    ROOT = TOOLS.parent

    def test_a_checkout_against_itself_matches_everywhere(self, tmp_path, capsys,
                                                          monkeypatch):
        quality = load_tool("quality")
        monkeypatch.setattr(quality, "QUICK_BUDGETS", {"sphere": 600, "rosenbrock": 400})
        out = tmp_path / "quality.json"
        assert quality.main(["--parent", str(self.ROOT), "--change", str(self.ROOT),
                             "--quick", "--seeds", "4", "--functions",
                             "sphere,rosenbrock", "--sigmas", "0,0.5",
                             "--out", str(out)]) == 0
        assert "0 of 4 cells worse and 0 better with p < 0.0125" in capsys.readouterr().out
        cells = json.loads(out.read_text())["cells"]
        assert [(c["function"], c["sigma"], c["budget"]) for c in cells] == [
            ("sphere", 0.0, 600), ("sphere", 0.5, 600),
            ("rosenbrock", 0.0, 400), ("rosenbrock", 0.5, 400)]
        for c in cells:
            assert c["parent"] == c["change"]
            assert len(c["change"]["gaps"]) == 4
            assert c["identical"] == 4
            assert c["u"] == 8.0 and c["p"] == 1.0

    def shifted(self, shift, monkeypatch, capsys):
        """Exit code and output of one 8-seed cell whose change gaps are the
        parent's plus ``shift``."""
        quality = load_tool("quality")
        monkeypatch.setattr(quality, "side_gaps", lambda root, specs, side: [
            k + (shift if side == "change" else 0.0) for k in range(len(specs))])
        code = quality.main(["--parent", str(self.ROOT), "--change", str(self.ROOT),
                             "--seeds", "8", "--functions", "sphere", "--sigmas", "0"])
        return code, capsys.readouterr().out

    def test_a_better_cell_is_reported_and_passes(self, monkeypatch, capsys):
        code, out = self.shifted(-10.0, monkeypatch, capsys)
        assert code == 0
        assert out.splitlines()[1].endswith("  better")
        assert "0 of 1 cells worse and 1 better" in out

    def test_a_worse_cell_fails(self, monkeypatch, capsys):
        code, out = self.shifted(10.0, monkeypatch, capsys)
        assert code == 1
        assert out.splitlines()[1].endswith("  worse")
        assert "1 of 1 cells worse and 0 better" in out

    def test_mann_whitney_hand_case(self):
        # pooled 1 | 2 2 2 | 3 4 5 has ranks 1 | 3 3 3 | 5 6 7, so x = (1, 2, 2)
        # has rank sum 7 and U = 7 - 3 * 4 / 2 = 1 against a mean of 6; the
        # one tie of three gives var = 3 * 4 / 12 * (8 - 24 / 42) = 52 / 7
        quality = load_tool("quality")
        u, p = quality.mann_whitney([1.0, 2.0, 2.0], [2.0, 3.0, 4.0, 5.0])
        assert u == 1.0
        assert p == pytest.approx(math.erfc(5 / math.sqrt(2 * 52 / 7)), rel=1e-12)
        assert p == pytest.approx(0.06658, abs=1e-5)
        # every value tied: no evidence either way
        assert quality.mann_whitney([3.0] * 4, [3.0] * 5) == (10.0, 1.0)
