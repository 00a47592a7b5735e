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

    def test_quick_dpsea_cases_include_design_skipped_runs(self):
        # every function has a quick case whose budget does not fit the
        # initial design, which then charges only the first population
        from dpsea import engine
        from dpsea.benchmarks import NoiseModel, make_function
        from dpsea.stochastics import Budget, RngState

        digests = load_tool("digests")
        skipped = set()
        for c in digests.cases(full=False):
            if c["algo"] != "dpsea":
                continue
            fn = make_function(c["function"], dimension=c["dimension"])
            params = engine.DpseaParams(max_total_eval=c["budget"], rs_merge=c["rs"])
            budget = Budget(pop_size=100, total_it=0, rs=c["rs"])
            _, ys = engine.initial_design(fn, NoiseModel(0.0, c["sigma"]), params,
                                          RngState(c["seed"]), budget)
            if len(ys) == params.ga.pop_size:
                skipped.add(c["function"])
        assert skipped == set(digests.FUNCTIONS)


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
