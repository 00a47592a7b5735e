import importlib.util
import json
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
