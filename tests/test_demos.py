"""Every demo imports cleanly, so a public name removed from ``dpsea`` fails
here rather than when someone next runs the demo. Each demo's ``main()``
sits behind a ``__main__`` guard, so importing runs nothing."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demos_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
