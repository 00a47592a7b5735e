import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import dpsea
from dpsea import _blas, engine
from dpsea.stochastics import RngState


class FakeBlas:
    """A get/set pair that records every count set."""

    def __init__(self, count=4):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, n):
        self.sets.append(n)
        self.count = n


@pytest.fixture
def fake(monkeypatch):
    blas = FakeBlas()
    monkeypatch.setattr(_blas, "_controls", lambda: (blas.get, blas.set))
    return blas


@pytest.fixture
def real():
    controls = _blas._controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS thread-count symbols not found")
    return controls


class TestOneThread:
    def test_one_inside_restored_after(self, real):
        get, _ = real
        before = get()
        with _blas.one_thread():
            assert get() == 1
        assert get() == before

    def test_restored_after_exception(self, real):
        get, set_ = real
        before = get()
        set_(2)
        try:
            with pytest.raises(RuntimeError):
                with _blas.one_thread():
                    assert get() == 1
                    raise RuntimeError("boom")
            assert get() == 2
        finally:
            set_(before)

    def test_nested_restores_outer_count(self, fake):
        with _blas.one_thread():
            with _blas.one_thread():
                assert fake.count == 1
            assert fake.count == 1
        assert fake.count == 4
        assert fake.sets == [1, 1, 1, 4]

    def test_overlapping_blocks_hold_one_until_the_last_ends(self, fake):
        # enter A, enter B, exit A, exit B: the order of two runs that
        # overlap in threads
        a, b = _blas.one_thread(), _blas.one_thread()
        a.__enter__()
        b.__enter__()
        assert fake.count == 1
        a.__exit__(None, None, None)
        assert fake.count == 1
        b.__exit__(None, None, None)
        assert fake.count == 4

    def test_threads_entering_and_leaving_at_once_hold_one(self, fake):
        # more threads than cores, switching as often as the interpreter
        # allows: a lost update of the shared depth would restore the count
        # inside some block or leave it at 1 after the last
        inside = []

        def work():
            for _ in range(200):
                with _blas.one_thread():
                    time.sleep(0)  # lets another thread in
                    inside.append(fake.count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(work) for _ in range(4)]
                for future in futures:
                    future.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert inside == [1] * 800
        assert fake.count == 4

    def test_no_library_does_nothing(self, monkeypatch):
        get = (_blas._controls() or (lambda: None,))[0]
        before = get()
        monkeypatch.setattr(_blas, "_controls", lambda: None)
        with _blas.one_thread():
            assert get() == before
        assert get() == before

    def test_resolver_without_library_gives_none(self, monkeypatch, tmp_path):
        not_a_library = tmp_path / "libopenblas.so"
        not_a_library.write_text("not a shared object")
        monkeypatch.setattr(_blas, "_library_paths", lambda: [str(not_a_library)])
        assert _blas._controls.__wrapped__() is None

    def test_import_does_not_resolve(self):
        code = (
            "import dpsea; from dpsea import _blas; "
            "print(_blas._controls.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=env, check=True,
        )
        assert out.stdout.strip() == "0"


class TestRunUsesOneThread:
    def test_run_executes_under_one_thread(self, fake, monkeypatch):
        seen = []
        design = engine.initial_design

        def spy(*args, **kwargs):
            seen.append(fake.count)
            return design(*args, **kwargs)

        monkeypatch.setattr(engine, "initial_design", spy)
        fn = dpsea.make_function("sphere")
        params = engine.DpseaParams(max_total_eval=2_000)
        dpsea.run(fn, dpsea.NoiseModel(sigma=0.0), params, RngState(1))
        assert seen == [1]
        assert fake.sets == [1, 4]
        assert fake.count == 4

    def test_count_restored_when_run_raises(self, fake, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(engine, "initial_design", boom)
        fn = dpsea.make_function("sphere")
        with pytest.raises(RuntimeError):
            dpsea.run(fn, dpsea.NoiseModel(sigma=0.0), engine.DpseaParams(), RngState(1))
        assert fake.sets == [1, 4]

    def test_overlapping_runs_in_threads_restore_the_count(self, real, monkeypatch):
        # run A starts, run B starts, A ends, B ends: a block that restored
        # the count it saw on entry left B's 1 behind
        get, set_ = real
        original = get()
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        role = threading.local()
        design = engine.initial_design

        def spy(*args, **kwargs):
            if role.name == "a":
                a_in.set()
                assert b_in.wait(30)
            else:
                b_in.set()
                assert a_out.wait(30)
            return design(*args, **kwargs)

        def work(name):
            role.name = name
            fn = dpsea.make_function("sphere")
            params = engine.DpseaParams(max_total_eval=2_000)
            result = dpsea.run(fn, dpsea.NoiseModel(sigma=0.0), params, RngState(1))
            if name == "a":
                a_out.set()
            return result

        monkeypatch.setattr(engine, "initial_design", spy)
        set_(2)
        try:
            with ThreadPoolExecutor(2) as pool:
                a = pool.submit(work, "a")
                assert a_in.wait(30)
                b = pool.submit(work, "b")
                a.result()
                b.result()
            assert get() == 2
        finally:
            set_(original)
