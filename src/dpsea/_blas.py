"""Run-scoped OpenBLAS thread count.

numpy's OpenBLAS spreads each matrix call over every core. The ridge fits
of one run are too small for that to pay: on a 2-core box a 50-D run spent
twice the CPU time for no gain in wall time, and two runs side by side (a
sweep with ``DPSEA_THREADS=2``) fought over the cores and ran slower than
one after the other. ``one_thread`` pins OpenBLAS to one thread for the
duration of a block and restores the previous count after it. The count
is process-wide, so blocks that overlap in threads share one saved count:
the first block in saves it and the last block out restores it.

The library is found on first use, not at import: the OpenBLAS that numpy
mapped into this process (``/proc/self/maps``), else the one numpy ships
in ``numpy.libs``. When no library or no thread-count symbol is found,
``one_thread`` does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading

import numpy as np

# (get, set) symbol pairs: numpy's own scipy-openblas build, then a plain
# OpenBLAS.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _library_paths():
    """Candidate OpenBLAS files: those mapped into this process first."""
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="surrogateescape") as fh:
            paths = [line.split()[-1] for line in fh]
    except OSError:
        pass
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    if os.path.isdir(libs):
        paths += [os.path.join(libs, name) for name in sorted(os.listdir(libs))]
    return [p for p in dict.fromkeys(paths) if "openblas" in os.path.basename(p)]


@functools.cache
def _controls():
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or None."""
    for path in _library_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get = getattr(lib, get_name, None)
            set_ = getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.restype = ctypes.c_int
                get.argtypes = []
                set_.restype = None
                set_.argtypes = [ctypes.c_int]
                return get, set_
    return None


# the open one_thread blocks of all threads, and the count the first saved
_lock = threading.Lock()
_depth = 0
_saved = None


@contextlib.contextmanager
def one_thread():
    """Run the block with OpenBLAS on one thread; restore the count after.

    Blocks open in any thread, nested or overlapping, hold one thread until
    the last of them ends, which restores the count saved by the first;
    every block boundary in between sets one thread again. The count is
    restored also when a block raises.
    """
    global _depth, _saved
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _lock:
        if _depth == 0:
            _saved = get()
        _depth += 1
        set_(1)
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            set_(_saved if _depth == 0 else 1)
