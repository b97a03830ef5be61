"""One BLAS thread while a model trains.

The dense training loop makes two gemv products over A per outer iteration,
each a few hundred microseconds at n = 10^4. OpenBLAS splits a call of that
size across all its threads, which buys little and makes every product wait
for its slowest thread: on a host that preempts one core now and then, the
whole loop stalls with it, and one run's training time differs widely from
the next. The split also changes the summation order of A^T y, so the model
a training call returned depended on the library's thread count.

OpenBLAS keeps one thread count per library. one_thread() sets it to 1
through the library's own entry points, for every OpenBLAS build mapped into
the process, and puts the saved counts back when the last block, in any
thread, leaves. Where no OpenBLAS is found (another BLAS, or no
/proc/self/maps) it does nothing.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from functools import cache
from pathlib import Path

__all__ = ["one_thread", "openblas_controls"]

# (set, get) thread-count entry points, by the names OpenBLAS builds export
_ENTRY_POINTS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_active = 0  # blocks inside one_thread, over all threads
_saved: list = []  # (set, count) from before the first of them


@cache
def openblas_controls() -> tuple:
    """(set_num_threads, get_num_threads) of each OpenBLAS library mapped
    into this process, as ctypes functions."""
    try:
        maps = Path("/proc/self/maps").read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ()
    paths = dict.fromkeys(
        fields[5]
        for fields in (line.split(maxsplit=5) for line in maps.splitlines())
        if len(fields) == 6 and "openblas" in Path(fields[5]).name.lower() and ".so" in fields[5]
    )
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _ENTRY_POINTS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                set_threads, get_threads = getattr(lib, set_name), getattr(lib, get_name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return tuple(controls)


@contextmanager
def one_thread():
    """Run the block with every OpenBLAS library on one thread.

    Nested and concurrent blocks share one saved count per library, restored
    when the last of them leaves. Also usable as a decorator.
    """
    global _active, _saved
    with _lock:
        if _active == 0:
            _saved = [(set_threads, get_threads()) for set_threads, get_threads in openblas_controls()]
            for set_threads, _ in _saved:
                set_threads(1)
        _active += 1
    try:
        yield
    finally:
        with _lock:
            _active -= 1
            if _active == 0:
                for set_threads, count in _saved:
                    set_threads(count)
