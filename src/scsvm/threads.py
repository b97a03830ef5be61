"""The package's one helper-thread policy: whether a call gets a second thread,
and where that thread runs.

The svmlight parser (a stream of more than one batch) and the training loop's
split products (see scsvm.linsys.SplitCsr) each lease a second thread from
helper(), and only this module starts or pins one. The helpers are one pool
for the whole process: a thread starts only when a lease finds no idle one,
and none is ever joined. At most usable_cpus() - 1 leases are out at once, so
at a fixed CPU count at most that many threads start; a caller given None
does all of its work on its own thread, with the same bits. So calls that
overlap, such as trainings under run_benchmark with jobs > 1, share the
helpers: on two CPUs one of them holds the helper and the others run alone.

A Helper runs one call at a time on its thread while the calling thread does
its own share of the work. The two hand the call over through two locks: the
caller stores the call and its arguments, releases the first lock and later
takes the second, which the helper releases when the call has returned. The
helper only runs what the caller built, so it allocates no arrays of its own.

Each lease pins the thread to the caller's CPUs other than the one the caller
is on then. Left to the scheduler, a thread woken over and over by a busy
caller is placed on the caller's own CPU and the two halves of a product run
one after the other; on a 2-CPU host that made a split product slower than
one on the calling thread alone.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from functools import cache

__all__ = ["Helper", "helper", "usable_cpus"]

# guards the idle helpers and the count of leases out
_POOL_LOCK = threading.Lock()
_idle: list[Helper] = []
_leases_out = 0


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def helper():
    """Lease a Helper, an idle one or a new one, pinned off the caller's CPU,
    for the with block; or None on one CPU or where usable_cpus() - 1 leases
    are out. A lease that ends with a call started and never waited for
    raises RuntimeError once that call has returned."""
    global _leases_out
    with _POOL_LOCK:
        lent = None
        if _leases_out < usable_cpus() - 1:
            lent = _idle.pop() if _idle else Helper()
            _leases_out += 1
    if lent is None:
        yield None
        return
    try:
        _pin_elsewhere(lent._native_id)
        yield lent
    finally:
        unwaited = lent._call is not None
        if unwaited:  # the call's arrays are in use until it returns
            lent._done.acquire()
            lent._call = lent._error = None
        with _POOL_LOCK:
            _leases_out -= 1
            _idle.append(lent)
    if unwaited:
        raise RuntimeError("a helper call was started and never waited for")


def _forget_the_pool() -> None:
    # a forked child has none of the parent's helper threads and no lease out
    global _POOL_LOCK, _idle, _leases_out
    _POOL_LOCK, _idle, _leases_out = threading.Lock(), [], 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_the_pool)


@cache
def _sched_getcpu():
    """libc's sched_getcpu as a ctypes function, or None where there is none."""
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return getcpu


def _pin_elsewhere(thread_id: int) -> None:
    """Restrict the thread thread_id to this thread's CPUs other than the one
    this thread runs on now, where those are known and there are any."""
    getcpu = _sched_getcpu()
    if getcpu is None or not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(thread_id, os.sched_getaffinity(0) - {getcpu()})
    except OSError:  # no other CPU, or the thread's CPUs are not this thread's to set
        pass


class Helper:
    """A thread, started with the Helper, that runs one call at a time for the
    thread holding its lease: start(fn, args) hands fn(*args) to it and
    returns at once; wait() returns once that call has returned, and raises
    what it raised."""

    def __init__(self):
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._call = self._error = None
        thread = threading.Thread(target=self._serve, name="scsvm-helper", daemon=True)
        thread.start()
        self._native_id = thread.native_id

    def _serve(self):
        while True:
            self._go.acquire()
            fn, args = self._call
            try:
                fn(*args)
            except BaseException as exc:  # raised again by wait()
                self._error = exc
            # the caller's arrays are its own to free, on its thread
            fn = args = None
            self._done.release()

    def start(self, fn, args: tuple) -> None:
        self._call = (fn, args)
        self._go.release()

    def wait(self) -> None:
        self._done.acquire()
        self._call = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error
