"""The package's one helper-thread policy: whether a call gets a second thread,
where that thread runs, and when it is joined.

The svmlight parser (a stream of more than one batch) and the training loop's
split products (see scsvm.linsys.SplitCsr) each ask helper() for a second
thread, and only this module starts, pins or joins one. helper() gives a
Helper where the process may run on two or more CPUs (usable_cpus()) and
fewer than usable_cpus() - 1 helpers are out in the whole process, and None
otherwise; a caller given None does all of its work on its own thread, with
the same bits. So calls that overlap, such as trainings under run_benchmark
with jobs > 1, share usable_cpus() - 1 helpers: on two CPUs one of them holds
the helper and the others run on their own threads alone.

A Helper runs one call at a time on its thread while the calling thread does
its own share of the work. The two hand the call over through two locks: the
caller stores the call and its arguments, releases the first lock and later
takes the second, which the helper releases when the call has returned. The
helper only runs what the caller built, so it allocates no arrays of its own.

The thread starts with the first call handed over, so a caller can build
what the calls need before it exists, and runs on the caller's CPUs other
than the one the caller is on then. Left to the scheduler, a thread woken
over and over by a busy caller is placed on the caller's own CPU and the two
halves of a product run one after the other; on a 2-CPU host that made a
split product slower than one on the calling thread alone.
"""

from __future__ import annotations

import ctypes
import os
import threading
from functools import cache

__all__ = ["Helper", "helper", "usable_cpus"]

# guards the count of helpers out: a Helper counts from its construction
# until its with block exits
_HELPERS_LOCK = threading.RLock()
_helpers_out = 0


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def helper() -> Helper | None:
    """An unstarted Helper, to be entered in a with block at once, or None on
    one CPU or where usable_cpus() - 1 helpers are out already."""
    with _HELPERS_LOCK:
        if _helpers_out >= usable_cpus() - 1:
            return None
        return Helper()


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
    if not hasattr(os, "sched_setaffinity"):
        return
    getcpu = _sched_getcpu()
    if getcpu is None:
        return
    others = os.sched_getaffinity(0) - {getcpu()}
    if others:
        try:
            os.sched_setaffinity(thread_id, others)
        except OSError:  # the thread's CPUs are not this thread's to set
            pass


class Helper:
    """A thread that runs one call at a time for the thread that made it.

    start(fn, args) hands fn(*args) to it and returns at once, starting the
    thread on the first call; wait() returns once that call has returned, and
    raises what it raised. The thread is stopped and joined when the with
    block that entered the helper exits, and the helper is no longer counted
    as out.
    """

    def __init__(self):
        global _helpers_out
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        self._call = None
        self._error = None
        self._thread = threading.Thread(target=self._serve, name="scsvm-helper", daemon=True)
        with _HELPERS_LOCK:
            _helpers_out += 1

    def _serve(self):
        while True:
            self._go.acquire()
            if self._call is None:
                return
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
        if self._thread.ident is None:
            self._thread.start()
            _pin_elsewhere(self._thread.native_id)
        self._go.release()

    def wait(self) -> None:
        self._done.acquire()
        self._call = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> Helper:
        return self

    def __exit__(self, *exc_info) -> None:
        global _helpers_out
        try:
            if self._thread.ident is not None:
                self._call = None
                # only this thread releases _go; where a release is still
                # untaken (wait() interrupted), the helper takes it and finds
                # no call
                if self._go.locked():
                    self._go.release()
                self._thread.join()
        finally:
            with _HELPERS_LOCK:
                _helpers_out -= 1
