"""The CPUs the process may use, and one helper thread beside the caller.

usable_cpus() is the one CPU rule of the package: the svmlight parser and
the training loop's split products (see scsvm.linsys.SplitCsr) each run on a
second thread only where it returns two or more.

A Helper runs one call at a time on its thread while the calling thread does
its own share of the work. The two hand the call over through two locks: the
caller stores the call and its arguments, releases the first lock and later
takes the second, which the helper releases when the call has returned. The
helper only runs what the caller built, so it allocates no arrays of its own.

The helper runs on the caller's CPUs other than the one the caller is on when
the helper starts. Left to the scheduler, a thread woken over and over by a
busy caller is placed on the caller's own CPU and the two halves of a product
run one after the other; on a 2-CPU host that made a split product slower
than one on the calling thread alone.
"""

from __future__ import annotations

import ctypes
import os
import threading
from functools import cache

__all__ = ["Helper", "usable_cpus"]


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    The thread starts when a with block enters the helper, and is stopped and
    joined when the block exits. start(fn, args) hands fn(*args) to it and
    returns at once; wait() returns once that call has returned, and raises
    what it raised.
    """

    def __init__(self):
        self._go = threading.Lock()
        self._go.acquire()
        self._done = threading.Lock()
        self._done.acquire()
        self._call = None
        self._error = None
        self._thread = threading.Thread(target=self._serve, name="scsvm-helper", daemon=True)

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
        self._go.release()

    def wait(self) -> None:
        self._done.acquire()
        self._call = None
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def __enter__(self) -> "Helper":
        self._thread.start()
        _pin_elsewhere(self._thread.native_id)
        return self

    def __exit__(self, *exc_info) -> None:
        self._call = None
        # only this thread releases _go; where a release is still untaken
        # (wait() interrupted), the helper takes it and finds no call
        if self._go.locked():
            self._go.release()
        self._thread.join()
