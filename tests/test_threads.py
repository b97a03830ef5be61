"""The helper-thread policy: how many helpers the process hands out."""

from __future__ import annotations

import os
import threading
from contextlib import ExitStack

import pytest

from scsvm import threads


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_helpers_out_stay_below_the_usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    with ExitStack() as stack:
        for _ in range(cpus - 1):
            helper = threads.helper()
            assert helper is not None
            stack.enter_context(helper)
        assert threads.helper() is None
    # each helper's place is given back when its with block exits
    with ExitStack() as stack:
        for _ in range(cpus - 1):
            stack.enter_context(threads.helper())


def helper_running() -> bool:
    return any(t.name == "scsvm-helper" for t in threading.enumerate())


def test_a_helper_starts_its_thread_with_its_first_call(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    ran = []
    with threads.helper() as helper:
        assert not helper_running()
        helper.start(ran.append, (1,))
        helper.wait()
        assert helper_running()
    assert ran == [1]
    assert not helper_running()
