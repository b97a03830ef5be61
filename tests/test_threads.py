"""The helper-thread policy: how many helpers the process leases out, and what
a lease gives back."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path

import pytest

import scsvm
from scsvm import threads

from _util import leases_come_back, watch_helpers


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_helpers_out_stay_below_the_usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started, _ = watch_helpers(monkeypatch)
    for _ in range(3):
        with ExitStack() as stack:
            for _ in range(cpus - 1):
                assert stack.enter_context(threads.helper()) is not None
            assert stack.enter_context(threads.helper()) is None
        # each lease is given back when its with block exits
        assert leases_come_back()
    assert started.count("scsvm-helper") <= cpus - 1


def test_a_lease_hands_out_an_idle_helper_again(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    started, ran_on = watch_helpers(monkeypatch)
    lent, ran = [], []
    for k in range(3):
        with threads.helper() as helper:
            lent.append(helper)
            helper.start(ran.append, (k,))
            helper.wait()
    assert ran == [0, 1, 2]
    assert ran_on == ["scsvm-helper"] * 3
    assert lent[0] is lent[1] is lent[2]
    assert started.count("scsvm-helper") <= 1


def test_a_lease_that_never_waits_raises_once_the_call_returned(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    returned = threading.Event()

    def slow():
        time.sleep(0.05)
        returned.set()

    with pytest.raises(RuntimeError, match="a helper call was started and never waited for"):
        with threads.helper() as helper:
            helper.start(slow, ())
    assert returned.is_set()
    # an error of the block itself is the one raised
    with pytest.raises(KeyError):
        with threads.helper() as helper:
            helper.start(slow, ())
            raise KeyError("the block failed")
    # the helper is back, ready for the next call
    with threads.helper() as helper:
        ran = []
        helper.start(ran.append, (1,))
        helper.wait()
    assert ran == [1]
    assert leases_come_back()


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run script in a new interpreter that imports this checkout's scsvm."""
    src = str(Path(scsvm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


# a fresh process that reports two usable CPUs, parses in 2 KB batches and
# splits the products of any CG training
TWO_CPUS = """
import io, os, sys, threading, time
import numpy as np
os.sched_getaffinity = lambda pid: {0, 1}
from scsvm import data, mpm
data._BATCH_CHARS = 2_000
mpm._SPLIT_MIN_NNZ = 0
rng = np.random.default_rng(5)
TEXT = "".join(
    f"{1 if i % 3 else -1} 1:{rng.normal():.4f} 7:{rng.normal():.4f} 120:{i % 5}\\n"
    for i in range(2_000)
)
CFG = mpm.MpmConfig(sr=0.1, max_outer=5, dense_threshold=1)

def parse_and_train():
    ds = data.parse_svmlight(io.StringIO(TEXT))
    model, report = mpm.mpm_train(ds, CFG)
    assert report.solve_path == "cg"
    return ds.values.tobytes() + model.omega.tobytes()
"""


def test_parses_and_split_trainings_start_one_helper_in_all():
    script = TWO_CPUS + """
started = []
real_start = threading.Thread.start
def start(thread):
    started.append(thread.name)
    real_start(thread)
threading.Thread.start = start
first = parse_and_train()
for _ in range(9):
    assert parse_and_train() == first
print(started.count("scsvm-helper"))
"""
    run = run_python(script)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks the process")
def test_a_forked_child_parses_and_trains_after_a_two_thread_parse():
    script = TWO_CPUS + """
want = parse_and_train()
pid = os.fork()
if pid == 0:
    os._exit(0 if parse_and_train() == want else 3)
deadline = time.monotonic() + 10
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit("the child was still running after 10 s")
"""
    run = run_python(script)
    assert run.returncode == 0, run.stderr
