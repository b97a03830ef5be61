"""Builders and checks shared by the test modules."""

from __future__ import annotations

import gc
import os
import threading
import tracemalloc
from contextlib import ExitStack
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

import scsvm
import scsvm.mpm as mpm_module
from scsvm import threads
from scsvm.data import SparseDataset


def random_dataset(rng, n, m, density=0.3, scale=1.0):
    """Random CSR dataset with signed labels; every row gets >= 1 entry."""
    cols = []
    row_ptr = [0]
    for _ in range(n):
        k = max(1, rng.binomial(m, density))
        cols.append(np.sort(rng.choice(m, size=k, replace=False)))
        row_ptr.append(row_ptr[-1] + k)
    col_idx = np.concatenate(cols)
    values = rng.normal(scale=scale, size=col_idx.size)
    labels = rng.choice([-1.0, 1.0], size=n)
    return SparseDataset(
        row_ptr=np.array(row_ptr, dtype=np.int64),
        col_idx=col_idx.astype(np.int64),
        values=values,
        labels=labels,
        m=m,
    )


def dense_dataset(features, labels):
    """Dataset from a dense feature matrix, zeros kept as explicit entries."""
    features = np.asarray(features, dtype=np.float64)
    n, m = features.shape
    row_ptr = np.arange(0, n * m + 1, m, dtype=np.int64)
    col_idx = np.tile(np.arange(m, dtype=np.int64), n)
    return SparseDataset(
        row_ptr=row_ptr,
        col_idx=col_idx,
        values=features.ravel().copy(),
        labels=np.asarray(labels, dtype=np.float64),
        m=m,
    )


def gaussian_blobs(rng, n, center_distance=6.0, spread=0.6, min_gap=2.5, dim=2):
    """Two Gaussian clusters at +-center_distance/2 on the first axis.

    Points falling inside the central band |x_1| < min_gap/2 are resampled,
    so a separator with functional margin >= 1 always exists.
    """
    half = center_distance / 2.0
    feats = np.empty((n, dim))
    labels = np.empty(n)
    for i in range(n):
        y = -1.0 if i % 2 else 1.0
        while True:
            x = rng.normal(scale=spread, size=dim)
            x[0] += y * half
            if abs(x[0]) >= min_gap / 2.0:
                break
        feats[i] = x
        labels[i] = y
    return dense_dataset(feats, labels)


def noisy_linear_dataset(rng, n, m, flip=0.1, density=0.5):
    """Labels from a random linear rule with a share of sign flips."""
    ds = random_dataset(rng, n, m, density=density)
    w = rng.normal(size=m)
    b = rng.normal() * 0.1
    scores = ds.matrix() @ w + b
    labels = np.where(scores >= 0, 1.0, -1.0)
    flips = rng.random(n) < flip
    labels[flips] *= -1.0
    return SparseDataset(ds.row_ptr, ds.col_idx, ds.values, labels, ds.m)


def sparse_from_dense(features, labels):
    """Dataset from a dense feature matrix with its zeros dropped, so an
    all-zero row holds no entries."""
    a = sp.csr_matrix(np.asarray(features, dtype=np.float64))
    return SparseDataset(a.indptr, a.indices, a.data, np.asarray(labels, dtype=np.float64), a.shape[1])


def narrow_cases(rng):
    """Narrow datasets for comparing the ndarray form of A with its CSR form:
    a sparse one with all-zero rows, a fully dense one, a label-only one."""
    feats = rng.normal(size=(60, 12)) * (rng.random((60, 12)) < 0.4)
    feats[[0, 5, 17, 59]] = 0.0
    labels = rng.choice([-1.0, 1.0], size=60)
    dense = rng.normal(scale=3.0, size=(30, 7))
    return [
        sparse_from_dense(feats, labels),
        dense_dataset(dense, rng.choice([-1.0, 1.0], size=30)),
        sparse_from_dense(np.zeros((9, 0)), rng.choice([-1.0, 1.0], size=9)),
    ]


def count_solves(monkeypatch) -> list:
    """Wrap the trainer's dense and CG solves; the returned list gains one
    entry per call."""
    calls = []
    for name in ("dense_solve", "cg_solve"):
        solve = getattr(mpm_module, name)

        def counted(*args, _solve=solve, **kwargs):
            calls.append(None)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(mpm_module, name, counted)
    return calls


def assert_replayed(report, solves: int):
    """A run whose state repeated solved once per iteration up to the repeat,
    and every record after it equals the record one period earlier."""
    assert report.repeat_period in (1, 2)
    assert solves == report.repeat_k
    assert report.outer_iters == len(report.history) - 1
    assert report.total_cg == sum(rec.cg_iterations for rec in report.history)
    for record in report.history[report.repeat_k + 1:]:
        assert record == replace(report.history[record.k - report.repeat_period], k=record.k)


def bytes_kept_per_object(serialize, make, count=1_000) -> float:
    """Bytes still allocated per object, by lines of the scsvm package, after
    serialize(obj) ran over `count` fresh objects from make(count) and its
    results were dropped.

    A first pass over other objects fills the interpreter's free lists, so that
    what is left is what the objects themselves keep. The garbage collector
    runs before the traced window and not inside it, and only blocks traced to
    the package's files count, so that a collection or another thread's
    allocations in the window are not taken for bytes the objects keep.
    """
    for obj in make(3 * count):
        serialize(obj)
    objects = make(count)
    package = [tracemalloc.Filter(True, os.path.join(os.path.dirname(scsvm.__file__), "*"))]
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for obj in objects:
            serialize(obj)
        kept = tracemalloc.take_snapshot().filter_traces(package)
    finally:
        tracemalloc.stop()
        gc.enable()
    return sum(stat.size for stat in kept.statistics("filename")) / count


def watch_helpers(monkeypatch) -> tuple[list, list]:
    """(started, ran_on): from now on, the name of each thread started, and
    the name of the thread each call handed to a helper ran on."""
    started, ran_on = [], []
    real_start, real_handover = threading.Thread.start, threads.Helper.start

    def start(thread):
        started.append(thread.name)
        real_start(thread)

    def handover(helper, fn, args):
        def run(*args):
            ran_on.append(threading.current_thread().name)
            return fn(*args)

        real_handover(helper, run, args)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(threads.Helper, "start", handover)
    return started, ran_on


def leases_come_back() -> bool:
    """Whether usable_cpus() - 1 helpers can be leased at once, as they can
    once every call that held one has given it back."""
    with ExitStack() as stack:
        leases = [stack.enter_context(threads.helper()) for _ in range(threads.usable_cpus() - 1)]
        return all(lease is not None for lease in leases)
