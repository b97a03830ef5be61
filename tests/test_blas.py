"""BLAS thread count during training: one thread inside, restored after."""

import threading

import numpy as np
import pytest

import scsvm.mpm as mpm_module
from scsvm.blas import one_thread, openblas_controls
from scsvm.mpm import MpmConfig, mpm_train

from _util import dense_dataset

pytestmark = pytest.mark.skipif(not openblas_controls(), reason="no OpenBLAS library found")


def thread_counts():
    return [get_threads() for _, get_threads in openblas_controls()]


def set_thread_counts(count):
    for set_threads, _ in openblas_controls():
        set_threads(count)


@pytest.fixture
def two_threads():
    """Every OpenBLAS library at two threads for the test, as a default
    build on a two-core machine starts; the counts found are put back."""
    before = thread_counts()
    set_thread_counts(2)
    yield
    for (set_threads, _), count in zip(openblas_controls(), before):
        set_threads(count)


def large_dense_dataset():
    """10000 x 50, dense: A^T y at this size is one BLAS gemv that OpenBLAS
    splits across threads when it may."""
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(10_000, 50))
    labels = np.where(feats @ rng.normal(size=50) >= 0.0, 1.0, -1.0)
    labels[rng.random(10_000) < 0.05] *= -1.0
    return dense_dataset(feats, labels)


def test_training_runs_on_one_thread_and_restores_the_count(monkeypatch, two_threads):
    seen = []
    solve = mpm_module.dense_solve

    def recording_solve(op, rhs):
        seen.append(thread_counts())
        return solve(op, rhs)

    monkeypatch.setattr(mpm_module, "dense_solve", recording_solve)
    mpm_train(large_dense_dataset(), MpmConfig(sr=0.10, max_outer=3))
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert thread_counts() == [2] * len(openblas_controls())


def test_the_count_is_restored_when_training_raises(two_threads):
    with pytest.raises(ValueError):
        mpm_train(dense_dataset(np.zeros((0, 3)), []), MpmConfig(sr=0.10))
    assert thread_counts() == [2] * len(openblas_controls())


def test_model_does_not_depend_on_the_blas_thread_count(two_threads):
    ds, cfg = large_dense_dataset(), MpmConfig(sr=0.10, max_outer=20)
    model_2, report_2 = mpm_train(ds, cfg)
    set_thread_counts(1)
    model_1, report_1 = mpm_train(ds, cfg)
    assert model_1.omega.tobytes() == model_2.omega.tobytes()
    assert model_1.b == model_2.b
    assert report_1.objective_history().tobytes() == report_2.objective_history().tobytes()


def test_nested_and_concurrent_blocks_restore_once(two_threads):
    inside, release = threading.Event(), threading.Event()

    def hold():
        with one_thread():
            inside.set()
            release.wait(timeout=10)

    worker = threading.Thread(target=hold)
    worker.start()
    try:
        assert inside.wait(timeout=10)
        with one_thread():
            with one_thread():
                assert thread_counts() == [1] * len(openblas_controls())
            assert thread_counts() == [1] * len(openblas_controls())
        # the worker's block is still open
        assert thread_counts() == [1] * len(openblas_controls())
    finally:
        release.set()
        worker.join(timeout=10)
    assert thread_counts() == [2] * len(openblas_controls())
