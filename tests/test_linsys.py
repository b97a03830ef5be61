"""Matrix-free normal operator and the two linear solvers behind training.

The operator is theta -> [omega; 0] + rho * Q^T (Q theta) with Q = [A 1]; the
cross-checks below materialize the (m+1)x(m+1) matrix independently.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scsvm import threads
from scsvm.data import SparseDataset, parse_svmlight
from scsvm.linsys import CgConfig, RegularizedNormalOperator, SplitCsr, cg_solve, dense_solve
from scsvm.mpm import RHO_CAP, MpmConfig, matrix_forms, mpm_train

from _util import (
    dense_dataset,
    leases_come_back,
    narrow_cases,
    random_dataset,
    sparse_from_dense,
    watch_helpers,
)

DATA = Path(__file__).resolve().parent.parent / "data"
BUNDLED = ("separable_toy", "noisy_blobs", "dense_mid", "sparse_imbalanced", "tiny")


def one_sample_two():
    # single sample x = [2], label +1
    return dense_dataset([[2.0]], [1.0])


def materialized(op):
    """Independent dense build of [[I 0];[0 0]] + rho * Q^T Q."""
    ds = op.dataset
    a = ds.matrix().toarray()
    q = np.hstack([a, np.ones((ds.n, 1))])
    m = np.zeros((ds.m + 1, ds.m + 1))
    m[: ds.m, : ds.m] = np.eye(ds.m)
    return m + op.rho * (q.T @ q)


def sparse_product_matrix(ds, rho):
    """P^T P + rho Q^T Q with A^T A as the sparse product of the CSC and CSR
    forms, element for element as the operator builds it."""
    m = ds.m
    a = ds.matrix()
    mat = np.zeros((m + 1, m + 1))
    mat[:m, :m] = np.eye(m) + rho * (ds.matrix_t() @ a).toarray()
    col = np.asarray(a.sum(axis=0)).ravel()
    mat[:m, m] = rho * col
    mat[m, :m] = rho * col
    mat[m, m] = rho * ds.n
    return mat


def matrix_free(op, v):
    """[omega; 0] + rho * Q^T (Q v) from the operator's CSR and CSC forms."""
    ds, m = op.dataset, op.dim - 1
    qv = ds.matrix() @ v[:m] + v[m]
    return np.concatenate([v[:m] + op.rho * (ds.matrix_t() @ qv), [op.rho * qv.sum()]])


def gram_cases(rng):
    """Narrow sets with all-zero rows, all-zero columns, or neither, and the
    bundled sets."""
    feats = rng.normal(size=(40, 9)) * (rng.random((40, 9)) < 0.5)
    feats[[3, 4, 39]] = 0.0
    feats[:, [0, 6]] = 0.0
    labels = rng.choice([-1.0, 1.0], size=40)
    return [
        *narrow_cases(rng),
        sparse_from_dense(feats, labels),
        dense_dataset(feats, labels),
        *(parse_svmlight(DATA / name) for name in BUNDLED),
    ]


@pytest.mark.parametrize("rho", [0.4, 10.0])
def test_ndarray_form_dense_matrix_is_the_sparse_product_to_the_bit(rho):
    rng = np.random.default_rng(53)
    for ds in gram_cases(rng):
        a = ds.matrix().toarray()
        want = sparse_product_matrix(ds, rho).tobytes()
        assert RegularizedNormalOperator(ds, rho, (a, a.T)).dense_matrix().tobytes() == want
        assert RegularizedNormalOperator(ds, rho).dense_matrix().tobytes() == want


def test_with_rho_matrix_is_a_fresh_operators_to_the_bit():
    rng = np.random.default_rng(59)
    for ds in gram_cases(rng):
        forms = matrix_forms(ds, dense=True)
        base = RegularizedNormalOperator(ds, 0.4, forms)
        # before and after base has built the Gram that with_rho shares
        for _ in range(2):
            for rho in (1e-8, 0.4, 0.6, 1e3, 1e100, RHO_CAP):
                fresh = RegularizedNormalOperator(ds, rho, forms).dense_matrix()
                assert base.with_rho(rho).dense_matrix().tobytes() == fresh.tobytes()
            base.dense_matrix()


def test_rho_growth_builds_the_gram_once(monkeypatch):
    rng = np.random.default_rng(61)
    ds = dense_dataset(rng.normal(size=(80, 6)), rng.choice([-1.0, 1.0], size=80))
    assert isinstance(matrix_forms(ds, dense=True)[0], np.ndarray)
    calls = []
    matrix_t = SparseDataset.matrix_t

    def counted(self):
        calls.append(None)
        return matrix_t(self)

    monkeypatch.setattr(SparseDataset, "matrix_t", counted)
    cfg = MpmConfig(sr=0.1, rho_growth=1.5, max_outer=30)
    _, report = mpm_train(ds, cfg)
    assert report.solve_path == "dense"
    # rho grew at least 20 times, and only the first operator built A^T A
    assert report.rho_final >= cfg.rho * 1.5**20
    assert len(calls) == 1


def test_apply_hand_example():
    op = RegularizedNormalOperator(one_sample_two(), rho=1.0)
    out = op.apply(np.array([1.0, 1.0]))
    # Qv = 2*1 + 1 = 3; Q^T 3 = [6, 3]; plus [1, 0]
    np.testing.assert_array_equal(out, [7.0, 3.0])


def test_apply_zero_is_zero():
    op = RegularizedNormalOperator(one_sample_two(), rho=0.4)
    np.testing.assert_array_equal(op.apply(np.zeros(2)), np.zeros(2))


def test_apply_dimension_mismatch():
    op = RegularizedNormalOperator(one_sample_two(), rho=1.0)
    with pytest.raises(ValueError):
        op.apply(np.zeros(3))


@pytest.mark.parametrize("rho", [1e-8, 0.1, 0.4, 10.0])
def test_apply_matches_materialized(rho):
    rng = np.random.default_rng(7)
    for _ in range(5):
        ds = random_dataset(rng, n=rng.integers(2, 40), m=rng.integers(1, 30))
        op = RegularizedNormalOperator(ds, rho=rho)
        mat = materialized(op)
        for _ in range(4):
            v = rng.normal(size=ds.m + 1)
            got = op.apply(v)
            want = mat @ v
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("rho", [0.4, 10.0])
def test_ndarray_form_apply_matches_csr_form(rho):
    rng = np.random.default_rng(41)
    for ds in narrow_cases(rng):
        a = ds.matrix().toarray()
        gemv = RegularizedNormalOperator(ds, rho, (a, a.T))
        csr = RegularizedNormalOperator(ds, rho)
        for _ in range(4):
            v = rng.normal(size=ds.m + 1)
            want = csr.apply(v)
            assert np.linalg.norm(gemv.apply(v) - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("rho", [0.4, 10.0])
def test_apply_after_factoring_is_the_product_with_the_matrix(rho):
    rng = np.random.default_rng(67)
    for ds in gram_cases(rng):
        for forms in (None, matrix_forms(ds, dense=True)):
            op = RegularizedNormalOperator(ds, rho, forms)
            dense_solve(op, rng.normal(size=op.dim))
            mat = op.dense_matrix()
            for _ in range(3):
                v = rng.normal(size=op.dim)
                got = op.apply(v)
                assert got.tobytes() == (mat @ v).tobytes()
                want = materialized(op) @ v
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_cg_path_apply_stays_matrix_free():
    rng = np.random.default_rng(71)
    ds = random_dataset(rng, n=50, m=20)
    op = RegularizedNormalOperator(ds, rho=0.4)
    cg_solve(op, rng.normal(size=op.dim))
    for _ in range(4):
        v = rng.normal(size=op.dim)
        assert op.apply(v).tobytes() == matrix_free(op, v).tobytes()


@st.composite
def csr_cases(draw):
    """(features, seed): an n x m matrix whose rows may be empty, whole or in
    between, with entries spread over sixteen orders of magnitude so that a
    change in summation order shows in the bits."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    values = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-8, 8, size=(n, m))
    rows_kept = rng.random(n) < draw(st.sampled_from([0.5, 1.0]))
    return values * (rng.random((n, m)) < density) * rows_kept[:, None], seed


def equal_rows(n, m, per_row):
    # every row holds per_row entries, so half the entries end on a row boundary
    features = np.zeros((n, m))
    features[:, :per_row] = np.arange(1, n * per_row + 1).reshape(n, per_row) / 7.0
    return features


@settings(max_examples=150, deadline=None)
@given(csr_cases())
@example((np.zeros((5, 4)), 0)).via("an all-zero matrix")
@example((np.array([[0.0, 3.0, 0.1, 1e-9]]), 1)).via("n = 1")
@example((np.zeros((1, 3)), 2)).via("n = 1, no entry")
@example((equal_rows(4, 6, 3), 3)).via("the split between two rows of 3 entries")
@example((equal_rows(5, 6, 2), 4)).via("an odd row count of equal rows")
def test_split_products_are_the_sparse_products_to_the_bit(case):
    features, seed = case
    ds = sparse_from_dense(features, np.ones(features.shape[0]))
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        started, ran_on = watch_helpers(monkeypatch)
        with threads.helper() as helper:
            a, at = matrix_forms(ds, False, helper)
            assert isinstance(a, SplitCsr) and isinstance(at, SplitCsr)
            for _ in range(2):
                v = rng.normal(size=ds.m) * 10.0 ** rng.integers(-8, 8, size=ds.m)
                q = rng.normal(size=ds.n) * 10.0 ** rng.integers(-8, 8, size=ds.n)
                assert (a @ v).tobytes() == (ds.matrix() @ v).tobytes()
                assert (at @ q).tobytes() == (ds.matrix_t() @ q).tobytes()
            with pytest.raises(ValueError, match="dimension mismatch"):
                a @ np.ones(ds.m + 1)
        assert ran_on == ["scsvm-helper"] * 4
        assert started.count("scsvm-helper") <= 1
        assert leases_come_back()


def test_operator_is_symmetric_and_positive_definite():
    rng = np.random.default_rng(3)
    ds = random_dataset(rng, n=25, m=12)
    op = RegularizedNormalOperator(ds, rho=0.4)
    for _ in range(20):
        v = rng.normal(size=13)
        w = rng.normal(size=13)
        assert np.dot(op.apply(v), w) == pytest.approx(np.dot(v, op.apply(w)), rel=1e-12)
        assert np.dot(v, op.apply(v)) > 0.0


def test_label_signs_cancel_in_the_normal_matrix():
    # Q^T Q with diag(y) Q equals Q^T Q without it, because diag(y)^2 = I
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, n=15, m=6)
    a = ds.matrix().toarray()
    q = np.hstack([a, np.ones((ds.n, 1))])
    qbar = ds.labels[:, None] * q
    np.testing.assert_allclose(q.T @ q, qbar.T @ qbar, rtol=1e-12, atol=1e-12)


def test_dense_solve_hand_example():
    # matrix [[5, 2], [2, 1]], rhs [7, 3] -> theta [1, 1]
    op = RegularizedNormalOperator(one_sample_two(), rho=1.0)
    np.testing.assert_allclose(materialized(op), [[5.0, 2.0], [2.0, 1.0]])
    out = dense_solve(op, np.array([7.0, 3.0]))
    np.testing.assert_allclose(out.theta, [1.0, 1.0], rtol=1e-12)
    assert out.iterations == 0
    assert out.converged


def test_dense_solve_is_cho_solve_to_the_bit():
    rng = np.random.default_rng(43)
    ds = random_dataset(rng, n=50, m=15)
    op = RegularizedNormalOperator(ds, rho=0.4)
    factor = scipy.linalg.cho_factor(op.dense_matrix())
    for _ in range(5):
        rhs = rng.normal(size=ds.m + 1)
        want = scipy.linalg.cho_solve(factor, rhs)
        first, again = dense_solve(op, rhs), dense_solve(op, rhs)
        assert first.theta.tobytes() == want.tobytes() == again.theta.tobytes()
        assert first.final_residual == again.final_residual


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dense_solve_rejects_a_non_finite_rhs(bad):
    op = RegularizedNormalOperator(one_sample_two(), rho=0.5)
    with pytest.raises(ValueError, match="infs or NaNs"):
        dense_solve(op, np.array([1.0, bad]))


def test_cg_solve_hand_example():
    op = RegularizedNormalOperator(one_sample_two(), rho=1.0)
    out = cg_solve(op, np.array([7.0, 3.0]), CgConfig(tol=1e-12, max_iter=50))
    np.testing.assert_allclose(out.theta, [1.0, 1.0], rtol=1e-10)
    assert out.converged
    assert out.final_residual <= 1e-12


def test_cg_zero_rhs_converges_immediately():
    op = RegularizedNormalOperator(one_sample_two(), rho=1.0)
    out = cg_solve(op, np.zeros(2))
    np.testing.assert_array_equal(out.theta, np.zeros(2))
    assert out.iterations == 0
    assert out.converged


def test_cg_diagonal_system_needs_two_steps():
    # A = 0 makes the operator diag(1, rho*n): two distinct eigenvalues
    ds = SparseDataset(
        row_ptr=np.array([0, 0, 0]),
        col_idx=np.array([], dtype=np.int64),
        values=np.array([]),
        labels=np.array([1.0, -1.0]),
        m=1,
    )
    op = RegularizedNormalOperator(ds, rho=0.4)
    out = cg_solve(op, np.array([2.0, 1.6]), CgConfig(tol=1e-12, max_iter=50))
    np.testing.assert_allclose(out.theta, [2.0, 2.0], rtol=1e-10)
    assert out.iterations <= 2


def test_cg_and_dense_agree():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ds = random_dataset(rng, n=int(rng.integers(5, 60)), m=int(rng.integers(2, 25)))
        rho = float(rng.choice([0.1, 0.4, 10.0]))
        op = RegularizedNormalOperator(ds, rho=rho)
        rhs = rng.normal(size=ds.m + 1)
        direct = dense_solve(op, rhs)
        iterative = cg_solve(op, rhs, CgConfig(tol=1e-10, max_iter=2000))
        assert iterative.converged
        scale = np.linalg.norm(direct.theta)
        assert np.linalg.norm(iterative.theta - direct.theta) <= 1e-6 * max(scale, 1.0)


def test_cg_respects_iteration_cap():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, n=80, m=40)
    op = RegularizedNormalOperator(ds, rho=10.0)
    out = cg_solve(op, rng.normal(size=41), CgConfig(tol=1e-15, max_iter=1))
    assert out.iterations == 1
    assert not out.converged
    assert out.final_residual > 1e-15


def test_cg_energy_norm_error_is_monotone():
    rng = np.random.default_rng(17)
    ds = random_dataset(rng, n=40, m=20)
    op = RegularizedNormalOperator(ds, rho=0.4)
    rhs = rng.normal(size=21)
    exact = dense_solve(op, rhs).theta
    steps = cg_solve(op, rhs, CgConfig(tol=1e-12, max_iter=500)).iterations
    assert steps >= 3
    energies = []
    # a run capped at k steps stops at the k-th iterate of the uncapped run
    for cap in range(1, steps + 1):
        e = cg_solve(op, rhs, CgConfig(tol=1e-12, max_iter=cap)).theta - exact
        energies.append(float(e @ op.apply(e)))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-10 * (1.0 + np.abs(energies[:-1])))


def test_cg_scales_a_large_system_exactly():
    # a power-of-two scale of rhs, guess and tolerance changes no bits, so
    # the solve that cg_solve scales down internally is the unscaled one
    # scaled back, however large rhs grows
    rng = np.random.default_rng(23)
    op = RegularizedNormalOperator(random_dataset(rng, n=40, m=20), rho=0.4)
    rhs, guess = rng.normal(size=21), rng.normal(size=21)
    big = 2.0**900
    for x0 in (None, guess):
        small = cg_solve(op, rhs, CgConfig(tol=1e-9), x0=x0)
        big_x0 = None if x0 is None else x0 * big
        large = cg_solve(op, rhs * big, CgConfig(tol=1e-9 * big), x0=big_x0)
        assert (large.iterations, large.converged) == (small.iterations, small.converged)
        assert large.theta.tobytes() == (small.theta * big).tobytes()
        assert large.final_residual == small.final_residual * big


def test_cg_raises_on_nonfinite():
    class Broken:
        dim = 2

        def apply(self, v):
            return np.array([np.nan, np.nan])

    with pytest.raises(np.linalg.LinAlgError):
        cg_solve(Broken(), np.array([1.0, 1.0]))


def test_cg_warm_start_helps_on_repeated_solve():
    rng = np.random.default_rng(29)
    ds = random_dataset(rng, n=60, m=30)
    op = RegularizedNormalOperator(ds, rho=0.4)
    rhs = rng.normal(size=31)
    cfg = CgConfig(tol=1e-8, max_iter=500)
    cold = cg_solve(op, rhs, cfg)
    warm = cg_solve(op, rhs, cfg, x0=cold.theta)
    assert warm.iterations <= 1
    # the trainer replays its loop once the state repeats, which relies on
    # identical inputs giving identical bits, cold and warm
    guess = rng.normal(size=31)
    for x0 in (None, guess):
        first, again = cg_solve(op, rhs, cfg, x0=x0), cg_solve(op, rhs, cfg, x0=x0)
        assert first.theta.tobytes() == again.theta.tobytes()
        assert (first.iterations, first.final_residual) == (again.iterations, again.final_residual)


def test_config_validation():
    with pytest.raises(ValueError):
        CgConfig(tol=0.0)
    with pytest.raises(ValueError):
        CgConfig(max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1, got 2.5"):
        CgConfig(max_iter=2.5)
    assert CgConfig(max_iter=np.int64(7)).max_iter == 7
