"""Trainer tests: progress measures, majorization, the outer loop, reports."""

import io
import json
import logging
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scsvm.linsys as linsys_module
import scsvm.mpm as mpm_module
from scsvm import threads
from scsvm.data import SparseDataset, parse_svmlight
from scsvm.evaluate import predicted_labels
from scsvm.linsys import CgConfig, RegularizedNormalOperator, SplitCsr, cg_solve, dense_solve
from scsvm.mpm import (
    IterationRecord,
    ModelTheta,
    MpmConfig,
    TrainReport,
    f_prog,
    majorization_rhs,
    majorized_penalty,
    margin,
    matrix_forms,
    mpm_train,
    objective_components,
    p_prog,
)
from scsvm.projection import g_value, project_omega_s

from _util import (
    assert_replayed,
    bytes_kept_per_object,
    count_solves,
    dense_dataset,
    gaussian_blobs,
    leases_come_back,
    narrow_cases,
    noisy_linear_dataset,
    random_dataset,
    watch_helpers,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def tight_pair_clusters(n: int, center: float = 10.0, seed: int = 0) -> SparseDataset:
    """Two opposing clusters so tight their axis coordinate quantizes to the
    exact center value in float64. Linearly separable with margin >= 1 by
    construction (omega = [2/center, 0], b = 0 works)."""
    rng = np.random.default_rng(seed)
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    x = np.empty((n, 2))
    x[:, 0] = labels * center + rng.normal(0.0, 1e-20, n)
    x[:, 1] = rng.normal(0.0, 1e-20, n)
    return dense_dataset(x, labels)


# --- configuration -------------------------------------------------------


def test_config_requires_exactly_one_budget_form():
    with pytest.raises(ValueError, match="exactly one"):
        MpmConfig(s=3, sr=0.1)
    with pytest.raises(ValueError, match="exactly one"):
        MpmConfig()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"s": -1},
        {"s": True},
        {"sr": -0.01},
        {"sr": 1.5},
        {"s": 0, "rho": 0.0},
        {"s": 0, "rho": -1.0},
        {"s": 0, "p_tol": 0.0},
        {"s": 0, "f_tol_factor": -1e-3},
        {"s": 0, "max_outer": 0},
        {"s": 0, "rho_growth": 0.5},
        {"s": 2.5},
        {"s": 0, "rho_growth": float("nan")},
        {"s": 0, "max_outer": 2.5},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        MpmConfig(**kwargs)


def test_budget_resolution_rounds_half_up():
    assert MpmConfig(sr=0.10).resolve_budget(1605) == 161  # 160.5 rounds up
    assert MpmConfig(sr=0.10).resolve_budget(270) == 27
    assert MpmConfig(sr=0.05).resolve_budget(270) == 14   # 13.5 rounds up
    assert MpmConfig(sr=0.50).resolve_budget(5) == 3
    assert MpmConfig(sr=0.0).resolve_budget(7) == 0
    assert MpmConfig(sr=1.0).resolve_budget(7) == 7
    assert MpmConfig(s=4).resolve_budget(9) == 4
    assert MpmConfig(s=np.int64(4), max_outer=np.int32(3)).resolve_budget(9) == 4


def test_budget_larger_than_dataset_is_rejected():
    with pytest.raises(ValueError, match="exceeds"):
        MpmConfig(s=10).resolve_budget(4)


# --- margins and objective ------------------------------------------------


def test_margin_at_zero_model_is_all_ones():
    ds = random_dataset(np.random.default_rng(3), n=11, m=5)
    z = margin(ModelTheta(np.zeros(5), 0.0), ds)
    np.testing.assert_array_equal(z, np.ones(11))


def test_margin_single_sample_examples():
    # x=[2], y=+1, omega=[1], b=0: z = 1 - 2 = -1
    ds = dense_dataset([[2.0]], [1.0])
    np.testing.assert_array_equal(margin(ModelTheta([1.0], 0.0), ds), [-1.0])
    # x=[2], y=-1, omega=[1], b=1: z = 1 + 3 = 4
    ds = dense_dataset([[2.0]], [-1.0])
    np.testing.assert_array_equal(margin(ModelTheta([1.0], 1.0), ds), [4.0])


def test_margin_rejects_feature_mismatch():
    ds = dense_dataset([[1.0, 2.0]], [1.0])
    with pytest.raises(ValueError, match="features"):
        margin(ModelTheta([1.0], 0.0), ds)


def test_objective_at_zero_model():
    """At theta = 0 every margin is 1, so p = (n - s)/2 and f = 0."""
    ds = random_dataset(np.random.default_rng(5), n=12, m=4)
    for s in (0, 3, 12):
        cfg = MpmConfig(s=s, rho=0.4)
        f, p, big_f = objective_components(ModelTheta(np.zeros(4), 0.0), ds, cfg)
        assert f == 0.0
        assert p == (12 - s) / 2
        assert big_f == cfg.rho * p


def test_objective_zero_penalty_on_feasible_model():
    ds = tight_pair_clusters(20)
    model = ModelTheta([0.5, 0.0], 0.0)  # margins 5 on both sides
    f, p, big_f = objective_components(model, ds, MpmConfig(s=0))
    assert p == 0.0
    assert f == pytest.approx(0.125, rel=1e-15)
    assert big_f == f


# --- progress measures ----------------------------------------------------


def test_f_prog_examples():
    assert f_prog(2.5, 2.5, 0.4) == 0.0
    assert f_prog(1.0, 0.5, 0.4) == pytest.approx(0.5 / 1.4, rel=1e-15)
    assert f_prog(1.0, 0.5, 0.4) == pytest.approx(0.35714, abs=1e-5)
    # signed: an increase in f comes out negative
    assert f_prog(0.5, 1.0, 0.4) < 0.0


def test_p_prog_cases():
    assert p_prog(np.array([0.0, 0.0]), 0.0) == 0.0
    assert p_prog(np.array([3.0, 4.0]), 2.0) == pytest.approx(0.16, rel=1e-15)
    assert p_prog(np.zeros(3), 0.5) == math.inf
    # feasibility wins even at theta = 0
    assert p_prog(np.zeros(3), 0.0) == 0.0


# --- majorization ---------------------------------------------------------


def test_rhs_on_separating_model_matches_quadratic_term():
    """With every margin >= 1 the projection is the identity and the rhs
    collapses to rho * Q^T Q theta."""
    ds = tight_pair_clusters(16)
    cfg = MpmConfig(s=0, rho=0.4)
    model = ModelTheta([0.5, 0.0], 0.0)
    theta = model.as_vector()
    rhs = majorization_rhs(model, ds, cfg)
    op = RegularizedNormalOperator(ds, cfg.rho)
    quad = op.apply(theta) - np.concatenate([model.omega, [0.0]])
    np.testing.assert_allclose(rhs, quad, rtol=1e-12, atol=1e-12)


def test_rhs_zero_model_vacuous_budget():
    ds = random_dataset(np.random.default_rng(7), n=9, m=4)
    rhs = majorization_rhs(ModelTheta(np.zeros(4), 0.0), ds, MpmConfig(s=9))
    np.testing.assert_array_equal(rhs, np.zeros(5))


def test_rhs_two_sample_hand_expansion():
    # x1=[1,0] y=+1, x2=[0,2] y=-1, omega=[1,1], b=0, s=1, rho=0.4:
    # z = [0, 3], projection keeps the single positive entry, u = [1, -2],
    # Qbar^T u = [1, 4, 3].
    ds = dense_dataset([[1.0, 0.0], [0.0, 2.0]], [1.0, -1.0])
    rhs = majorization_rhs(ModelTheta([1.0, 1.0], 0.0), ds, MpmConfig(s=1, rho=0.4))
    np.testing.assert_allclose(rhs, [0.4, 1.6, 1.2], rtol=1e-15)


def test_ndarray_form_margin_and_rhs_match_csr_form():
    rng = np.random.default_rng(53)
    for ds in narrow_cases(rng):
        a = ds.matrix().toarray()
        for _ in range(4):
            omega, b = rng.normal(size=ds.m), float(rng.normal())
            want = mpm_module._margin(omega, b, ds.labels, ds.matrix())
            got = mpm_module._margin(omega, b, ds.labels, a)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            projected = project_omega_s(want, ds.n // 5).projected
            want = mpm_module._rhs(projected, ds.labels, ds.matrix_t(), 0.4)
            got = mpm_module._rhs(projected, ds.labels, a.T, 0.4)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_majorized_penalty_matches_true_penalty_at_reference():
    rng = np.random.default_rng(11)
    for _ in range(25):
        ds = random_dataset(rng, n=14, m=6)
        ref = ModelTheta(rng.normal(size=6), float(rng.normal()))
        s = int(rng.integers(0, 15))
        p_ref = g_value(margin(ref, ds), s)
        pm = majorized_penalty(ref, ref, ds, s)
        assert pm == pytest.approx(p_ref, rel=1e-12, abs=1e-300)


def test_majorized_penalty_dominates_true_penalty():
    rng = np.random.default_rng(13)
    for _ in range(25):
        ds = random_dataset(rng, n=12, m=5)
        ref = ModelTheta(rng.normal(size=5), float(rng.normal()))
        probe = ModelTheta(rng.normal(size=5), float(rng.normal()))
        s = int(rng.integers(0, 13))
        p_probe = g_value(margin(probe, ds), s)
        pm = majorized_penalty(probe, ref, ds, s)
        assert pm >= p_probe - 1e-10 * (1.0 + abs(p_probe))


def test_projection_subgradient_inequality():
    """h(theta) - h(ref) >= <-Qbar^T Pi(z_ref), theta - ref> where
    h(theta) = 0.5 dist^2... expressed through the margin geometry: the
    concave part of the penalty admits Qbar^T Pi as a subgradient."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        ds = random_dataset(rng, n=10, m=4)
        s = int(rng.integers(0, 11))
        ref = ModelTheta(rng.normal(size=4), float(rng.normal()))
        probe = ModelTheta(rng.normal(size=4), float(rng.normal()))

        def h(model):
            z = margin(model, ds)
            from scsvm.projection import project_omega_s

            return 0.5 * float(z @ z) - project_omega_s(z, s).dist_sq

        from scsvm.projection import project_omega_s

        pi_ref = project_omega_s(margin(ref, ds), s).projected
        grad = np.concatenate(
            [ds.matrix().T @ (ds.labels * pi_ref), [float((ds.labels * pi_ref).sum())]]
        )
        gap = h(probe) - h(ref) - float(-grad @ (probe.as_vector() - ref.as_vector()))
        assert gap >= -1e-9 * (1.0 + abs(h(probe)) + abs(h(ref)))


# --- training loop --------------------------------------------------------


def test_vacuous_budget_terminates_immediately():
    ds = random_dataset(np.random.default_rng(19), n=15, m=6)
    model, report = mpm_train(ds, MpmConfig(s=15))
    assert report.termination == "converged"
    assert report.outer_iters <= 3
    assert np.all(model.as_vector() == 0.0)
    f, p, _ = objective_components(model, ds, MpmConfig(s=15))
    assert f == 0.0 and p == 0.0


def test_hard_margin_limit_reaches_exact_feasibility():
    """s=0 on well-separated tight clusters: the hardening schedule drives
    every margin to 1 exactly, so the run exits feasible with no
    misclassifications."""
    ds = tight_pair_clusters(40)
    cfg = MpmConfig(s=0, rho_growth=10.0, p_tol=1e-40)
    model, report = mpm_train(ds, cfg)
    assert report.termination == "converged"
    _, p, _ = objective_components(model, ds, MpmConfig(s=0))
    assert p == 0.0
    assert report.history[-1].p_progress == 0.0
    z = margin(model, ds)
    assert int(np.sum(z > 0.0)) == 0
    assert int(np.sum(z > 1.0)) == 0  # no outright misclassifications


def test_hard_margin_default_config_separates_scaled_clusters():
    # fixed-rho run on the same geometry: converges with zero training
    # errors even though a few margins may sit just under 1
    ds = tight_pair_clusters(80)
    model, report = mpm_train(ds, MpmConfig(s=0))
    assert report.termination == "converged"
    scores = ds.labels * (ds.matrix() @ model.omega + model.b)
    assert int(np.sum(scores < 0.0)) == 0


def test_objective_descent_dense_path():
    rng = np.random.default_rng(23)
    for trial in range(6):
        ds = noisy_linear_dataset(rng, n=40, m=8, flip=0.15)
        s = int(rng.integers(0, 12))
        _, report = mpm_train(ds, MpmConfig(s=s))
        vals = report.objective_history()
        drops = np.diff(vals)
        assert np.all(drops <= 1e-10 * (1.0 + np.abs(vals[:-1])))


def test_objective_descent_cg_path():
    """Low-dimensional structure padded with never-observed tail features:
    wide enough to engage CG, mild enough to converge before the stall
    regime where solver inexactness can wiggle the objective."""
    rng = np.random.default_rng(43)
    ds = noisy_linear_dataset(rng, n=40, m=8, flip=0.1).with_feature_count(150)
    _, report = mpm_train(ds, MpmConfig(sr=0.5))
    assert report.termination == "converged"
    assert report.total_cg > 0
    vals = report.objective_history()
    drops = np.diff(vals)
    assert np.all(drops <= 1e-10 * (1.0 + np.abs(vals[:-1])))


@pytest.mark.parametrize(
    "density, dense_threshold, form, solve_path",
    [
        # 2% dense: the CSR arrays take less memory than an ndarray would
        pytest.param(0.02, 100, "csr", "dense", id="sparse-narrow"),
        pytest.param(1.0, 100, "ndarray", "dense", id="dense-narrow"),
        # below the split floor, or on one CPU, the CG path keeps the CSR
        # forms whatever the density
        pytest.param(1.0, 10, "csr", "cg", id="dense-wide"),
        # at or above it, on two CPUs, it splits its products
        pytest.param(1.0, 10, "split", "cg", id="dense-wide-split"),
    ],
)
def test_training_form_follows_the_solve_path_and_memory_rule(
    monkeypatch, density, dense_threshold, form, solve_path
):
    ds = noisy_linear_dataset(np.random.default_rng(59), n=5000, m=50, density=density)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    floor = ds.nnz if form == "split" else ds.nnz + 1
    monkeypatch.setattr(mpm_module, "_SPLIT_MIN_NNZ", floor)
    chosen = []

    def spy(ds, dense, helper=None):
        chosen.append(matrix_forms(ds, dense, helper))
        return chosen[-1]

    monkeypatch.setattr(mpm_module, "matrix_forms", spy)
    _, report = mpm_train(ds, MpmConfig(sr=0.1, max_outer=3, dense_threshold=dense_threshold))
    assert report.solve_path == solve_path
    ((a, at),) = chosen
    if form == "csr":
        assert a is ds.matrix() and at is ds.matrix_t()
    elif form == "split":
        assert isinstance(a, SplitCsr) and isinstance(at, SplitCsr)
        assert (a.shape, at.shape) == ((ds.n, ds.m), (ds.m, ds.n))
    else:
        assert isinstance(a, np.ndarray) and a.flags.c_contiguous
        assert at.base is a and at.shape == (ds.m, ds.n)


def test_narrow_data_never_touches_cg():
    rng = np.random.default_rng(31)
    ds = noisy_linear_dataset(rng, n=50, m=20)
    _, report = mpm_train(ds, MpmConfig(sr=0.15))
    assert report.total_cg == 0
    assert all(rec.cg_iterations == 0 for rec in report.history)


def test_history_bookkeeping():
    rng = np.random.default_rng(37)
    ds = noisy_linear_dataset(rng, n=30, m=6)
    cfg = MpmConfig(sr=0.2, rho=0.4)
    model, report = mpm_train(ds, cfg)
    assert report.budget == cfg.resolve_budget(30)
    assert report.outer_iters == report.history[-1].k
    assert len(report.history) == report.outer_iters + 1
    assert report.history[0].k == 0
    assert report.history[0].f_progress is None
    assert report.wall_time_s >= 0.0
    assert report.rho_final == cfg.rho
    # records are self-consistent and match the returned model
    f, p, big_f = objective_components(model, ds, cfg)
    last = report.history[-1]
    assert last.f_value == f and last.penalty == p and last.objective == big_f
    for prev, rec in zip(report.history, report.history[1:]):
        assert rec.objective == rec.f_value + cfg.rho * rec.penalty
        assert rec.f_progress == f_prog(prev.f_value, rec.f_value, cfg.rho)


def test_max_outer_reports_nonconvergence():
    ds = gaussian_blobs(np.random.default_rng(41), n=40)
    _, report = mpm_train(ds, MpmConfig(s=0, max_outer=2))
    assert report.termination == "max_outer"
    assert report.outer_iters == 2
    assert len(report.history) == 3


def test_stationarity_residual_at_tight_convergence():
    """At a tightly converged exit the fixed-point residual of the normal
    system, evaluated with the exit iterate's own projection, is tiny."""
    rng = np.random.default_rng(43)
    ds = noisy_linear_dataset(rng, n=40, m=8, flip=0.1)
    cfg = MpmConfig(sr=0.5, f_tol_factor=1e-12, p_tol=1e-10, max_outer=5000)
    model, report = mpm_train(ds, cfg)
    assert report.termination == "converged"
    rhs = majorization_rhs(model, ds, cfg)
    op = RegularizedNormalOperator(ds, cfg.rho)
    residual = np.linalg.norm(op.apply(model.as_vector()) - rhs)
    assert residual <= max(1e-12, 1e-6 * np.linalg.norm(rhs))


def test_subproblem_dense_cg_agreement_inside_run():
    rng = np.random.default_rng(47)
    ds = noisy_linear_dataset(rng, n=35, m=7)
    cfg = MpmConfig(sr=0.2)
    model, _ = mpm_train(ds, cfg)
    rhs = majorization_rhs(model, ds, cfg)
    op = RegularizedNormalOperator(ds, cfg.rho)
    direct = dense_solve(op, rhs)
    iterative = cg_solve(op, rhs, CgConfig(tol=1e-10, max_iter=2000))
    assert iterative.converged
    scale = np.linalg.norm(direct.theta)
    assert np.linalg.norm(direct.theta - iterative.theta) <= 1e-6 * max(scale, 1.0)


def test_rho_growth_saturates_instead_of_overflowing():
    ds = gaussian_blobs(np.random.default_rng(53), n=30)
    cfg = MpmConfig(s=0, rho_growth=10.0, p_tol=1e-40, max_outer=250)
    _, report = mpm_train(ds, cfg)
    assert report.termination == "max_outer"
    assert report.rho_final == 1e200
    assert math.isfinite(report.history[-1].objective)


@pytest.mark.parametrize("warm, repeat_k", [(True, 18), (False, 103)])
def test_cg_fixed_point_is_replayed(monkeypatch, warm, repeat_k):
    # a warm start at a fixed point passes CG's test before its first step
    rng = np.random.default_rng(43)
    ds = noisy_linear_dataset(rng, n=40, m=8, flip=0.1).with_feature_count(150)
    solves = count_solves(monkeypatch)
    _, report = mpm_train(ds, MpmConfig(sr=0.1, cg_warm_start=warm))
    assert (report.solve_path, report.termination, report.outer_iters) == ("cg", "max_outer", 1000)
    assert (report.repeat_k, report.repeat_period) == (repeat_k, 1)
    assert_replayed(report, len(solves))


def test_replay_waits_for_rho_to_saturate(monkeypatch):
    """The loop state is (theta, rho), not theta alone. On label-only data
    the bias, and with it the penalty, stops moving at k = 7 while rho keeps
    growing tenfold per step; the first repeat comes after rho reaches its
    cap at the end of iteration 201."""
    ds = parse_svmlight(io.StringIO("+1\n-1\n" * 5))
    solves = count_solves(monkeypatch)
    _, report = mpm_train(ds, MpmConfig(sr=0.10, rho_growth=10.0, max_outer=400))
    assert report.rho_final == mpm_module.RHO_CAP
    assert (report.repeat_k, report.repeat_period) == (203, 1)
    assert_replayed(report, len(solves))
    penalty = report.history[7].penalty
    assert all(rec.penalty == penalty for rec in report.history[7:])
    objective = report.objective_history()
    # record k weighs the penalty with the rho set after iteration k - 1
    np.testing.assert_allclose(objective[8:202] / objective[7:201], 10.0, rtol=1e-12)
    np.testing.assert_allclose(objective[202:], mpm_module.RHO_CAP * penalty, rtol=1e-15)


def split_on_two_cpus(monkeypatch, floor: int) -> tuple[list, list]:
    """Make the process report two usable CPUs and the CG path split its
    products from `floor` stored entries on; the lists of watch_helpers."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(mpm_module, "_SPLIT_MIN_NNZ", floor)
    return watch_helpers(monkeypatch)


def assert_one_helper_ran(started: list, ran_on: list) -> None:
    """Helper calls ran, each on a helper thread, at most one helper thread
    started and the lease came back."""
    assert ran_on and set(ran_on) == {"scsvm-helper"}
    assert started.count("scsvm-helper") <= 1
    assert leases_come_back()


def without_wall_time(report) -> dict:
    out = report.as_dict()
    del out["wall_time_s"]
    return out


@pytest.mark.parametrize(
    "overrides",
    [{}, {"rho_growth": 10.0}, {"cg_warm_start": True}],
    ids=["default", "rho-growth", "warm-start"],
)
def test_split_products_train_the_same_bits(monkeypatch, overrides):
    ds = noisy_linear_dataset(np.random.default_rng(89), n=600, m=120, flip=0.1, density=0.1)
    cfg = MpmConfig(sr=0.1, max_outer=40, **overrides)
    assert ds.nnz < mpm_module._SPLIT_MIN_NNZ
    serial_model, serial = mpm_train(ds, cfg)
    started, ran_on = split_on_two_cpus(monkeypatch, floor=ds.nnz)
    model, report = mpm_train(ds, cfg)
    assert_one_helper_ran(started, ran_on)
    assert report.solve_path == "cg" and report.total_cg > 0
    assert model.omega.tobytes() == serial_model.omega.tobytes()
    assert np.float64(model.b).tobytes() == np.float64(serial_model.b).tobytes()
    assert without_wall_time(report) == without_wall_time(serial)


def test_concurrent_split_trainings_switching_often(monkeypatch):
    # four trainings at once on two CPUs: the one holding the helper splits
    # its products, the others run alone, and the helper passes between
    # them, handing over calls at every chance to switch
    ds = noisy_linear_dataset(np.random.default_rng(107), n=300, m=120, flip=0.1, density=0.1)
    cfg = MpmConfig(sr=0.1, max_outer=15)
    want_model, want = mpm_train(ds, cfg)
    started, ran_on = split_on_two_cpus(monkeypatch, floor=0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: mpm_train(ds, cfg), range(8)))
    finally:
        sys.setswitchinterval(interval)
    for model, report in results:
        assert model.omega.tobytes() == want_model.omega.tobytes()
        assert without_wall_time(report) == without_wall_time(want)
    assert_one_helper_ran(started, ran_on)


def test_concurrent_trainings_on_two_cpus_share_one_helper(monkeypatch):
    ds = noisy_linear_dataset(np.random.default_rng(109), n=300, m=120, flip=0.1, density=0.1)
    cfg = MpmConfig(sr=0.1, max_outer=15)
    want_model, want = mpm_train(ds, cfg)
    started, ran_on = split_on_two_cpus(monkeypatch, floor=0)
    real_kernel = linsys_module._csr_matvec
    second_leases = []

    # only a split product calls the kernel, so a training holds the lease
    def kernel(*args):
        with threads.helper() as second:
            second_leases.append(second)
        return real_kernel(*args)

    monkeypatch.setattr(linsys_module, "_csr_matvec", kernel)
    together = threading.Barrier(2, timeout=30)

    def train(_):
        together.wait()
        return mpm_train(ds, cfg)

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(train, range(2)))
    assert second_leases and set(second_leases) == {None}
    for model, report in results:
        assert model.omega.tobytes() == want_model.omega.tobytes()
        assert np.float64(model.b).tobytes() == np.float64(want_model.b).tobytes()
        assert without_wall_time(report) == without_wall_time(want)
    assert_one_helper_ran(started, ran_on)


def test_a_split_training_that_raises_gives_its_lease_back(monkeypatch):
    ds = noisy_linear_dataset(np.random.default_rng(97), n=200, m=120, flip=0.1, density=0.1)
    started, ran_on = split_on_two_cpus(monkeypatch, floor=0)
    real_solve = mpm_module.cg_solve
    solves = []

    def failing_third_solve(*args, **kwargs):
        solves.append(None)
        if len(solves) == 3:
            raise np.linalg.LinAlgError("third solve failed")
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(mpm_module, "cg_solve", failing_third_solve)
    with pytest.raises(np.linalg.LinAlgError, match="third solve failed"):
        mpm_train(ds, MpmConfig(sr=0.1))
    assert_one_helper_ran(started, ran_on)


def test_an_error_in_the_helpers_half_reaches_the_caller(monkeypatch):
    ds = noisy_linear_dataset(np.random.default_rng(101), n=200, m=120, flip=0.1, density=0.1)
    started, ran_on = split_on_two_cpus(monkeypatch, floor=0)
    real_kernel = linsys_module._csr_matvec
    halves = []

    def kernel(*args):
        on_helper = threading.current_thread().name == "scsvm-helper"
        halves.append(on_helper)
        if on_helper and halves.count(True) == 5:
            raise MemoryError("the helper's half failed")
        return real_kernel(*args)

    monkeypatch.setattr(linsys_module, "_csr_matvec", kernel)
    with pytest.raises(MemoryError, match="the helper's half failed"):
        mpm_train(ds, MpmConfig(sr=0.1))
    # the calling thread did its half of the failed product and no more
    assert halves.count(False) == 5
    assert_one_helper_ran(started, ran_on)


def test_one_cpu_trains_without_a_thread(monkeypatch):
    ds = noisy_linear_dataset(np.random.default_rng(103), n=200, m=120, flip=0.1, density=0.1)
    split_on_two_cpus(monkeypatch, floor=0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    _, report = mpm_train(ds, MpmConfig(sr=0.1, max_outer=5))
    assert report.solve_path == "cg" and report.total_cg > 0


def count_layer_calls(monkeypatch) -> dict:
    """Wrap the entry points perfbench's tracer times, under the names the
    trainer calls them by: mpm's project_omega_s, dense_solve and cg_solve,
    and RegularizedNormalOperator.apply. The dict counts calls by name."""
    calls = dict.fromkeys(("project_omega_s", "dense_solve", "cg_solve", "apply"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("project_omega_s", "dense_solve", "cg_solve"):
        monkeypatch.setattr(mpm_module, name, counted(name, getattr(mpm_module, name)))
    monkeypatch.setattr(
        RegularizedNormalOperator, "apply", counted("apply", RegularizedNormalOperator.apply)
    )
    return calls


@pytest.mark.parametrize("case", ["dense", "cg", "cg-split", "replayed"])
def test_loop_calls_each_traced_layer_through_its_name(monkeypatch, case):
    """perfbench's per-layer metrics wrap exactly these names; a loop that
    inlined one of them would leave its metric reading zero."""
    if case == "replayed":
        ds, cfg = parse_svmlight(DATA / "dense_mid"), MpmConfig(sr=0.01)
    else:
        ds = noisy_linear_dataset(np.random.default_rng(43), n=40, m=8, flip=0.1)
        cfg = MpmConfig(sr=0.5, dense_threshold=1 if case.startswith("cg") else 100)
    if case == "cg-split":
        split_on_two_cpus(monkeypatch, floor=0)
    calls = count_layer_calls(monkeypatch)
    _, report = mpm_train(ds, cfg)
    assert (report.repeat_k is not None) == (case == "replayed")
    solves = report.repeat_k or report.outer_iters
    assert solves > 1
    if case.startswith("cg"):
        assert (calls["cg_solve"], calls["dense_solve"]) == (solves, 0)
        # one apply per CG step from a zero start
        assert calls["apply"] == report.total_cg > 0
    else:
        assert (calls["dense_solve"], calls["cg_solve"]) == (solves, 0)
        assert calls["apply"] >= solves
    # one projection per solve, and one of the zero model's margins
    assert calls["project_omega_s"] == solves + 1


@pytest.mark.parametrize("name, period", [("dense_mid", 1), ("sparse_imbalanced", 2)])
def test_replayed_records_are_real_records(name, period):
    _, report = mpm_train(parse_svmlight(DATA / name), MpmConfig(sr=0.01))
    assert report.repeat_period == period
    replayed = report.history[report.repeat_k + 1:]
    assert len(replayed) == report.outer_iters - report.repeat_k > period
    as_json = report.as_dict()["history"]
    for record in replayed:
        source = report.history[record.k - period]
        assert type(record) is IterationRecord
        assert record == replace(source, k=record.k)
        assert hash(record) == hash(replace(source, k=record.k))
        with pytest.raises(FrozenInstanceError):
            record.k = 0
        # serialized as a computed record with its k
        assert as_json[record.k] == {**as_json[source.k], "k": record.k}
        assert list(as_json[record.k]) == [f.name for f in fields(IterationRecord)]
    assert [rec.k for rec in report.history] == list(range(report.outer_iters + 1))
    assert json.loads(report.to_json())["history"] == as_json


def test_warm_start_run_still_converges_and_descends():
    rng = np.random.default_rng(43)
    ds = noisy_linear_dataset(rng, n=40, m=8, flip=0.1).with_feature_count(150)
    _, report = mpm_train(ds, MpmConfig(sr=0.5, cg_warm_start=True))
    assert report.termination == "converged"
    vals = report.objective_history()
    drops = np.diff(vals)
    assert np.all(drops <= 1e-10 * (1.0 + np.abs(vals[:-1])))


@pytest.mark.parametrize("m", [3, 150])
def test_empty_dataset_is_rejected_up_front(m):
    # m = 3 would take the dense path, m = 150 the CG path
    empty = SparseDataset(
        row_ptr=np.zeros(1, dtype=np.int64),
        col_idx=np.empty(0, dtype=np.int64),
        values=np.empty(0),
        labels=np.empty(0),
        m=m,
    )
    for cfg in (MpmConfig(s=0), MpmConfig(sr=0.1)):
        with pytest.raises(ValueError, match="empty dataset"):
            mpm_train(empty, cfg)


def test_unsigned_labels_are_rejected():
    ds = dense_dataset([[1.0], [2.0]], [0.0, 1.0])
    with pytest.raises(ValueError):
        mpm_train(ds, MpmConfig(s=0))


@pytest.mark.filterwarnings("ignore:overflow")
def test_overflowing_data_raises():
    rng = np.random.default_rng(61)
    ds = noisy_linear_dataset(rng, n=20, m=150)
    huge = SparseDataset(
        ds.row_ptr, ds.col_idx, ds.values * 1e200, ds.labels, ds.m
    )
    with pytest.raises((np.linalg.LinAlgError, ValueError)):
        mpm_train(huge, MpmConfig(s=0))


def test_infeasible_symmetric_data_reports_infinite_p_prog():
    """Identical points with opposite labels cancel the first rhs exactly,
    leaving theta at zero with positive penalty: p_prog is +inf and the JSON
    view spells it out instead of emitting bare Infinity."""
    ds = dense_dataset([[1.0], [1.0]], [1.0, -1.0])
    _, report = mpm_train(ds, MpmConfig(s=0, max_outer=3))
    assert report.termination == "max_outer"
    assert report.history[1].p_progress == math.inf
    payload = json.loads(report.to_json())
    assert payload["history"][1]["p_progress"] == "inf"

    # near the rho cap the dense solve's telemetry residual overflows to inf;
    # any non-finite float in any field is spelled the same way
    overflowed = replace(
        report.history[1], solver_residual=math.inf, f_value=math.nan, penalty=-math.inf
    )
    report = replace(report, rho_final=math.inf, history=(overflowed,))
    payload = json.loads(report.to_json())
    assert payload["rho_final"] == "inf"
    assert payload["history"][0]["solver_residual"] == "inf"
    assert payload["history"][0]["f_value"] == "nan"
    assert payload["history"][0]["penalty"] == "-inf"


@pytest.mark.parametrize(
    "text, m, termination, outer_iters",
    [
        # no feature at all (m = 0): only the bias moves, and the two tied
        # classes keep the projection from settling
        pytest.param("+1\n-1\n" * 5, 0, "max_outer", 1000, id="label-only"),
        # explicit zeros: A = 0, so omega cannot leave 0 and only b moves
        pytest.param("+1 1:0 2:0\n-1 1:0 2:0\n" * 5, 2, "max_outer", 1000, id="all-zero-rows"),
        pytest.param(
            "".join(f"+1 1:{0.5 * i} 2:{1 - 0.1 * i}\n" for i in range(10)),
            2, "converged", 4, id="single-class",
        ),
    ],
)
def test_degenerate_files_train_to_a_finite_model(monkeypatch, text, m, termination, outer_iters):
    ds = parse_svmlight(io.StringIO(text))
    assert (ds.n, ds.m) == (10, m)
    solves = count_solves(monkeypatch)
    model, report = mpm_train(ds, MpmConfig(sr=0.10))
    assert np.all(np.isfinite(model.omega)) and math.isfinite(model.b)
    assert model.m == m
    assert report.termination == termination
    assert report.outer_iters == outer_iters
    assert report.budget == 1  # round-half-up of 0.10 * 10
    assert np.all(np.isfinite(report.objective_history()))
    if termination == "max_outer":
        # symmetric classes with no usable feature: omega stays exactly 0
        assert not np.any(model.omega)
        assert model.b == pytest.approx(-1.0 / 9.0, rel=1e-12)
        # b settles within a few steps, after which the run is a replay
        assert report.repeat_k is not None and len(solves) < 20
        assert_replayed(report, len(solves))
    else:
        assert report.repeat_k is None and len(solves) == outer_iters
        np.testing.assert_array_equal(predicted_labels(model, ds), np.ones(10))


def test_tie_at_termination_warns(caplog):
    # duplicated hard sample: its two margin copies stay exactly equal, so
    # with s=1 the kept/dropped choice at exit is decided by index order
    ds = dense_dataset([[0.5], [0.5], [-5.0]], [1.0, 1.0, -1.0])
    with caplog.at_level(logging.WARNING, logger="scsvm.mpm"):
        _, report = mpm_train(ds, MpmConfig(s=1, max_outer=6))
    assert report.tie_at_termination
    assert any("tie" in rec.message for rec in caplog.records)
    assert any("2 equal margin entries" in rec.message for rec in caplog.records)


def test_clean_run_has_no_tie_flag():
    ds = tight_pair_clusters(20)
    _, report = mpm_train(ds, MpmConfig(s=0))
    assert not report.tie_at_termination


def test_report_json_round_trip():
    ds = noisy_linear_dataset(np.random.default_rng(67), n=25, m=5)
    _, report = mpm_train(ds, MpmConfig(sr=0.2))
    payload = json.loads(report.to_json(indent=2))
    assert payload["termination"] == report.termination
    assert payload["solve_path"] == report.solve_path == "dense"
    assert payload["outer_iters"] == report.outer_iters
    assert len(payload["history"]) == len(report.history)
    assert payload["history"][-1]["penalty"] == report.history[-1].penalty
    # the schema is the dataclasses' fields, in declaration order
    assert list(payload) == [f.name for f in fields(TrainReport)]
    for record in payload["history"]:
        assert list(record) == [f.name for f in fields(IterationRecord)]


# --- model serialization --------------------------------------------------


def test_model_save_load_round_trip_exact():
    omega = np.array([0.1, 0.0, -7.25e-17, 123456.789, 0.0])
    model = ModelTheta(omega, -0.30000000000000004)
    buf = io.StringIO()
    model.save(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "5 -0.30000000000000004"
    assert len(text.splitlines()) == 4  # header + three nonzeros
    back = ModelTheta.load(io.StringIO(text))
    np.testing.assert_array_equal(back.omega, omega)
    assert back.b == model.b


def test_model_file_round_trip(tmp_path):
    model = ModelTheta(np.array([1e-300, 0.0, 3.5]), 2.0)
    path = tmp_path / "model.txt"
    model.save(path)
    back = ModelTheta.load(path)
    np.testing.assert_array_equal(back.omega, model.omega)
    assert back.b == 2.0


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("", "header"),
        ("3\n", "header"),
        ("x 1.0\n", "header"),
        ("-1 0\n", "header"),
        ("2 0.5\n0 1.0 9\n", "index value"),
        ("2 0.5\nfoo 1.0\n", "index value"),
        ("2 0.5\n5 1.0\n", "outside"),
        ("2 0.5\n-1 1.0\n", "outside"),
        ("2 0.5\n0 1.0\n0 2.0\n", "line 3: index 0 repeats"),
    ],
)
def test_model_load_rejects_malformed_input(text, pattern):
    with pytest.raises(ValueError, match=pattern):
        ModelTheta.load(io.StringIO(text))


def test_model_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="finite"):
        ModelTheta(np.array([1.0, np.nan]), 0.0)
    with pytest.raises(ValueError, match="finite"):
        ModelTheta(np.array([1.0]), math.inf)


@settings(max_examples=60, deadline=None)
@given(
    omega=st.lists(
        st.floats(
            min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
        ),
        min_size=0,
        max_size=10,
    ),
    b=st.floats(min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False),
)
def test_model_round_trip_property(omega, b):
    model = ModelTheta(np.array(omega, dtype=np.float64), b)
    buf = io.StringIO()
    model.save(buf)
    back = ModelTheta.load(io.StringIO(buf.getvalue()))
    np.testing.assert_array_equal(back.omega, model.omega)
    assert back.b == model.b


def test_report_serialization_leaves_the_records_as_they_were():
    # reading a record through vars() would make it build and keep an instance
    # dict, about 64 B per record, for as long as the report lives
    def report(count):
        # one report of count records, so the figure is per record
        history = tuple(
            IterationRecord(k, 2.0, 1.0, 0.5, 0.1, math.inf if k else None, k % 3, None)
            for k in range(count)
        )
        return [
            TrainReport(count - 1, 0, 0.5, "max_outer", "dense", 12, 0.4, False, None, None, history)
        ]

    assert report(2)[0].as_dict()["history"][1]["p_progress"] == "inf"
    kept = bytes_kept_per_object(lambda r: r.as_dict(), report)
    assert kept < 8
