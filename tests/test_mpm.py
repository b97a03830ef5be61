"""Trainer tests: progress measures, majorization, the outer loop, reports."""

import io
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsvm.data import SparseDataset
from scsvm.linsys import CgConfig, RegularizedNormalOperator, cg_solve, dense_solve
from scsvm.mpm import (
    ModelTheta,
    MpmConfig,
    TrainReport,
    f_prog,
    majorization_rhs,
    majorized_penalty,
    margin,
    mpm_train,
    objective_components,
    p_prog,
)
from scsvm.projection import g_value

from _util import dense_dataset, gaussian_blobs, noisy_linear_dataset, random_dataset


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


def test_tie_at_termination_warns(caplog):
    # duplicated hard sample: its two margin copies stay exactly equal, so
    # with s=1 the kept/dropped choice at exit is decided by index order
    ds = dense_dataset([[0.5], [0.5], [-5.0]], [1.0, 1.0, -1.0])
    with caplog.at_level(logging.WARNING, logger="scsvm.mpm"):
        _, report = mpm_train(ds, MpmConfig(s=1, max_outer=6))
    assert report.tie_at_termination
    assert any("tie" in rec.message for rec in caplog.records)


def test_clean_run_has_no_tie_flag():
    ds = tight_pair_clusters(20)
    _, report = mpm_train(ds, MpmConfig(s=0))
    assert not report.tie_at_termination


def test_report_json_round_trip():
    ds = noisy_linear_dataset(np.random.default_rng(67), n=25, m=5)
    _, report = mpm_train(ds, MpmConfig(sr=0.2))
    payload = json.loads(report.to_json(indent=2))
    assert payload["termination"] == report.termination
    assert payload["outer_iters"] == report.outer_iters
    assert len(payload["history"]) == len(report.history)
    assert payload["history"][-1]["penalty"] == report.history[-1].penalty


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
        ("2 0.5\n0 1.0 9\n", "index value"),
        ("2 0.5\nfoo 1.0\n", "index value"),
        ("2 0.5\n5 1.0\n", "outside"),
        ("2 0.5\n-1 1.0\n", "outside"),
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
