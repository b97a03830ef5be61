"""Acceptance gate: one test per shipped criterion, at the stated tolerance.

Run `python3 -m pytest tests/test_acceptance.py -v -s` to get one pass/fail
line per criterion. Criteria 5, 6, and 9 need the real benchmark datasets;
when those files are missing the tests fail (never skip) with instructions,
and `-m "not realdata"` deselects them on machines without the data.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

import scsvm.mpm as mpm_module
from scsvm.data import parse_svmlight, split
from scsvm.dcd import DcdConfig, dcd_train
from scsvm.evaluate import accuracy, train_misclassified_count
from scsvm.linsys import CgConfig, RegularizedNormalOperator, cg_solve, dense_solve
from scsvm.mpm import (
    ModelTheta,
    MpmConfig,
    majorized_penalty,
    margin,
    mpm_train,
)
from scsvm.projection import g_value

from test_projection import enumeration_oracle
from _util import assert_replayed, count_solves, random_dataset

DATA = Path(__file__).resolve().parent.parent / "data"
BUNDLED = ("separable_toy", "noisy_blobs", "dense_mid", "sparse_imbalanced", "tiny")
SR_GRID = (0.01, 0.05, 0.10, 0.15, 0.25, 0.50)
# (k, termination, tie_at_termination) of each bundled cell under the
# reference protocol, one entry per ratio in SR_GRID
GRID_CELLS = {
    "separable_toy": [(3, "converged", True), (4, "converged", True), (5, "converged", True),
                      (5, "converged", True), (7, "converged", True), (15, "converged", True)],
    "noisy_blobs": [(1000, "max_outer", False)] * 6,
    "dense_mid": [(1000, "max_outer", False)] * 6,
    "sparse_imbalanced": [(1000, "max_outer", False)] * 6,
    "tiny": [(31, "converged", False), (34, "converged", False), (34, "converged", False),
             (27, "converged", False), (12, "converged", False), (8, "converged", False)],
}


def load_real(name, criterion):
    data_dir = Path(os.environ.get("SCSVM_DATA_DIR", str(DATA)))
    path = data_dir / name
    if not path.exists():
        pytest.fail(
            f"criterion {criterion}: FAIL - real dataset '{name}' not found at "
            f"{path}; fetch it with 'python3 scripts/fetch_datasets.py --only "
            f"{name}' (needs network access) or set SCSVM_DATA_DIR to a "
            f"directory that holds it",
            pytrace=False,
        )
    return parse_svmlight(path)


@pytest.fixture(scope="module")
def bundled_grid_reports():
    """Every bundled dataset crossed with the full ratio grid, defaults, with
    the number of linear solves each run made."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        solves = count_solves(mp)
        for name in BUNDLED:
            ds = parse_svmlight(DATA / name)
            for sr in SR_GRID:
                solves.clear()
                model, report = mpm_train(ds, MpmConfig(sr=sr))
                out.append((name, ds.m, sr, model, report, len(solves)))
    return out


def test_criterion_1_projection_matches_enumeration():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        # the budget contract caps s at n, so tiny vectors draw smaller s
        s = int(rng.integers(0, min(4, n) + 1))
        z = rng.uniform(-3.0, 3.0, n)
        _, oracle_dist, _ = enumeration_oracle(z, s)
        assert g_value(z, s) == oracle_dist
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 1: PASS - 1000 exact matches in {elapsed:.2f}s")


def test_criterion_2_objective_descent_over_bundled_grid(bundled_grid_reports):
    worst = -np.inf
    for name, _, sr, _, report, _ in bundled_grid_reports:
        objs = report.objective_history()
        for prev, curr in zip(objs, objs[1:]):
            slack = (curr - prev) / (1.0 + abs(prev))
            worst = max(worst, slack)
            assert curr <= prev + 1e-10 * (1.0 + abs(prev)), (name, sr)
    print(f"criterion 2: PASS - worst relative increase {worst:.3e} <= 1e-10")


def test_criterion_3_majorization_sandwich():
    rng = np.random.default_rng(23)
    runs = [(name, sr) for name in BUNDLED for sr in (0.01, 0.10, 0.25, 0.50)]
    assert len(runs) == 20
    scales = (1e-3, 1e-2, 1e-1, 1.0)
    for name, sr in runs:
        ds = parse_svmlight(DATA / name)
        model, report = mpm_train(ds, MpmConfig(sr=sr, max_outer=25))
        s = report.budget
        ref = model
        p_ref = g_value(margin(ref, ds), s)
        pm_ref = majorized_penalty(ref, ref, ds, s)
        if p_ref == 0.0:
            assert pm_ref == 0.0
        else:
            assert abs(pm_ref - p_ref) <= 1e-12 * abs(p_ref)
        ref_vec = ref.as_vector()
        for i in range(100):
            probe_vec = ref_vec + scales[i % 4] * rng.normal(size=ref_vec.size)
            probe = ModelTheta.from_vector(probe_vec)
            p_probe = g_value(margin(probe, ds), s)
            pm_probe = majorized_penalty(probe, ref, ds, s)
            assert pm_probe >= p_probe - 1e-10 * (1.0 + abs(p_probe))
    print("criterion 3: PASS - 20 runs x 100 probes dominated, exact at the reference")


def test_criterion_4_dense_cg_cross_check_and_spd():
    rng = np.random.default_rng(77)
    rhos = (0.1, 0.4, 10.0)
    tight = CgConfig(tol=1e-10, max_iter=20000)
    for trial in range(100):
        n = int(rng.integers(20, 501))
        m = int(rng.integers(2, 51))
        ds = random_dataset(rng, n, m, density=0.3)
        op = RegularizedNormalOperator(ds, rhos[trial % 3])
        probe = rng.normal(size=m + 1)
        assert probe @ op.apply(probe) > 0.0
        rhs = rng.normal(size=m + 1)
        direct = dense_solve(op, rhs).theta
        iterative = cg_solve(op, rhs, tight).theta
        gap = np.linalg.norm(direct - iterative)
        assert gap <= 1e-6 * max(1.0, np.linalg.norm(direct))
    print("criterion 4: PASS - 100 instances agree to 1e-6, all SPD probes positive")


@pytest.mark.realdata
def test_criterion_5_full_scale_convergence():
    ds = load_real("a1a", criterion=5)
    model, report = mpm_train(ds, MpmConfig(sr=0.10))
    last = report.history[-1]
    assert report.termination == "converged"
    assert report.outer_iters <= 100
    assert report.total_cg <= 5000
    assert last.p_progress <= 1e-3
    assert report.wall_time_s < 5.0
    print(
        f"criterion 5: PASS - a1a k={report.outer_iters} cg={report.total_cg} "
        f"wall={report.wall_time_s:.2f}s"
    )


@pytest.mark.realdata
def test_criterion_6_accuracy_reproduction():
    # split-caveated reproduction on a seeded 80/20 split
    checks = (
        ("mushrooms", lambda acc: acc >= 99.0, ">= 99"),
        ("breast-cancer", lambda acc: acc >= 97.0, ">= 97"),
        ("heart", lambda acc: abs(acc - 86.4198) <= 6.0, "within 6 of 86.4198"),
        ("svmguide1", lambda acc: abs(acc - 92.1750) <= 5.0, "within 5 of 92.1750"),
    )
    results = []
    problems = []
    for name, ok, description in checks:
        ds = load_real(name, criterion=6)
        train, test = split(ds, 0.2, seed=42)
        model, report = mpm_train(train, MpmConfig(sr=0.10))
        acc = accuracy(model, test)
        results.append(f"{name}={acc:.2f}%")
        if not ok(acc):
            problems.append(f"{name}: accuracy {acc:.4f} not {description}")
        if report.wall_time_s >= 2.0:
            problems.append(f"{name}: training took {report.wall_time_s:.2f}s >= 2s")
    assert not problems, "; ".join(problems)
    print(f"criterion 6: PASS - {' '.join(results)}")


def test_criterion_7_hard_margin_limit():
    ds = parse_svmlight(DATA / "separable_toy")
    cfg = MpmConfig(s=0, rho_growth=10.0, p_tol=1e-40)
    model, report = mpm_train(ds, cfg)
    final_penalty = report.history[-1].penalty
    assert report.termination == "converged"
    assert train_misclassified_count(model, ds) == 0
    assert final_penalty == 0.0
    print(
        f"criterion 7: PASS - s=0 run converged (k={report.outer_iters}) with "
        f"0 violations and penalty exactly 0.0"
    )


def test_criterion_8_dense_path_reports_zero_cg(bundled_grid_reports):
    narrow = [entry for entry in bundled_grid_reports if entry[1] < 100]
    assert narrow, "bundled suite must contain narrow datasets"
    for name, _, sr, _, report, _ in narrow:
        assert report.total_cg == 0, (name, sr)
    print(f"criterion 8: PASS - cg=0 on all {len(narrow)} narrow grid cells")


def test_bundled_grid_counts_are_pinned(bundled_grid_reports):
    """The reference protocol's exact outcome on the shipped grid; any change
    to the loop's arithmetic or tie rule shows up in these counts."""
    assert len(bundled_grid_reports) == 30
    reports = [report for _, _, _, _, report, _ in bundled_grid_reports]
    assert sum(r.outer_iters for r in reports) == 18185
    assert sum(r.termination == "converged" for r in reports) == 12
    assert sum(r.tie_at_termination for r in reports) == 6


def test_bundled_grid_cells_are_pinned_and_match_the_csr_reference(bundled_grid_reports, monkeypatch):
    """Each cell's outcome is pinned on its own, so a shift between two cells
    shows. Narrow data trains on an ndarray form of A whose BLAS products sum
    in another order than CSR; each model must stay within 1e-12 relative of
    a run on the CSR forms, which serve as the reference."""
    monkeypatch.setattr(
        mpm_module, "matrix_forms", lambda ds, dense, helper=None: (ds.matrix(), ds.matrix_t())
    )
    datasets = {name: parse_svmlight(DATA / name) for name in BUNDLED}
    worst = 0.0
    for name, _, sr, model, report, _ in bundled_grid_reports:
        pinned = GRID_CELLS[name][SR_GRID.index(sr)]
        assert (report.outer_iters, report.termination, report.tie_at_termination) == pinned, (name, sr)
        ref_model, ref = mpm_train(datasets[name], MpmConfig(sr=sr))
        assert (ref.outer_iters, ref.termination, ref.tie_at_termination) == pinned, (name, sr)
        theta, want = model.as_vector(), ref_model.as_vector()
        rel = np.linalg.norm(theta - want) / np.linalg.norm(want)
        assert rel <= 1e-12, (name, sr, rel)
        worst = max(worst, rel)
    print(f"grid pins: PASS - 30 cells, largest relative model difference {worst:.1e}")


def test_bundled_grid_replays_from_the_first_repeat(bundled_grid_reports):
    """17 capped cells reach an exact fixed point or 2-cycle of the loop state
    (theta, rho) and fill in the rest of the run instead of solving it: 8,694
    solves for the grid's 18,185 outer iterations."""
    datasets = {name: parse_svmlight(DATA / name) for name in BUNDLED}
    periods = {}
    for name, _, sr, model, report, solves in bundled_grid_reports:
        if report.repeat_k is None:
            assert solves == report.outer_iters, (name, sr)
            continue
        assert report.termination == "max_outer", (name, sr)
        assert_replayed(report, solves)
        periods[name, sr] = report.repeat_period
        # the model and tie flag are those of the last computed iteration in
        # the final iteration's phase, where a run capped there stops
        phase = (report.outer_iters - report.repeat_k) % report.repeat_period
        cut_model, cut = mpm_train(datasets[name], MpmConfig(sr=sr, max_outer=report.repeat_k - phase))
        assert model.as_vector().tobytes() == cut_model.as_vector().tobytes(), (name, sr)
        assert report.tie_at_termination == cut.tie_at_termination, (name, sr)
    assert len(periods) == 17
    assert [cell for cell, period in periods.items() if period == 2] == [
        ("sparse_imbalanced", 0.01), ("sparse_imbalanced", 0.15)
    ]
    assert sum(solves for *_, solves in bundled_grid_reports) == 8694
    print(f"grid replay: PASS - {len(periods)} cells replayed, 8694 solves")


@pytest.mark.realdata
def test_criterion_9_baseline_sanity():
    ds = load_real("heart", criterion=9)
    train, test = split(ds, 0.2, seed=42)
    model, result = dcd_train(train, DcdConfig(C=1.0))
    acc = accuracy(model, test)
    assert abs(acc - 83.95) <= 6.0
    gains = np.diff(result.dual_objectives)
    assert np.all(gains >= -1e-12)
    print(f"criterion 9: PASS - heart baseline accuracy {acc:.2f}%, dual nondecreasing")
