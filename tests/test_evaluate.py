"""Scoring semantics: the tie rule, accuracy bookkeeping, violation counts."""

import numpy as np
import pytest

from scsvm.evaluate import (
    accuracy,
    decision_scores,
    error_rate,
    labels_from_scores,
    predicted_labels,
    train_misclassified_count,
)
from scsvm.mpm import ModelTheta, MpmConfig, mpm_train

from _util import dense_dataset, noisy_linear_dataset
from test_mpm import tight_pair_clusters


def test_scores_and_labels_vectorized():
    # the last row scores exactly 0, which labels +1
    ds = dense_dataset([[1.0], [-1.0], [2.0], [0.0]], [1.0, -1.0, 1.0, 1.0])
    model = ModelTheta([1.0], 0.0)
    np.testing.assert_array_equal(decision_scores(model, ds), [1.0, -1.0, 2.0, 0.0])
    np.testing.assert_array_equal(predicted_labels(model, ds), [1.0, -1.0, 1.0, 1.0])


def test_labels_from_scores_maps_zero_and_negative_zero_to_plus_one():
    scores = np.array([0.0, -0.0, 1e-300, -1e-300, 5.0, -5.0])
    np.testing.assert_array_equal(
        labels_from_scores(scores), [1.0, 1.0, 1.0, -1.0, 1.0, -1.0]
    )


def test_perfect_separator_scores_100():
    ds = dense_dataset([[1.0], [-1.0]], [1.0, -1.0])
    assert accuracy(ModelTheta([2.0], 0.0), ds) == 100.0


def test_constant_negative_predictor_on_balanced_data():
    ds = dense_dataset([[1.0], [2.0], [3.0], [4.0]], [1.0, -1.0, 1.0, -1.0])
    assert accuracy(ModelTheta([0.0], -3.0), ds) == 50.0


def test_accuracy_error_rate_partition():
    # odd counts stress the float arithmetic; the pair must sum to 100 exactly
    ds = dense_dataset([[1.0], [2.0], [-1.0]], [1.0, -1.0, -1.0])
    model = ModelTheta([1.0], 0.0)
    acc = accuracy(model, ds)
    err = error_rate(model, ds)
    assert acc + err == 100.0
    assert acc == pytest.approx(100.0 * 2 / 3, rel=1e-15)


def test_accuracy_rejects_empty_and_unsigned():
    empty = dense_dataset(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError, match="empty"):
        accuracy(ModelTheta([1.0], 0.0), empty)
    raw = dense_dataset([[1.0]], [2.0])
    with pytest.raises(ValueError):
        accuracy(ModelTheta([1.0], 0.0), raw)


def test_violation_count_at_zero_model_is_n():
    ds = noisy_linear_dataset(np.random.default_rng(3), n=17, m=4)
    assert train_misclassified_count(ModelTheta(np.zeros(4), 0.0), ds) == 17


def test_violation_count_strict_inequality():
    # z = 0 exactly is not a violation
    ds = dense_dataset([[1.0]], [1.0])
    assert train_misclassified_count(ModelTheta([1.0], 0.0), ds) == 0
    assert train_misclassified_count(ModelTheta([0.5], 0.0), ds) == 1


def test_hard_margin_solution_has_zero_violations():
    ds = tight_pair_clusters(40)
    model, report = mpm_train(ds, MpmConfig(s=0, rho_growth=10.0, p_tol=1e-40))
    assert report.termination == "converged"
    assert train_misclassified_count(model, ds) == 0
    assert accuracy(model, ds) == 100.0


def test_exactly_feasible_exit_respects_budget():
    """When a run exits with penalty exactly zero, every remaining violation
    was dropped by the projection, so the count is at most s."""
    rng = np.random.default_rng(43)
    ds = noisy_linear_dataset(rng, n=40, m=8, flip=0.1)
    cfg = MpmConfig(sr=0.5, f_tol_factor=1e-12, p_tol=1e-10, max_outer=5000)
    model, report = mpm_train(ds, cfg)
    assert report.termination == "converged"
    assert report.history[-1].penalty == 0.0
    assert train_misclassified_count(model, ds) <= report.budget
