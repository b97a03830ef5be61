"""Prediction and scoring helpers for trained linear models."""

from __future__ import annotations

import numpy as np

from .data import SparseDataset
from .mpm import ModelTheta, margin

__all__ = [
    "accuracy",
    "decision_scores",
    "error_rate",
    "labels_from_scores",
    "predicted_labels",
    "train_misclassified_count",
]


def decision_scores(model: ModelTheta, ds: SparseDataset) -> np.ndarray:
    if model.m != ds.m:
        raise ValueError(f"model has {model.m} features, dataset has {ds.m}")
    return ds.matrix() @ model.omega + model.b


def labels_from_scores(scores: np.ndarray) -> np.ndarray:
    """+1.0 or -1.0 per score; a score of exactly 0 maps to +1."""
    return np.where(scores >= 0.0, 1.0, -1.0)


def predicted_labels(model: ModelTheta, ds: SparseDataset) -> np.ndarray:
    """labels_from_scores of the model's decision scores."""
    return labels_from_scores(decision_scores(model, ds))


def accuracy(model: ModelTheta, ds: SparseDataset) -> float:
    """Percentage of samples whose predicted label matches, in [0, 100]."""
    if ds.n == 0:
        raise ValueError("cannot score an empty dataset")
    ds.assert_signed()
    correct = int(np.sum(predicted_labels(model, ds) == ds.labels))
    return 100.0 * correct / ds.n


def error_rate(model: ModelTheta, ds: SparseDataset) -> float:
    # complement, so the pair sums to exactly 100.0
    return 100.0 - accuracy(model, ds)


def train_misclassified_count(model: ModelTheta, ds: SparseDataset) -> int:
    """Number of samples violating the unit margin: #{i : z_i > 0}."""
    return int(np.sum(margin(model, ds) > 0.0))
