"""Euclidean projection onto the set of vectors with at most s positive entries.

The set is closed but not convex. A nearest point keeps every nonpositive
entry verbatim (they never count toward the budget and moving them only adds
cost), keeps the s largest positive entries, and zeroes the remaining positive
ones. Ties at the cut value are broken toward lower indices so the projection
is a deterministic function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ProjectionResult", "project_omega_s", "g_value"]


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """A projected vector, 0.5x its squared distance, and the tie count.

    ties is the number of entries equal to the cut value when the budget kept
    some of them and zeroed the others (the lowest-index rule decided which),
    and 0 otherwise.
    """

    projected: np.ndarray
    dist_sq: float
    ties: int


def _as_margin_vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {z.shape}")
    # counting the finite entries is cheaper than .all() at loop sizes
    if np.count_nonzero(np.isfinite(z)) < z.size:
        raise ValueError("vector contains non-finite entries")
    return z


def _checked_budget(s, n: int) -> int:
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
        raise TypeError(f"budget must be an integer, got {type(s).__name__}")
    if not 0 <= s <= n:
        raise ValueError(f"budget {s} outside [0, {n}]")
    return int(s)


def project_omega_s(z, s) -> ProjectionResult:
    """Project z onto {x : at most s positive entries}.

    dist_sq is 0.5 * ||z - projected||^2, summed over the zeroed entries in
    ascending index order.
    """
    z = _as_margin_vector(z)
    n = z.size
    s = _checked_budget(s, n)
    positive = z > 0
    if np.count_nonzero(positive) <= s:
        return ProjectionResult(z.copy(), 0.0, 0)
    ties = 0
    if s == 0:
        drop = positive
    else:
        # s-th largest entry, found by selecting in a copy rather than a full
        # sort; more than s entries are positive, so the cut value is
        # positive. The n - s entries outside the budget are those below it
        # plus the highest-index ties at it; at least one tie is always kept,
        # so any dropped tie means the lowest-index rule decided.
        cut = z.copy()
        cut.partition(n - s)
        pivot = cut[n - s]
        drop = z < pivot
        tied_dropped = n - s - np.count_nonzero(drop)
        drop &= positive
        if tied_dropped:
            tied = (z == pivot).nonzero()[0]
            drop[tied[-tied_dropped:]] = True
            ties = tied.size
    # the dropped entries in ascending index order, read and zeroed by index
    dropped = drop.nonzero()[0]
    lost = z.take(dropped)
    dist_sq = 0.5 * float(np.add.reduce(lost * lost))
    projected = z.copy()
    projected.put(dropped, 0.0)
    return ProjectionResult(projected, dist_sq, ties)


def g_value(z, s) -> float:
    """0.5x squared distance of z to the budget set."""
    return project_omega_s(z, s).dist_sq
