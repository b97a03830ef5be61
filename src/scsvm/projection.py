"""Euclidean projection onto the set of vectors with at most s positive entries.

The set is closed but not convex. A nearest point keeps every nonpositive
entry verbatim (they never count toward the budget and moving them only adds
cost), keeps the s largest positive entries, and zeroes the remaining positive
ones. Ties at the cut value are broken toward lower indices so the projection
is a deterministic function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "IndexPartition",
    "ProjectionResult",
    "partition_indices",
    "project_omega_s",
    "g_value",
]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class IndexPartition:
    """Index sets describing one projection; each array is ascending.

    kept_above      positive entries strictly above the cut value, kept
    pivot_kept      entries tying the cut value that the budget keeps
    pivot_dropped   entries tying the cut value that are zeroed
    dropped_small   positive entries strictly below the cut value, zeroed
    nonpositive     entries <= 0, kept verbatim
    """

    kept_above: np.ndarray
    pivot_kept: np.ndarray
    pivot_dropped: np.ndarray
    dropped_small: np.ndarray
    nonpositive: np.ndarray

    def kept_positive(self) -> np.ndarray:
        return np.sort(np.concatenate([self.kept_above, self.pivot_kept]))

    def zeroed(self) -> np.ndarray:
        return np.sort(np.concatenate([self.pivot_dropped, self.dropped_small]))

    def has_ambiguous_tie(self) -> bool:
        """True when equal values forced an arbitrary keep/drop choice."""
        return self.pivot_dropped.size > 0 and self.pivot_kept.size > 0


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """A projected vector, 0.5x its squared distance, and the index sets.

    The index sets are built from a private copy of the input on first read
    of `partition`; the training loop reads them only at termination.
    """

    projected: np.ndarray
    dist_sq: float
    source: np.ndarray = field(repr=False)
    budget: int = field(repr=False)

    @cached_property
    def partition(self) -> IndexPartition:
        return partition_indices(self.source, self.budget)


def _as_margin_vector(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("vector contains non-finite entries")
    return z


def _checked_budget(s, n: int) -> int:
    if isinstance(s, bool) or not isinstance(s, (int, np.integer)):
        raise TypeError(f"budget must be an integer, got {type(s).__name__}")
    if not 0 <= s <= n:
        raise ValueError(f"budget {s} outside [0, {n}]")
    return int(s)


def partition_indices(z, s) -> IndexPartition:
    """Split indices of z by how projection with budget s treats them."""
    z = _as_margin_vector(z)
    n = z.size
    s = _checked_budget(s, n)
    positive = z > 0
    if s == 0:
        return IndexPartition(
            _EMPTY, _EMPTY, _EMPTY, np.flatnonzero(positive), np.flatnonzero(~positive)
        )
    if int(positive.sum()) <= s:
        # everything already fits the budget
        return IndexPartition(
            np.flatnonzero(positive), _EMPTY, _EMPTY, _EMPTY, np.flatnonzero(~positive)
        )
    # s-th largest entry, found by selection rather than a full sort; more
    # than s entries are positive, so the cut value is positive
    pivot = np.partition(z, n - s)[n - s]
    kept_above = np.flatnonzero(z > pivot)
    tied = np.flatnonzero(z == pivot)
    room = s - kept_above.size
    return IndexPartition(
        kept_above,
        tied[:room],
        tied[room:],
        np.flatnonzero(positive & (z < pivot)),
        np.flatnonzero(~positive),
    )


def project_omega_s(z, s) -> ProjectionResult:
    """Project z onto {x : at most s positive entries}.

    dist_sq is 0.5 * ||z - projected||^2, summed over the zeroed entries in
    ascending index order.
    """
    z = _as_margin_vector(z).copy()
    n = z.size
    s = _checked_budget(s, n)
    positive = z > 0
    x = z.copy()
    if np.count_nonzero(positive) <= s:
        return ProjectionResult(x, 0.0, z, s)
    if s == 0:
        drop = positive
    else:
        # the cut value of partition_indices; the n - s entries outside the
        # budget are those below it plus the highest-index ties at it
        pivot = np.partition(z, n - s)[n - s]
        below = z < pivot
        drop = positive & below
        tied_dropped = n - s - np.count_nonzero(below)
        if tied_dropped:
            drop[np.flatnonzero(z == pivot)[-tied_dropped:]] = True
    x[drop] = 0.0
    dist_sq = 0.5 * float(np.sum(z[drop] ** 2))
    return ProjectionResult(x, dist_sq, z, s)


def g_value(z, s) -> float:
    """0.5x squared distance of z to the budget set."""
    return project_omega_s(z, s).dist_sq
