"""Projection onto the budget set {x : at most s positive entries}.

The oracle used throughout is exhaustive enumeration over every admissible
support, so it only runs for small n.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from scsvm.projection import g_value, partition_indices, project_omega_s


def enumeration_oracle(z, s):
    """Minimize 0.5*||z - x||^2 over x keeping at most s positive entries.

    Tries every subset of positive entries of size <= s; nonpositive entries
    are always kept (they cost nothing and never count toward the budget).
    Ties resolve to the first minimizer in lexicographic subset order, which
    keeps the lowest indices.
    """
    z = np.asarray(z, dtype=float)
    pos = np.flatnonzero(z > 0)
    best_x = None
    best_d = None
    best_drop = None
    for r in range(0, min(s, pos.size) + 1):
        for keep in itertools.combinations(pos.tolist(), r):
            drop = np.zeros(z.size, dtype=bool)
            drop[pos] = True
            drop[list(keep)] = False
            x = z.copy()
            x[drop] = 0.0
            d = 0.5 * float(np.sum(z[drop] ** 2))
            if best_d is None or d < best_d:
                best_d = d
                best_x = x
                best_drop = drop
    return best_x, best_d, best_drop


def margins_and_budgets(max_n=12, max_mag=1e6):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        z = draw(
            hnp.arrays(
                np.float64,
                n,
                elements=st.floats(-max_mag, max_mag, allow_nan=False),
            )
        )
        s = draw(st.integers(0, n))
        return z, s

    return build()


# ---------------------------------------------------------------------------
# frozen examples (values computed by enumeration_oracle and by hand)
# ---------------------------------------------------------------------------


def test_projection_keeps_largest_positive_entry():
    res = project_omega_s(np.array([3.0, 1.0, -2.0, 0.5]), 1)
    np.testing.assert_array_equal(res.projected, [3.0, 0.0, -2.0, 0.0])
    # dropped entries 1.0 and 0.5: 0.5 * (1 + 0.25)
    assert res.dist_sq == 0.625
    assert g_value(np.array([3.0, 1.0, -2.0, 0.5]), 1) == 0.625


def test_projection_tie_keeps_lowest_index():
    z = np.array([2.0, 2.0, 1.0, -1.0])
    res = project_omega_s(z, 1)
    np.testing.assert_array_equal(res.projected, [2.0, 0.0, 0.0, -1.0])
    assert res.dist_sq == 0.5 * (4.0 + 1.0)
    part = res.partition
    np.testing.assert_array_equal(part.kept_above, [])
    np.testing.assert_array_equal(part.pivot_kept, [0])
    np.testing.assert_array_equal(part.pivot_dropped, [1])
    np.testing.assert_array_equal(part.dropped_small, [2])
    np.testing.assert_array_equal(part.nonpositive, [3])
    assert part.has_ambiguous_tie()


def test_partition_unique_pivot():
    # pivot 3.0 is attained once, so it lands in the tie sets alone
    part = partition_indices(np.array([3.0, 1.0, -2.0, 0.5]), 1)
    np.testing.assert_array_equal(part.kept_above, [])
    np.testing.assert_array_equal(part.pivot_kept, [0])
    np.testing.assert_array_equal(part.pivot_dropped, [])
    np.testing.assert_array_equal(part.dropped_small, [1, 3])
    np.testing.assert_array_equal(part.nonpositive, [2])
    assert not part.has_ambiguous_tie()


def test_budget_zero_clamps_positive_part():
    z = np.array([3.0, -1.0, 0.0])
    res = project_omega_s(z, 0)
    np.testing.assert_array_equal(res.projected, np.minimum(z, 0.0))
    assert res.dist_sq == 4.5
    part = res.partition
    np.testing.assert_array_equal(part.dropped_small, [0])
    np.testing.assert_array_equal(part.nonpositive, [1, 2])


def test_budget_equal_to_length_is_identity():
    z = np.array([5.0, -2.0, 0.25, 1e-12])
    res = project_omega_s(z, 4)
    np.testing.assert_array_equal(res.projected, z)
    assert res.dist_sq == 0.0


def test_fewer_positives_than_budget_is_identity():
    z = np.array([-3.0, 0.5, -0.1, 0.0])
    res = project_omega_s(z, 3)
    np.testing.assert_array_equal(res.projected, z)
    assert res.dist_sq == 0.0
    np.testing.assert_array_equal(res.partition.kept_above, [1])


def test_partition_reflects_the_input_at_projection_time():
    z = np.array([2.0, 2.0, 1.0, -1.0])
    res = project_omega_s(z, 1)
    z[:] = [-5.0, 7.0, 7.0, 7.0]
    np.testing.assert_array_equal(res.projected, [2.0, 0.0, 0.0, -1.0])
    np.testing.assert_array_equal(res.partition.pivot_kept, [0])
    np.testing.assert_array_equal(res.partition.pivot_dropped, [1])
    assert res.partition is res.partition


def test_all_ones_keeps_first_s():
    n, s = 7, 3
    res = project_omega_s(np.ones(n), s)
    expected = np.zeros(n)
    expected[:s] = 1.0
    np.testing.assert_array_equal(res.projected, expected)
    assert res.dist_sq == 0.5 * (n - s)


def test_rejects_bad_arguments():
    z = np.array([1.0, 2.0])
    with pytest.raises(ValueError):
        partition_indices(z, 3)
    with pytest.raises(ValueError):
        partition_indices(z, -1)
    with pytest.raises(TypeError):
        partition_indices(z, 1.0)
    with pytest.raises(TypeError):
        partition_indices(z, True)
    with pytest.raises(ValueError):
        partition_indices(np.array([[1.0], [2.0]]), 1)
    with pytest.raises(ValueError):
        project_omega_s(np.array([1.0, np.nan]), 1)
    with pytest.raises(ValueError):
        project_omega_s(np.array([np.inf, 1.0]), 1)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(margins_and_budgets())
def test_matches_enumeration_oracle(zs):
    z, s = zs
    res = project_omega_s(z, s)
    oracle_x, oracle_d, oracle_drop = enumeration_oracle(z, s)
    drop = res.projected == 0.0
    drop &= z != 0.0
    if np.array_equal(drop, oracle_drop):
        # identical dropped set: identical canonical sum
        assert res.dist_sq == oracle_d
        np.testing.assert_array_equal(res.projected, oracle_x)
    else:
        # a tie between equal values was resolved to a different index set;
        # the summed squares form the same multiset, so only the summation
        # order can differ
        assert res.dist_sq == pytest.approx(oracle_d, rel=1e-12, abs=0.0)


@given(margins_and_budgets())
def test_complementarity_is_exact(zs):
    z, s = zs
    x = project_omega_s(z, s).projected
    np.testing.assert_array_equal(x * (z - x), np.zeros_like(z))


@given(margins_and_budgets())
def test_idempotent(zs):
    z, s = zs
    first = project_omega_s(z, s)
    second = project_omega_s(first.projected, s)
    np.testing.assert_array_equal(second.projected, first.projected)
    assert second.dist_sq == 0.0


@given(margins_and_budgets())
def test_feasibility(zs):
    z, s = zs
    x = project_omega_s(z, s).projected
    assert int(np.sum(x > 0)) <= s


@given(margins_and_budgets())
def test_distance_never_exceeds_clamp(zs):
    # clamping every positive entry is feasible for every s; the slack only
    # forgives summation-order ulps between the two sides
    z, s = zs
    clamp_cost = 0.5 * float(np.sum(np.maximum(z, 0.0) ** 2))
    assert g_value(z, s) <= clamp_cost * (1.0 + 1e-12)


@given(margins_and_budgets(max_mag=1e3), st.integers(-20, 20))
def test_support_scale_invariance(zs, log2_c):
    # powers of two keep the scaling exact in binary floating point
    z, s = zs
    c = 2.0**log2_c
    scaled = project_omega_s(c * z, s)
    base = project_omega_s(z, s)
    np.testing.assert_array_equal(scaled.projected, c * base.projected)


@given(margins_and_budgets())
def test_budget_zero_semantics(zs):
    z, _ = zs
    np.testing.assert_array_equal(
        project_omega_s(z, 0).projected, np.minimum(z, 0.0)
    )


@settings(max_examples=200)
@given(margins_and_budgets(max_mag=1e3), st.data())
def test_support_stable_under_small_perturbation(zs, data):
    # needs pairwise-distinct entries; the perturbation must also preserve
    # signs, so it stays below half the smallest gap and half the smallest
    # magnitude
    z, s = zs
    gaps = np.diff(np.sort(z))
    margin = min(
        float(gaps.min()) if gaps.size else np.inf,
        float(np.min(np.abs(z))),
    )
    if not margin > 1e-6:
        return
    delta = data.draw(
        hnp.arrays(
            np.float64,
            z.size,
            elements=st.floats(-0.49 * margin, 0.49 * margin, allow_nan=False),
        )
    )
    base = project_omega_s(z, s)
    moved = project_omega_s(z + delta, s)
    np.testing.assert_array_equal(
        base.projected != 0.0, moved.projected != 0.0
    )
    np.testing.assert_array_equal(
        base.partition.kept_positive(), moved.partition.kept_positive()
    )


@given(margins_and_budgets())
def test_partition_is_a_partition(zs):
    z, s = zs
    part = partition_indices(z, s)
    pieces = [
        part.kept_above,
        part.pivot_kept,
        part.pivot_dropped,
        part.dropped_small,
        part.nonpositive,
    ]
    merged = np.concatenate(pieces)
    assert merged.size == z.size
    assert np.array_equal(np.sort(merged), np.arange(z.size))
    kept = part.kept_positive()
    assert kept.size <= s
    assert np.all(z[kept] > 0)
    assert np.all(z[part.nonpositive] <= 0)
    zeroed = part.zeroed()
    assert np.all(z[zeroed] > 0)
    # every zeroed entry is <= every kept positive entry
    if kept.size and zeroed.size:
        assert np.max(z[zeroed]) <= np.min(z[kept])


@given(margins_and_budgets())
def test_tie_rule_keeps_lowest_indices(zs):
    z, s = zs
    part = partition_indices(z, s)
    if part.pivot_dropped.size and part.pivot_kept.size:
        assert np.max(part.pivot_kept) < np.min(part.pivot_dropped)
        np.testing.assert_array_equal(
            z[part.pivot_kept], np.full(part.pivot_kept.size, z[part.pivot_kept[0]])
        )


@settings(max_examples=300)
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 12),
        elements=st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
    ),
    st.data(),
)
def test_projection_zeroes_exactly_the_partition_zeroed_set(z, data):
    # few distinct values, so cut-value ties are the common case
    s = data.draw(st.integers(0, z.size))
    res = project_omega_s(z, s)
    expected = z.copy()
    expected[partition_indices(z, s).zeroed()] = 0.0
    np.testing.assert_array_equal(res.projected, expected)
    assert res.dist_sq == 0.5 * float(np.sum((z - expected) ** 2))
