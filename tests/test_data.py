"""Sparse dataset container, svmlight text format, label remap, split, stats."""

from __future__ import annotations

import io
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scsvm.data import (
    LabelMap,
    SparseDataset,
    parse_svmlight,
    remap_labels,
    serialize_svmlight,
    split,
)

SIMPLE = "+1 1:0.5 3:1.25\n-1 2:2\n"


def parse_text(text, **kw):
    return parse_svmlight(io.StringIO(text), **kw)


def test_parse_simple():
    ds = parse_text(SIMPLE)
    assert ds.n == 2
    assert ds.m == 3
    assert ds.nnz == 3
    np.testing.assert_array_equal(ds.row_ptr, [0, 2, 3])
    np.testing.assert_array_equal(ds.col_idx, [0, 2, 1])
    np.testing.assert_array_equal(ds.values, [0.5, 1.25, 2.0])
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])


def test_parse_preserves_raw_labels():
    ds = parse_text("2 1:1\n4 1:2\n")
    np.testing.assert_array_equal(ds.labels, [2.0, 4.0])
    with pytest.raises(ValueError, match="labels"):
        ds.assert_signed()


def test_parse_feature_count_override():
    ds = parse_text(SIMPLE, n_features=5)
    assert ds.m == 5
    with pytest.raises(ValueError, match="line 1"):
        parse_text(SIMPLE, n_features=2)


def test_parse_label_only_line():
    ds = parse_text("1\n-1 1:2\n")
    assert ds.n == 2
    np.testing.assert_array_equal(ds.row_ptr, [0, 0, 1])
    assert ds.m == 1


def test_parse_skips_blank_lines():
    ds = parse_text("+1 1:1\n\n-1 1:2\n\n")
    assert ds.n == 2


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("abc 1:1\n", 1),
        ("+1 1:1\n-1 1:1:2\n", 2),
        ("+1 1:x\n", 1),
        ("+1 0:1\n", 1),
        ("+1 -3:1\n", 1),
        ("+1 2:1 2:3\n", 1),  # duplicate index
        ("+1 3:1 2:1\n", 1),  # decreasing index
        ("+1 1:1\n-1 1.5:2\n", 2),
        ("+1 1:inf\n", 1),
    ],
)
def test_parse_errors_name_the_line(text, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}"):
        parse_text(text)


def test_parse_empty_file_is_an_error():
    with pytest.raises(ValueError, match="no samples"):
        parse_text("")
    with pytest.raises(ValueError, match="no samples"):
        parse_text("\n  \n")


def test_dataset_validates_structure():
    with pytest.raises(ValueError):
        SparseDataset(
            row_ptr=np.array([0, 2]),
            col_idx=np.array([1, 0]),  # not increasing within the row
            values=np.array([1.0, 2.0]),
            labels=np.array([1.0]),
            m=2,
        )
    with pytest.raises(ValueError):
        SparseDataset(
            row_ptr=np.array([0, 1]),
            col_idx=np.array([5]),  # out of range
            values=np.array([1.0]),
            labels=np.array([1.0]),
            m=2,
        )


def test_matrix_roundtrip():
    ds = parse_text(SIMPLE)
    dense = ds.matrix().toarray()
    np.testing.assert_array_equal(dense, [[0.5, 0.0, 1.25], [0.0, 2.0, 0.0]])


def test_matrix_forms_are_built_once():
    ds = parse_text(SIMPLE)
    a = ds.matrix()
    assert ds.matrix() is a
    assert ds.matrix_t() is ds.matrix_t()
    # the transpose is a view over the same arrays, not a copy
    assert np.shares_memory(ds.matrix_t().data, a.data)
    assert np.shares_memory(ds.matrix_t().indices, a.indices)
    np.testing.assert_array_equal(ds.matrix_t().toarray(), a.toarray().T)


def test_matrix_first_build_is_shared_across_threads():
    ds = parse_text(SIMPLE * 50)
    gate = threading.Barrier(4)
    seen = []

    def grab():
        gate.wait()
        seen.append(ds.matrix())

    workers = [threading.Thread(target=grab) for _ in range(4)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len(seen) == 4
    assert all(a is ds.matrix() for a in seen)


@pytest.mark.parametrize("rows", [[-1], [0, -2], [3], [0, 7]])
def test_take_rows_rejects_rows_out_of_range(rows):
    # a negative index would pair one row's features with another row's label
    ds = parse_text(SIMPLE + "+1 1:4\n")
    with pytest.raises(ValueError, match="row index"):
        ds.take_rows(np.array(rows))


def test_remap_labels():
    ds = parse_text("2 1:1\n4 1:2\n2 1:3\n")
    out = remap_labels(ds, LabelMap({2.0: -1.0, 4.0: 1.0}))
    np.testing.assert_array_equal(out.labels, [-1.0, 1.0, -1.0])
    # feature data untouched, bit for bit
    np.testing.assert_array_equal(out.values, ds.values)
    out.assert_signed()


def test_remap_rejects_unknown_raw_label():
    ds = parse_text("2 1:1\n7 1:2\n")
    with pytest.raises(ValueError, match="7"):
        remap_labels(ds, LabelMap({2.0: -1.0, 4.0: 1.0}))


def test_remap_rejects_nonbinary_dataset():
    ds = parse_text("1 1:1\n2 1:2\n3 1:3\n")
    with pytest.raises(ValueError, match="distinct"):
        remap_labels(ds, LabelMap({1.0: -1.0, 2.0: 1.0}))


def test_label_map_validation():
    with pytest.raises(ValueError):
        LabelMap({1.0: 1.0, 2.0: 1.0})  # image must be {-1, +1}
    with pytest.raises(ValueError):
        LabelMap({1.0: -1.0})
    with pytest.raises(ValueError):
        LabelMap({1.0: -1.0, 2.0: 1.0, 3.0: 1.0})


def test_label_map_infer_is_ascending():
    lm = LabelMap.infer(np.array([4.0, 2.0, 2.0]))
    assert lm.mapping == {2.0: -1.0, 4.0: 1.0}


def test_split_sizes_and_determinism():
    ds = parse_text("".join(f"+1 1:{i}\n" for i in range(1, 11)))
    train, test = split(ds, test_fraction=0.2, seed=42)
    assert (train.n, test.n) == (8, 2)
    train2, test2 = split(ds, test_fraction=0.2, seed=42)
    np.testing.assert_array_equal(test.values, test2.values)
    # the two parts partition the rows
    merged = np.sort(np.concatenate([train.values, test.values]))
    np.testing.assert_array_equal(merged, np.arange(1, 11, dtype=float))


def test_split_rounds_half_up():
    ds = parse_text("".join(f"+1 1:{i}\n" for i in range(1, 6)))
    train, test = split(ds, test_fraction=0.5, seed=0)
    assert (train.n, test.n) == (2, 3)


def test_split_rejects_bad_fraction_and_degenerate_parts():
    ds = parse_text("+1 1:1\n-1 1:2\n")
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            split(ds, test_fraction=bad, seed=0)
    single = parse_text("+1 1:1\n")
    with pytest.raises(ValueError, match="empty"):
        split(single, test_fraction=0.5, seed=0)


def test_serialize_roundtrip_bit_exact():
    text = "+1 1:0.1 3:1e-17\n-1 2:123456.789\n3.5 1:-0.30000000000000004\n"
    ds = parse_text(text)
    buf = io.StringIO()
    serialize_svmlight(ds, buf)
    again = parse_text(buf.getvalue())
    assert ds.same_content(again)


def test_stats():
    stats = parse_text(SIMPLE).stats()
    assert (stats.n, stats.m, stats.nnz) == (2, 3, 3)
    assert stats.density_pct == pytest.approx(50.0)
    assert stats.csv_row("toy") == "toy,2,3,3,50.00"
    d = stats.as_dict()
    assert d == {"n": 2, "m": 3, "nnz": 3, "density_pct": 50.0}


def test_with_feature_count_pads():
    ds = parse_text(SIMPLE)
    wider = ds.with_feature_count(10)
    assert wider.m == 10
    assert wider.nnz == ds.nnz
    with pytest.raises(ValueError):
        ds.with_feature_count(2)


@st.composite
def random_datasets(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 6))
    rows = []
    labels = []
    some_feature = False
    for _ in range(n):
        cols = draw(
            st.lists(st.integers(0, m - 1), unique=True, max_size=m).map(sorted)
        )
        vals = draw(
            st.lists(
                st.floats(
                    -1e12,
                    1e12,
                    allow_nan=False,
                ).filter(lambda v: v != 0.0),
                min_size=len(cols),
                max_size=len(cols),
            )
        )
        some_feature = some_feature or bool(cols)
        rows.append((cols, vals))
        labels.append(draw(st.sampled_from([-1.0, 1.0, 2.0, 4.0])))
    if not some_feature:
        rows[0] = ([0], [1.0])
    row_ptr = np.cumsum([0] + [len(c) for c, _ in rows])
    return SparseDataset(
        row_ptr=row_ptr,
        col_idx=np.array(
            [c for cols, _ in rows for c in cols], dtype=np.int64
        ),
        values=np.array([v for _, vals in rows for v in vals]),
        labels=np.array(labels),
        m=m,
    )


@settings(max_examples=80)
@given(random_datasets())
def test_roundtrip_property(ds):
    buf = io.StringIO()
    serialize_svmlight(ds, buf)
    buf.seek(0)
    again = parse_svmlight(buf, n_features=ds.m)
    assert ds.same_content(again)


@settings(max_examples=80)
@given(random_datasets(), st.data())
def test_take_rows_matches_row_by_row_selection(ds, data):
    rows = data.draw(
        st.one_of(
            st.just([]),
            st.lists(st.integers(0, ds.n - 1), min_size=1, max_size=1),
            st.lists(st.integers(0, ds.n - 1), max_size=12),
        )
    )
    picked = ds.take_rows(np.array(rows, dtype=np.int64))
    assert picked.n == len(rows)
    assert picked.m == ds.m
    np.testing.assert_array_equal(picked.labels, ds.labels[rows])
    for out_i, src_i in enumerate(rows):
        got_cols, got_vals = picked.row(out_i)
        want_cols, want_vals = ds.row(src_i)
        np.testing.assert_array_equal(got_cols, want_cols)
        np.testing.assert_array_equal(got_vals, want_vals)
    assert picked.row_ptr.dtype == np.int64
    assert picked.col_idx.dtype == np.int64
