"""Sparse dataset container, svmlight text format, label remap, split, stats."""

from __future__ import annotations

import io
import math
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from decimal import Context, Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from scsvm import data as scsvm_data
from scsvm import threads as scsvm_threads
from scsvm.data import (
    DatasetStats,
    LabelMap,
    SparseDataset,
    parse_svmlight,
    remap_labels,
    serialize_svmlight,
    split,
)

from _util import bytes_kept_per_object, leases_come_back, watch_helpers

SIMPLE = "+1 1:0.5 3:1.25\n-1 2:2\n"
DATA = Path(__file__).resolve().parent.parent / "data"


def parse_text(text, **kw):
    return parse_svmlight(io.StringIO(text), **kw)


def parse_on(monkeypatch, threads: int) -> None:
    """Make the process report `threads` usable CPUs, so that a parse of more
    than one batch runs on that many threads (at most two)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))


def same_content(a: SparseDataset, b: SparseDataset) -> bool:
    """Same feature count and the same CSR arrays and labels, value for value."""
    return (
        a.m == b.m
        and np.array_equal(a.row_ptr, b.row_ptr)
        and np.array_equal(a.col_idx, b.col_idx)
        and np.array_equal(a.values, b.values)
        and np.array_equal(a.labels, b.labels)
    )


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
        # two colons and four fields in all, exactly like "1:2 3:5"
        ("+1 1:1\n-1 1:2:3 5\n", 2),
        ("+1 1:1\n-1 9223372036854775808:1\n", 2),  # index past int64
        ("+1 1:1\n-1 99999999999999999999:1\n", 2),  # an integer scan saturates here
        # past the first batch of about 1 MB
        pytest.param("+1 1:1\n" * 200_000 + "-1 1:x\n", 200_001, id="multi-batch"),
    ],
)
def test_parse_errors_name_the_line(text, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}"):
        parse_text(text)


def test_parse_error_in_a_late_batch_names_the_file_line(tmp_path, monkeypatch):
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 1_000)
    # blank lines count: they are file lines but not samples
    lines = ["" if i % 100 == 0 else f"+1 1:{i} 3:0.25" for i in range(1, 6_001)]
    lines[5_000] = "-1 1:2 x:3"
    path = tmp_path / "late.svm"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    for threads in (1, 2):
        parse_on(monkeypatch, threads)
        with pytest.raises(ValueError, match="late.svm, line 5001: expected index:value, got 'x:3'"):
            parse_svmlight(path)


def numbered_lines(count):
    """svmlight lines whose first feature value is their 1-based line number."""
    return [f"+1 1:{i} 2:0.5\n" for i in range(1, count + 1)]


def recording_batches(monkeypatch, slow_line=None):
    """Wrap _parse_batch to record (first line number, parsed on the calling
    thread) per batch of numbered_lines; the batch that holds line slow_line
    takes 0.2 s longer."""
    real = scsvm_data._parse_batch
    calls = []

    def parse_batch(lines, n_features):
        first = int(lines[0].split()[1].partition(":")[2])
        calls.append((first, threading.current_thread() is threading.main_thread()))
        if slow_line is not None and first <= slow_line < first + len(lines):
            time.sleep(0.2)
        return real(lines, n_features)

    monkeypatch.setattr(scsvm_data, "_parse_batch", parse_batch)
    return calls


@pytest.mark.parametrize("threads", [1, 2])
def test_parse_threads_follow_the_cpus_the_process_may_run_on(monkeypatch, threads):
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 2_000)
    started, ran_on = watch_helpers(monkeypatch)
    text = "".join(numbered_lines(500))
    # (usable CPUs, helpers other calls hold): a parse takes a helper while
    # fewer than usable CPUs - 1 are out, and never more than one
    cases = [(1, 0), (2, 1)] if threads == 1 else [(2, 0), (8, 0), (8, 6)]
    for cpus, held in cases:
        parse_on(monkeypatch, cpus)
        assert scsvm_threads.usable_cpus() == cpus
        started.clear()
        ran_on.clear()
        with ExitStack() as stack:
            for _ in range(held):
                stack.enter_context(scsvm_threads.helper())
            assert parse_text(text).n == 500
        assert ran_on == ["scsvm-helper"] * (threads - 1)
        assert started.count("scsvm-helper") <= cpus - 1
        assert leases_come_back()


def test_parse_of_one_batch_starts_no_thread(monkeypatch):
    parse_on(monkeypatch, 2)
    calls = recording_batches(monkeypatch)
    monkeypatch.setattr(threading.Thread, "start", lambda self: pytest.fail("a thread started"))
    text = "".join(numbered_lines(300))
    assert len(text) < scsvm_data._BATCH_CHARS // 2
    assert parse_text(text).n == 300
    assert calls == [(1, True)]


def test_parse_error_while_a_later_batch_is_in_flight(tmp_path, monkeypatch):
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 2_000)
    parse_on(monkeypatch, 2)
    lines = numbered_lines(2_000)
    lines[1_500] = "-1 1:1501 x:3\n"
    path = tmp_path / "inflight.svm"
    path.write_text("".join(lines), encoding="ascii")
    # the bad line's batch is slow, so the other thread takes later batches
    # while it is parsed; the parse waits for them to end
    calls = recording_batches(monkeypatch, slow_line=1_501)
    with pytest.raises(ValueError, match="inflight.svm, line 1501: expected index:value, got 'x:3'"):
        parse_svmlight(path)
    assert leases_come_back()
    assert any(not on_main for _, on_main in calls)
    assert any(first > 1_501 for first, _ in calls)


class SignallingReads(io.TextIOWrapper):
    """A strict ASCII text stream that sets an event when a read fails."""

    def __init__(self, data: bytes, failed: threading.Event):
        super().__init__(io.BytesIO(data), encoding="ascii")
        self.failed = failed

    def readlines(self, hint=-1):
        try:
            return super().readlines(hint)
        except UnicodeDecodeError:
            self.failed.set()
            raise


def test_parse_raises_a_bad_line_before_a_later_read_error(monkeypatch):
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 2_000)
    parse_on(monkeypatch, 2)
    lines = numbered_lines(3_000)
    lines[9] = "-1 1:10 x:3\n"
    # a byte the ASCII stream cannot decode, some batches later
    lines[2_900] = "+1 1:2901 2:\u00e9\n"
    data = "".join(lines).encode("utf-8")
    real = scsvm_data._parse_batch
    failed = threading.Event()

    def parse_batch(lines, n_features):
        # the bad line's batch is parsed only after a later read failed
        if any("x:3" in line for line in lines):
            assert failed.wait(5)
        return real(lines, n_features)

    monkeypatch.setattr(scsvm_data, "_parse_batch", parse_batch)
    # whichever thread takes the bad line's batch, its error is the one raised
    for _ in range(6):
        failed.clear()
        with pytest.raises(ValueError, match="<stream>, line 10: expected index:value, got 'x:3'"):
            parse_svmlight(SignallingReads(data, failed))
    assert leases_come_back()
    with pytest.raises(UnicodeDecodeError):
        parse_svmlight(SignallingReads(data.replace(b"x:3", b"2:3"), failed))


def test_parse_helper_exception_stops_the_parse(monkeypatch):
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 2_000)
    parse_on(monkeypatch, 2)
    real = scsvm_data._parse_batch
    on_main = []

    def failing_off_the_main_thread(lines, n_features):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("helper failed")
        on_main.append(lines)
        time.sleep(0.01)  # leave batches for the helper to take
        return real(lines, n_features)

    monkeypatch.setattr(scsvm_data, "_parse_batch", failing_off_the_main_thread)
    text = "".join(numbered_lines(4_000))
    with pytest.raises(MemoryError, match="helper failed"):
        parse_text(text)
    # this thread takes no more batches once the helper has failed
    assert len(on_main) < 30
    assert leases_come_back()


def test_parse_helper_runs_off_the_callers_cpu(monkeypatch):
    getcpu = scsvm_threads._sched_getcpu()
    if getcpu is None or not hasattr(os, "sched_setaffinity"):
        pytest.skip("the platform does not say which CPU a thread is on")
    if scsvm_threads.usable_cpus() < 2:
        pytest.skip("the process may run on one CPU only")
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 2_000)
    caller_cpus = []

    def recording_getcpu():
        caller_cpus.append(getcpu())
        return caller_cpus[-1]

    # the helper is pinned when it starts, off the CPU this returns then
    monkeypatch.setattr(scsvm_threads, "_sched_getcpu", lambda: recording_getcpu)
    real = scsvm_data._parse_batch
    helper_cpus = []

    def parse_batch(lines, n_features):
        if threading.current_thread().name == "scsvm-helper":
            helper_cpus.append(os.sched_getaffinity(0))
        else:
            time.sleep(0.01)  # leave batches for the helper to take
        return real(lines, n_features)

    monkeypatch.setattr(scsvm_data, "_parse_batch", parse_batch)
    assert parse_text("".join(numbered_lines(2_000))).n == 2_000
    (cpu,) = caller_cpus
    assert helper_cpus
    assert all(cpu not in cpus for cpus in helper_cpus), (cpu, helper_cpus)


def test_parse_on_more_threads_than_cores_switching_often(monkeypatch):
    lines = numbered_lines(6_000)
    text = "".join(lines)
    lines[5_900] = "-1 1:5901 2:x\n"
    bad = "".join(lines)
    parse_on(monkeypatch, 1)
    want = parse_text(text)
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 4_000)
    # four parses at once, each with a helper of its own: eight threads on
    # fewer cores, handing over batches at every chance to switch
    parse_on(monkeypatch, 8)
    started, ran_on = watch_helpers(monkeypatch)

    def parse_both(_):
        for _ in range(5):
            assert same_content(parse_text(text), want)
            with pytest.raises(ValueError, match="line 5901: expected index:value, got '2:x'"):
                parse_text(bad)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(parse_both, range(4)))
    finally:
        sys.setswitchinterval(interval)
    assert ran_on == ["scsvm-helper"] * 40
    assert started.count("scsvm-helper") <= 7
    assert leases_come_back()


@pytest.mark.parametrize("threads", [1, 2])
def test_parse_reads_an_open_file_object(tmp_path, monkeypatch, threads):
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", 2_000)
    parse_on(monkeypatch, threads)
    path = tmp_path / "open.svm"
    path.write_text("".join(numbered_lines(3_000)), encoding="ascii")
    calls = recording_batches(monkeypatch)
    with path.open(encoding="ascii") as fh:
        ds = parse_svmlight(fh)
        assert not fh.closed
    assert len(calls) > 2
    np.testing.assert_array_equal(ds.values[::2], np.arange(1, 3_001))
    assert same_content(ds, parse_svmlight(path))


def test_batch_parse_allocates_under_nine_times_its_text():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((2_000, 20)).tolist()
    lines = [" ".join(["-1", *(f"{j + 1}:{v!r}" for j, v in enumerate(row))]) + "\n" for row in values]
    chars = sum(map(len, lines))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ds = scsvm_data._parse_batch(lines, None)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert ds.nnz == 40_000
    # the byte scan's arrays are freed before the number scan
    assert peak < 9 * chars


def test_concat_holds_the_parts_and_one_joined_field():
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        parts = [
            SparseDataset(np.arange(0, 20_001, 4), np.tile(np.arange(4), 5_000),
                          rng.standard_normal(20_000), np.ones(5_000), 4)
            for _ in range(8)
        ]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        ds = scsvm_data._concat(parts, "parts", None)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert ds.nnz == 160_000 and ds.n == 40_000
    # beyond the parts: the largest joined field, and the final check's
    # row-start mask of one byte per entry
    assert peak < ds.values.nbytes + 2 * ds.nnz
    assert parts == []


def test_parse_splits_tokens_at_any_whitespace_inside_a_line():
    ds = parse_text("1 1:1\x0c2:3\x0b3:4\n")
    assert ds.n == 1
    np.testing.assert_array_equal(ds.col_idx, [0, 1, 2])


def test_parse_file_lines_end_at_a_lone_carriage_return(tmp_path):
    # a file is read with universal newlines: "\r", "\r\n" and "\n" each end a line
    path = tmp_path / "cr.svm"
    path.write_bytes(b"+1 1:1\r-1 2:2 \r\n+1 1:1 3:1\n-1 3:4\r")
    ds = parse_svmlight(path)
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0, -1.0])
    np.testing.assert_array_equal(ds.row_ptr, [0, 1, 2, 4, 5])
    np.testing.assert_array_equal(ds.col_idx, [0, 1, 0, 2, 2])
    path.write_bytes(b"+1 1:1\r-1 2:2\r+1 1:x\n")
    with pytest.raises(ValueError, match="cr.svm, line 3: expected index:value, got '1:x'"):
        parse_svmlight(path)


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


def csr(row_ptr, col_idx):
    n = len(row_ptr) - 1
    return SparseDataset(
        row_ptr=np.array(row_ptr),
        col_idx=np.array(col_idx, dtype=np.int64),
        values=np.ones(len(col_idx)),
        labels=np.ones(n),
        m=10,
    )


@pytest.mark.parametrize(
    "row_ptr, col_idx",
    [
        ([0, 2, 4], [1, 2, 0, 1]),  # a drop at a row boundary
        ([0, 2, 4], [1, 2, 2, 3]),  # a repeat at a row boundary
        ([0, 2, 2, 3], [3, 4, 0]),  # a drop across an empty row
        ([0, 1, 1, 1, 2], [5, 5]),  # a repeat across two empty rows
        ([0, 0, 2, 3], [1, 2, 0]),  # an empty first row
        ([0, 3, 4], [0, 4, 9, 0]),  # a drop into the last row
        ([0, 2, 3, 3], [4, 6, 1]),  # a drop before an empty last row
        ([0, 1, 2, 3], [9, 9, 9]),  # one entry per row, all the same column
    ],
)
def test_dataset_accepts_column_drops_at_row_starts(row_ptr, col_idx):
    assert csr(row_ptr, col_idx).nnz == len(col_idx)


@pytest.mark.parametrize(
    "row_ptr, col_idx",
    [
        ([0, 2], [1, 1]),  # a repeat inside the only row
        ([0, 2, 5], [1, 2, 0, 3, 3]),  # a repeat inside the last row
        ([0, 3, 4], [0, 5, 4, 1]),  # a decrease inside the first row
        ([0, 0, 2], [4, 1]),  # a decrease inside a row after an empty row
        ([0, 2, 2, 4], [1, 2, 3, 3]),  # a repeat in the row after an empty row
        ([0, 1, 3], [0, 7, 6]),  # a decrease at the very end
    ],
)
def test_dataset_rejects_repeats_and_decreases_inside_a_row(row_ptr, col_idx):
    with pytest.raises(ValueError, match="strictly increasing per row"):
        csr(row_ptr, col_idx)


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
    assert same_content(ds, again)


def test_stats():
    stats = parse_text(SIMPLE).stats()
    assert (stats.n, stats.m, stats.nnz) == (2, 3, 3)
    assert stats.density_pct == pytest.approx(50.0)
    assert stats.csv_row("toy") == "toy,2,3,3,50.00"
    d = stats.as_dict()
    assert d == {"n": 2, "m": 3, "nnz": 3, "density_pct": 50.0}


def test_stats_as_dict_leaves_the_stats_as_they_were():
    # reading the fields through vars() would make each object build and keep
    # an instance dict
    def stats(count):
        return [DatasetStats(i, 3, 2 * i, 0.5) for i in range(count)]

    assert bytes_kept_per_object(DatasetStats.as_dict, stats) < 8


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
    assert same_content(ds, again)


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


LABELS = st.one_of(
    st.sampled_from(["+1", "-1", "1", "2", "1e-5", "-0.0", "1_0", "nan", "abc", "1:2"]),
    st.floats().map(repr),
)
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e-5", "-0.0", "+1", "1_0", "7"]),
)
ODD_TOKENS = st.sampled_from(
    [
        "1:2:3", ":5", "5:", "5", "1:nan", "1:inf", "0:1", "-3:1", "x:1", "1:x",
        "1.5:2", "9223372036854775807:1", "9223372036854775808:1",
        "99999999999999999999999:1", "-9223372036854775808:1",
    ]
)


def spell_index(i, style):
    if style == "plus":
        return f"+{i}"
    if style == "underscore" and i >= 10:
        return f"{i // 10}_{i % 10}"
    return str(i)


# every ASCII byte str.split() splits on, a lone "\r" among them: a stream
# line ends only at "\n"
ASCII_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", " \r "]
# whitespace to str.split() but outside ASCII: such a line is never scanned as bytes
WIDE_SEPARATORS = ["\xa0", "\u3000", "\u2028", "\x85"]


@st.composite
def svmlight_lines(draw):
    kind = draw(st.sampled_from(["row", "row", "row", "label-only", "blank"]))
    # LIBSVM files end each line with a space
    end = draw(st.sampled_from(["", " ", "\t", "\r"])) + draw(st.sampled_from(["\n", "\r\n"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t", "\x1f"])) + end
    label = draw(LABELS)
    if kind == "label-only":
        return label + end
    idx = draw(st.lists(st.integers(1, 14), unique=True, max_size=6).map(sorted))
    styles = st.sampled_from(["plain", "plus", "underscore"])
    tokens = [f"{spell_index(i, draw(styles))}:{draw(VALUES)}" for i in idx]
    if draw(st.integers(0, 7)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(ODD_TOKENS))
    sep = draw(st.sampled_from(ASCII_SEPARATORS))
    if draw(st.integers(0, 9)) == 0:
        sep = draw(st.sampled_from(WIDE_SEPARATORS))
    return sep.join([label, *tokens]) + end


@st.composite
def svmlight_texts(draw):
    text = "".join(draw(st.lists(svmlight_lines(), max_size=14)))
    if draw(st.booleans()):
        # a last line with no newline
        text = text.removesuffix("\n")
    return text


def parse_or_message(parse):
    try:
        return parse()
    except ValueError as exc:
        return str(exc)


def line_by_line(text, n_features):
    """The per-line parser over the whole text, as one batch."""
    ds = scsvm_data._parse_lines(io.StringIO(text).readlines(), "<stream>", n_features, 1)
    if ds.n == 0:
        raise ValueError("<stream>: no samples")
    return ds


# no deadline: an example parses at two thread counts, and its time is the host's
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    svmlight_texts(),
    st.one_of(st.none(), st.integers(0, 16)),
    st.integers(1, 64),
)
@example("+1 1:1\n-1 1:2:3 5\n", None, 1_000)
@example("+1 1:1\n-1 1:2:3 5\n", None, 1)
@example("+1 -9223372036854775808:1\n", 2**64, 1_000)  # idx - 1 wraps in int64
@example("+1 1:1\r-1 2:2\x1c3:3 \n+1 1:1", None, 1_000)
@example("+1 1:1\xa02:2\n-1 1:3\n", None, 1_000)
def test_batched_parse_matches_line_by_line(monkeypatch, text, n_features, batch_chars):
    # small batches put batch boundaries anywhere in the text
    monkeypatch.setattr(scsvm_data, "_BATCH_CHARS", batch_chars)
    want = parse_or_message(lambda: line_by_line(text, n_features))
    for threads in (1, 2):
        parse_on(monkeypatch, threads)
        got = parse_or_message(lambda: parse_text(text, n_features=n_features))
        if isinstance(want, str):
            assert got == want, threads
        else:
            assert isinstance(got, SparseDataset), (threads, got)
            assert got.m == want.m
            # bytes, not values: -0.0 must stay -0.0, and a nan label equal itself
            for field in ("row_ptr", "col_idx", "values", "labels"):
                g, w = getattr(got, field), getattr(want, field)
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), (threads, field)


# The feature scan reads plain decimals with C-level passes and leaves the rest
# to Python's int and float. These tests pin it to them bit for bit.

# decimals whose quotient M / 10**f, rounded to a 64-bit significand, lands on
# a midpoint between two doubles, so that the cast to float64 would round the
# wrong way (the first is a value of data/dense_mid)
MIDPOINT_HAZARDS = ["0.2466212757247324", "-3.52132212", "-.390736", ".9479899267179"]
# mantissas past 18 digits, which an int64 scan reads saturated or not at all
SATURATING = ["99999999999999999999", "-99999999999999999999", "-9223372036854775808",
              "9223372036854775807", "1000000000000000000", "92233720368547758.08"]


@st.composite
def decimals(draw, min_digits=1, max_digits=18):
    """Digits with an optional dot anywhere (".5", "5.", "-0.0") and sign."""
    digits = draw(st.text("0123456789", min_size=min_digits, max_size=max_digits))
    dot = draw(st.none() | st.integers(0, len(digits)))
    body = digits if dot is None else f"{digits[:dot]}.{digits[dot:]}"
    return draw(st.sampled_from(["", "-"])) + body


@st.composite
def near_midpoints(draw):
    """15 to 18 significant digits at or next to a midpoint between two doubles."""
    d = draw(st.floats(1e-9, 1e17))
    digits = draw(st.integers(15, 18))
    exact = Context(prec=80)
    mid = exact.divide(exact.add(Decimal(d), Decimal(math.nextafter(d, math.inf))), 2)
    unit = Decimal(1).scaleb(mid.adjusted() - digits + 1)
    near = mid.quantize(unit) + draw(st.integers(-1, 1)) * unit
    return draw(st.sampled_from(["", "-"])) + format(near, "f")


@st.composite
def integer_midpoints(draw):
    """Odd multiples of 2**s in [2**(53+s), 2**(54+s)): halfway between doubles."""
    s = draw(st.integers(0, 5))
    m = (2 * draw(st.integers(2**52, 2**53 - 1)) + 1) << s
    return draw(st.sampled_from(["{}", "{}.", "{}.0", "-{}"])).format(m)


NUMERALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    decimals(),
    near_midpoints(),
    integer_midpoints(),
    decimals(min_digits=19, max_digits=25),
    st.sampled_from(["1e-5", "-2.5E+3", "+1", "+.5", "1_0", "-0", "-0.0", ".5", "5."]),
)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(NUMERALS, min_size=1, max_size=30))
@example(MIDPOINT_HAZARDS)
@example(SATURATING)
@pytest.mark.parametrize("working", ["native", "float64"])
def test_feature_values_read_as_python_float(monkeypatch, working, values):
    if working == "float64":
        monkeypatch.setattr(scsvm_data, "_EXACT", scsvm_data._exact_in(np.float64))
    text = "1 " + " ".join(f"{i}:{v}" for i, v in enumerate(values, start=1)) + "\n"
    ds = parse_text(text)
    want = np.array([float(v) for v in values])
    assert ds.values.tobytes() == want.tobytes()
    assert ds.col_idx.tolist() == list(range(len(values)))


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(NUMERALS, min_size=1, max_size=30))
@example(MIDPOINT_HAZARDS)
@example(SATURATING)
@pytest.mark.parametrize("working", ["native", "float64"])
def test_labels_read_as_python_float(monkeypatch, working, labels):
    # labels are scanned with the values, one per line, before any feature
    if working == "float64":
        monkeypatch.setattr(scsvm_data, "_EXACT", scsvm_data._exact_in(np.float64))
    ds = parse_text("".join(f"{label} 1:{i}\n" for i, label in enumerate(labels, start=1)))
    want = np.array([float(label) for label in labels])
    assert ds.labels.tobytes() == want.tobytes()
    assert ds.values.tolist() == list(range(1, len(labels) + 1))


@pytest.mark.parametrize(
    "index",
    ["1", "007", "999999999999999999", "1000000000000000000", "9223372036854775807", "+5", "1_0"],
)
def test_feature_index_reads_as_python_int(index):
    ds = parse_text(f"1 {index}:1\n")
    assert ds.col_idx.tolist() == [int(index) - 1]


def test_plain_decimals_are_not_read_by_python_float(monkeypatch):
    calls = []

    def counting_float(text):
        calls.append(text)
        return float(text)

    monkeypatch.setattr(scsvm_data, "float", counting_float, raising=False)
    ds = parse_text("+1 1:0.5 2:-1.25 3:7\n-1 1:3. 2:-.5 3:1e-5\n")
    np.testing.assert_array_equal(ds.values, [0.5, -1.25, 7.0, 3.0, -0.5, 1e-5])
    # labels are scanned like values: only the one with a "+" and the one
    # token in e-notation take Python's float
    assert calls == ["+1", "1e-5"]


def test_float64_working_type_has_clingers_bounds():
    exact = scsvm_data._exact_in(np.float64)
    assert exact.mant_max == 2**53
    assert exact.pow10.size - 1 == 22
    assert exact.pow10.tolist() == [10.0**f for f in range(23)]


@pytest.mark.parametrize(
    "name", ["dense_mid", "noisy_blobs", "separable_toy", "sparse_imbalanced", "tiny"]
)
def test_float64_working_type_reads_the_bundled_files_alike(monkeypatch, name):
    native = parse_svmlight(DATA / name)
    monkeypatch.setattr(scsvm_data, "_EXACT", scsvm_data._exact_in(np.float64))
    forced = parse_svmlight(DATA / name)
    for field in ("row_ptr", "col_idx", "values", "labels"):
        assert getattr(forced, field).tobytes() == getattr(native, field).tobytes(), field
