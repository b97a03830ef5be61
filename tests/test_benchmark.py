"""Benchmark harness tests: row grid, CSV/JSON contracts, determinism."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scsvm.benchmark import (
    CSV_COLUMNS,
    REFERENCE_RESULTS,
    REFERENCE_SR,
    BenchmarkRow,
    render_csv,
    render_json,
    run_benchmark,
)
from scsvm.data import SparseDataset
from scsvm.dcd import DcdConfig
from scsvm.mpm import MpmConfig

from test_mpm import tight_pair_clusters
from _util import dense_dataset, noisy_linear_dataset


def small_suite():
    rng = np.random.default_rng(5)
    return [
        ("pair", tight_pair_clusters(20)),
        ("noisy", noisy_linear_dataset(rng, 30, 4, flip=0.1)),
    ]


def overflow_dataset():
    # values around 1e200 make the normal matrix non-finite, so training
    # raises instead of returning a model
    x = np.array([[1e200, -1e200], [-1e200, 1e200]])
    return dense_dataset(x, np.array([1.0, -1.0]))


def quick_cfg():
    return MpmConfig(sr=0.1, max_outer=20)


def test_empty_dataset_list_gives_empty_report():
    assert run_benchmark([], (0.01, 0.10)) == []


def test_one_row_per_dataset_sr_pair_in_grid_order():
    grid = (0.01, 0.10, 0.50)
    rows = run_benchmark(small_suite(), grid, quick_cfg())
    assert [(r.dataset, r.sr) for r in rows] == [
        ("pair", 0.01), ("pair", 0.10), ("pair", 0.50),
        ("noisy", 0.01), ("noisy", 0.10), ("noisy", 0.50),
    ]
    for row in rows:
        assert row.error is None
        assert row.k >= 1
        assert row.time_s > 0.0
        assert 0.0 <= row.accuracy_pct <= 100.0
        assert row.termination in ("converged", "max_outer")
        assert row.s == row.report.budget


def test_budget_column_monotone_in_sr():
    rows = run_benchmark(small_suite()[:1], (0.01, 0.05, 0.25, 0.50), quick_cfg())
    budgets = [r.s for r in rows]
    assert budgets == sorted(budgets)


@given(
    n=st.integers(min_value=1, max_value=10_000),
    sr_pair=st.tuples(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
def test_budget_resolution_monotone_in_sr(n, sr_pair):
    lo, hi = sorted(sr_pair)
    s_lo = MpmConfig(sr=lo).resolve_budget(n)
    s_hi = MpmConfig(sr=hi).resolve_budget(n)
    assert s_lo <= s_hi


def test_csv_header_and_shape():
    rows = run_benchmark(small_suite(), (0.10,), quick_cfg())
    text = render_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "dataset,sr,k,cg,time_s,accuracy_pct,train_misclassified,s"
    assert len(lines) == 1 + len(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_COLUMNS)
    for record in parsed[1:]:
        assert len(record) == len(CSV_COLUMNS)


def test_csv_accuracy_has_four_decimals():
    rows = run_benchmark([("pair", tight_pair_clusters(20))], (0.10,), quick_cfg())
    record = render_csv(rows).strip().split("\n")[1].split(",")
    acc = record[CSV_COLUMNS.index("accuracy_pct")]
    whole, frac = acc.split(".")
    assert len(frac) == 4
    assert float(acc) == rows[0].accuracy_pct


def mask_timing(text: str) -> str:
    records = list(csv.reader(io.StringIO(text)))
    idx = records[0].index("time_s")
    for record in records[1:]:
        record[idx] = "_"
    return "\n".join(",".join(r) for r in records)


def test_csv_deterministic_apart_from_timing():
    first = render_csv(run_benchmark(small_suite(), (0.01, 0.10), quick_cfg()))
    second = render_csv(run_benchmark(small_suite(), (0.01, 0.10), quick_cfg()))
    assert mask_timing(first) == mask_timing(second)


def test_failed_dataset_keeps_slot_and_run_continues():
    suite = [("bad", overflow_dataset()), ("pair", tight_pair_clusters(20))]
    rows = run_benchmark(suite, (0.10,), quick_cfg())
    assert len(rows) == 2
    bad, good = rows
    assert bad.dataset == "bad"
    assert bad.error is not None
    assert bad.k is None and bad.accuracy_pct is None and bad.time_s is None
    assert good.error is None and good.accuracy_pct == 100.0
    record = render_csv(rows).strip().split("\n")[1]
    assert record == "bad,0.1,,,,,,"


def test_accuracy_uses_heldout_set_when_given():
    train = tight_pair_clusters(20)
    # held-out set with every label flipped: a perfect training fit scores 0
    test = SparseDataset(
        train.row_ptr.copy(), train.col_idx.copy(), train.values.copy(),
        -train.labels, train.m,
    )
    rows = run_benchmark([("flip", train, test), ("same", train)], (0.10,), quick_cfg())
    assert rows[0].accuracy_pct == 0.0
    assert rows[1].accuracy_pct == 100.0


def test_jobs_parallel_matches_serial():
    serial = run_benchmark(small_suite(), (0.01, 0.10), quick_cfg())
    parallel = run_benchmark(small_suite(), (0.01, 0.10), quick_cfg(), jobs=4)
    assert mask_timing(render_csv(serial)) == mask_timing(render_csv(parallel))


def test_compare_mode_adds_baseline_and_reference_columns():
    rows = run_benchmark(small_suite(), (0.10,), quick_cfg(), dcd=DcdConfig())
    for row in rows:
        assert row.dcd_accuracy_pct is not None
        assert row.dcd_time_s > 0.0
        assert row.dcd_converged is not None
    text = render_csv(rows, include_dcd=True)
    header = text.strip().split("\n")[0]
    assert header == (
        "dataset,sr,k,cg,time_s,accuracy_pct,train_misclassified,s,"
        "dcd_accuracy_pct,dcd_time_s,ref_accuracy_pct,ref_dcd_accuracy_pct"
    )
    # bundled toy names have no pinned reference numbers
    for record in csv.reader(io.StringIO(text)):
        if record[0] != "dataset":
            assert record[-2] == "" and record[-1] == ""


def test_reference_metadata_pinned_values():
    # pinned externally reported results; shown alongside measurements,
    # never asserted against them
    heart = REFERENCE_RESULTS["heart"]
    assert (heart.k, heart.cg) == (17, 0)
    assert heart.accuracy_pct == 86.4198
    assert heart.dcd_l1_accuracy_pct == 83.95
    a1a = REFERENCE_RESULTS["a1a"]
    assert (a1a.k, a1a.cg) == (27, 1699)
    assert a1a.accuracy_pct == 83.4992
    row = BenchmarkRow(dataset="heart", sr=REFERENCE_SR, accuracy_pct=80.0)
    assert row.reference() is heart
    assert BenchmarkRow(dataset="heart", sr=0.25).reference() is None
    assert BenchmarkRow(dataset="pair", sr=REFERENCE_SR).reference() is None


def test_reference_columns_rendered_when_name_matches():
    row = BenchmarkRow(
        dataset="heart", sr=0.10, s=27, k=17, cg=0, time_s=0.001,
        accuracy_pct=86.4198, train_misclassified=25, termination="converged",
    )
    record = render_csv([row], include_dcd=True).strip().split("\n")[1]
    assert record == "heart,0.1,17,0,0.0010,86.4198,25,27,,,86.4198,83.9500"
    entry = json.loads(render_json([row]))["rows"][0]
    assert entry["reference"] == {
        "k": 17, "cg": 0, "accuracy_pct": 86.4198, "dcd_l1_accuracy_pct": 83.95,
    }


def test_json_mirrors_csv_and_carries_history():
    rows = run_benchmark(small_suite(), (0.10,), quick_cfg())
    doc = json.loads(render_json(rows))
    assert doc["columns"] == list(CSV_COLUMNS)
    assert doc["columns"] == render_csv(rows).split("\n")[0].split(",")
    assert doc["reference_sr"] == REFERENCE_SR
    assert len(doc["rows"]) == len(rows)
    for row, entry in zip(rows, doc["rows"]):
        assert entry["dataset"] == row.dataset
        assert entry["sr"] == row.sr
        assert entry["k"] == row.k
        assert entry["accuracy_pct"] == row.accuracy_pct
        history = entry["training_report"]["history"]
        assert len(history) == row.k + 1
        assert history[-1]["k"] == row.k


def test_json_failed_row_keeps_error_and_null_numbers():
    rows = run_benchmark([("bad", overflow_dataset())], (0.10,), quick_cfg())
    entry = json.loads(render_json(rows))["rows"][0]
    assert entry["error"]
    assert entry["k"] is None
    assert entry["training_report"] is None


def test_row_rejects_out_of_range_accuracy():
    with pytest.raises(ValueError, match="outside"):
        BenchmarkRow(dataset="x", sr=0.1, accuracy_pct=100.5)
