"""Self-tests of the benchmark: input generation, spans, computed bytes,
wrapper removal and output checks.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_WIDE = workloads.SyntheticShape(n_train=120, n_test=40, m=150, nnz_per_row=8)
SMALL_DENSE = workloads.SyntheticShape(n_train=60, n_test=20, m=6, nnz_per_row=6)


@pytest.fixture(scope="module")
def scsvm():
    return run.import_program()


@pytest.fixture()
def harness(scsvm):
    ties = run.TieCounter()
    capture = run.TrainCapture(scsvm.benchmark)
    yield capture, ties
    capture.restore()


def small_workload(name, max_outer=20):
    return workloads.Workload(name, "test", shape=None, sr_grid=(0.1, 0.25),
                              max_outer=max_outer, accuracy_floor_pct={name: 0.0})


def write_inputs(shape, seed, directory):
    return workloads._synthetic_inputs("small", shape, seed, directory)


@pytest.mark.parametrize("shape", [SMALL_WIDE, SMALL_DENSE])
def test_generator_is_byte_identical_per_seed_and_differs_across_seeds(tmp_path, shape):
    texts = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        write_inputs(shape, seed, tmp_path / label)
        texts[label] = [(tmp_path / label / f"small.{part}.svm").read_bytes()
                        for part in ("train", "test", "warmup")]
    assert texts["a"] == texts["b"]
    assert all(x != y for x, y in zip(texts["a"], texts["c"]))


def test_generated_text_parses_back_to_the_generated_arrays(tmp_path, scsvm):
    inputs = write_inputs(SMALL_WIDE, 7, tmp_path)
    entry = run.load(scsvm, inputs.datasets[0])
    assert run.parse_problems(inputs.datasets[0], entry) == []
    train = inputs.datasets[0].train.expected
    assert train.shape[0] == SMALL_WIDE.n_train
    assert set(np.unique(train.labels)) == {-1.0, 1.0}


def test_parse_check_catches_a_changed_value(tmp_path, scsvm):
    inputs = write_inputs(SMALL_DENSE, 7, tmp_path)
    name, train, test = run.load(scsvm, inputs.datasets[0])
    values = train.values.copy()
    values[5] += 1e-12
    bad = scsvm.data.SparseDataset(train.row_ptr, train.col_idx, values, train.labels, train.m)
    problems = run.parse_problems(inputs.datasets[0], (name, bad, test))
    assert len(problems) == 1 and "differ" in problems[0]


def test_computed_bytes_on_a_three_by_three_matrix():
    a = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]))
    index_bytes = a.indices.itemsize
    # per pass: values + column indices + row pointers, input and output vector
    one_pass = a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + 8 * (3 + 3)
    assert tracer.apply_computed_bytes(3, 3, a.nnz, index_bytes) == 2 * one_pass
    assert tracer.apply_computed_bytes(3, 3, 5, 4) == 2 * (5 * 12 + 4 * 4 + 48) == 248


def traced_rep(scsvm, harness, workload, inputs):
    capture, ties = harness
    trace = tracer.Tracer()
    rep = run.timed_rep(scsvm, workload, inputs, capture, ties, trace, "t0")
    return rep, trace


def layer_targets(scsvm):
    op = scsvm.linsys.RegularizedNormalOperator
    return {
        (scsvm.data, "parse_svmlight"), (scsvm.benchmark, "run_benchmark"),
        (scsvm.benchmark, "mpm_train"), (scsvm.benchmark, "accuracy"),
        (scsvm.benchmark, "train_misclassified_count"), (scsvm.mpm, "project_omega_s"),
        (scsvm.mpm, "dense_solve"), (scsvm.mpm, "cg_solve"), (op, "apply"), (op, "dense_matrix"),
    }


@pytest.mark.parametrize("shape", [SMALL_WIDE, SMALL_DENSE])
def test_span_tree_is_well_formed(tmp_path, scsvm, harness, shape):
    rep, trace = traced_rep(scsvm, harness, small_workload("small"), write_inputs(shape, 1, tmp_path))
    assert rep["failed"] == 0 and rep["problems"] == []
    spans = trace.spans
    names = {s[tracer.NAME] for s in spans}
    solve = "linsys.cg_solve" if shape.m >= 100 else "linsys.dense_solve"
    assert {"data.parse", "benchmark.run_benchmark", "mpm.train", "projection.project",
            "linsys.apply", solve, "evaluate.accuracy"} <= names
    for i, span in enumerate(spans):
        assert span[tracer.END] >= span[tracer.START]
        assert span[tracer.RUN] == "t0"
        parent = span[tracer.PARENT]
        if parent >= 0:
            assert parent < i
            assert spans[parent][tracer.START] <= span[tracer.START]
            assert span[tracer.END] <= spans[parent][tracer.END]
    assert all(t >= 0 for t in tracer.self_times(spans))
    metrics, per_call = tracer.layer_metrics(spans, reps=1)
    assert metrics["mpm.train.calls"] == 2
    assert per_call["linsys.apply.us_per_call"]["samples"] == metrics["linsys.apply.calls"]
    assert all(v >= 0 for k, v in metrics.items() if k.endswith("_s"))


def test_wrappers_are_removed_after_a_traced_run(tmp_path, scsvm, harness):
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in layer_targets(scsvm)}
    traced_rep(scsvm, harness, small_workload("small"), write_inputs(SMALL_WIDE, 1, tmp_path))
    after = {(owner, attr): owner.__dict__[attr] for owner, attr in layer_targets(scsvm)}
    assert after == before


def test_self_time_subtracts_only_direct_children():
    spans = [
        ["outer", 0, 100, -1, "r", None],
        ["mid", 10, 60, 0, "r", None],
        ["leaf", 20, 30, 1, "r", None],
        ["leaf", 70, 90, 0, "r", None],
    ]
    assert tracer.self_times(spans) == [30, 40, 10, 20]


@pytest.mark.parametrize("samples,pct", [(19, 50.0), (100, 90.0), (1000, 99.0), (18185, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(samples, pct):
    assert tracer.tail_percentile(samples) == pct


def test_output_checks_flag_a_misreported_row(tmp_path, scsvm, harness):
    capture, ties = harness
    workload = small_workload("small")
    inputs = write_inputs(SMALL_DENSE, 2, tmp_path)
    rep = run.timed_rep(scsvm, workload, inputs, capture, ties)
    assert rep["failed"] == 0 and rep["ops"] == 2
    entry = run.load(scsvm, inputs.datasets[0])
    grid, cfg = run.solver_args(scsvm, workload)
    capture.calls.clear()
    rows = scsvm.benchmark.run_benchmark([entry], grid, cfg)
    row, call = rows[0], capture.calls[0]
    assert run.check_operation(workload, entry, row, call)[0] is None
    assert "does not match" in run.check_operation(workload, entry, rows[1], call)[0]
    wrong_count = replace(row, train_misclassified=row.train_misclassified + 1)
    assert "train_misclassified" in run.check_operation(workload, entry, wrong_count, call)[0]
    wrong_acc = replace(row, accuracy_pct=max(0.0, row.accuracy_pct - 1.0))
    assert "accuracy" in run.check_operation(workload, entry, wrong_acc, call)[0]
    strict = replace(workload, accuracy_floor_pct={"small": 100.5})
    assert "floor" in run.check_operation(strict, entry, row, call)[0]
    raised = replace(row, error="LinAlgError: boom")
    assert "raised" in run.check_operation(workload, entry, raised, call)[0]


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.CONTRACT_END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no program source" in proc.stderr
