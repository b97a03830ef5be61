"""Benchmark harness: sparsity-ratio sweeps with CSV and JSON reports.

One row per (dataset, ratio) pair. Rows carry the solver telemetry that the
CSV schema exposes plus the full per-iteration history for the JSON mirror.
A row that fails keeps its slot with the error message recorded, so a sweep
over many datasets survives one bad input.

Externally reported reference results for the standard benchmark datasets at
the 10% ratio are embedded as metadata and shown next to fresh measurements.
They are context, not assertions: splits and hardware differ, so the harness
never checks measured numbers against them.

Sensitivity runs reuse this module unchanged: the config argument carries the
solver knobs (CG tolerance, warm-start policy, dense-path threshold, rho
schedule), so sweeping a knob is a second call with a modified config.
"""

from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from operator import attrgetter
from time import perf_counter

from .data import SparseDataset
from .dcd import DcdConfig, dcd_train
from .evaluate import accuracy, train_misclassified_count
from .mpm import MpmConfig, TrainReport, mpm_train

DEFAULT_SR_GRID = (0.01, 0.05, 0.10, 0.15, 0.25, 0.50)


@dataclass(frozen=True)
class ReferenceResult:
    """Externally reported numbers for one dataset at the reference ratio."""

    k: int
    cg: int
    accuracy_pct: float
    dcd_l1_accuracy_pct: float | None = None


# Reported at sr = 10% under the defaults (rho = 0.4, CG tol 1e-3, cap 500).
# The dcd_l1 column is the dual coordinate descent baseline from the same
# comparison. Reported splits are unknown; treat as ballpark context.
REFERENCE_SR = 0.10
REFERENCE_RESULTS: dict[str, ReferenceResult] = {
    "a1a": ReferenceResult(k=27, cg=1699, accuracy_pct=83.4992, dcd_l1_accuracy_pct=83.81),
    "breast-cancer": ReferenceResult(k=18, cg=0, accuracy_pct=100.0, dcd_l1_accuracy_pct=99.51),
    "heart": ReferenceResult(k=17, cg=0, accuracy_pct=86.4198, dcd_l1_accuracy_pct=83.95),
    "mushrooms": ReferenceResult(k=14, cg=494, accuracy_pct=100.0, dcd_l1_accuracy_pct=100.0),
    "svmguide1": ReferenceResult(k=26, cg=0, accuracy_pct=92.175, dcd_l1_accuracy_pct=62.65),
}


@dataclass(frozen=True)
class BenchmarkRow:
    """Outcome of one (dataset, ratio) cell.

    Numeric fields are None when the cell failed; `error` says why. Accuracy
    is measured on the held-out set when one was provided, otherwise on the
    training set itself. train_misclassified always counts against the
    training set, since that is the quantity the budget constrains.
    """

    dataset: str
    sr: float
    s: int | None = None
    k: int | None = None
    cg: int | None = None
    time_s: float | None = None
    accuracy_pct: float | None = None
    train_misclassified: int | None = None
    termination: str | None = None
    error: str | None = None
    report: TrainReport | None = None
    dcd_accuracy_pct: float | None = None
    dcd_time_s: float | None = None
    dcd_converged: bool | None = None

    def __post_init__(self):
        for value in (self.accuracy_pct, self.dcd_accuracy_pct):
            if value is not None and not 0.0 <= value <= 100.0:
                raise ValueError(f"accuracy {value} outside [0, 100]")

    def reference(self) -> ReferenceResult | None:
        if self.dataset in REFERENCE_RESULTS and self.sr == REFERENCE_SR:
            return REFERENCE_RESULTS[self.dataset]
        return None


def _normalize(entry) -> tuple[str, SparseDataset, SparseDataset | None]:
    if len(entry) == 2:
        name, train = entry
        return name, train, None
    name, train, test = entry
    return name, train, test


def _run_cell(
    name: str,
    train: SparseDataset,
    test: SparseDataset | None,
    sr: float,
    cfg: MpmConfig,
    dcd: DcdConfig | None,
) -> BenchmarkRow:
    try:
        cell_cfg = replace(cfg, sr=sr, s=None)
        model, report = mpm_train(train, cell_cfg)
        eval_ds = test if test is not None else train
        acc = accuracy(model, eval_ds)
        misses = train_misclassified_count(model, train)
    except Exception as exc:  # noqa: BLE001 - record and keep sweeping
        return BenchmarkRow(dataset=name, sr=sr, error=f"{type(exc).__name__}: {exc}")
    row = BenchmarkRow(
        dataset=name,
        sr=sr,
        s=report.budget,
        k=report.outer_iters,
        cg=report.total_cg,
        time_s=report.wall_time_s,
        accuracy_pct=acc,
        train_misclassified=misses,
        termination=report.termination,
        report=report,
    )
    if dcd is None:
        return row
    try:
        t0 = perf_counter()
        dcd_model, dcd_result = dcd_train(train, dcd)
        dcd_time = perf_counter() - t0
        dcd_acc = accuracy(dcd_model, test if test is not None else train)
    except Exception as exc:  # noqa: BLE001
        return replace(row, error=f"dcd: {type(exc).__name__}: {exc}")
    return replace(
        row,
        dcd_accuracy_pct=dcd_acc,
        dcd_time_s=dcd_time,
        dcd_converged=dcd_result.converged,
    )


def run_benchmark(
    datasets,
    sr_grid=DEFAULT_SR_GRID,
    cfg: MpmConfig | None = None,
    *,
    jobs: int = 1,
    dcd: DcdConfig | None = None,
) -> list[BenchmarkRow]:
    """One training run per (dataset, ratio); returns rows in grid order.

    datasets holds (name, train) or (name, train, test) tuples. The budget
    ratio of cfg is overridden per cell; every other knob passes through.
    jobs > 1 runs cells in a thread pool over the shared immutable datasets;
    keep the default of 1 when timing numbers matter. A dcd config also
    trains the coordinate-descent baseline on every cell; None skips it.
    """
    base = cfg if cfg is not None else MpmConfig(sr=REFERENCE_SR)
    cells = [
        (name, train, test, float(sr))
        for name, train, test in map(_normalize, datasets)
        for sr in sr_grid
    ]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(lambda c: _run_cell(*c, base, dcd), cells))
    return [_run_cell(*c, base, dcd) for c in cells]


def _fmt(value, spec: str = "") -> str:
    if value is None:
        return ""
    return format(value, spec)


def _reference_field(name: str):
    def value(row: BenchmarkRow):
        ref = row.reference()
        return None if ref is None else getattr(ref, name)

    return value


# The CSV schema, one (column, value of a row, format spec) entry per column;
# the header line and every record are read from these two tables.
_CSV_TABLE = (
    ("dataset", attrgetter("dataset"), ""),
    ("sr", attrgetter("sr"), "g"),
    ("k", attrgetter("k"), ""),
    ("cg", attrgetter("cg"), ""),
    ("time_s", attrgetter("time_s"), ".4f"),
    ("accuracy_pct", attrgetter("accuracy_pct"), ".4f"),
    ("train_misclassified", attrgetter("train_misclassified"), ""),
    ("s", attrgetter("s"), ""),
)
_COMPARISON_TABLE = (
    ("dcd_accuracy_pct", attrgetter("dcd_accuracy_pct"), ".4f"),
    ("dcd_time_s", attrgetter("dcd_time_s"), ".4f"),
    ("ref_accuracy_pct", _reference_field("accuracy_pct"), ".4f"),
    ("ref_dcd_accuracy_pct", _reference_field("dcd_l1_accuracy_pct"), ".4f"),
)
CSV_COLUMNS = tuple(column for column, _, _ in _CSV_TABLE)


def render_csv(rows, *, include_dcd: bool = False) -> str:
    """Fixed-order CSV; comparison mode appends the paired baseline columns.

    The paired layout mirrors the reference comparison tables: the same cell
    measured per solver sits in adjacent columns of one row, with the
    externally reported numbers alongside where known.
    """
    table = _CSV_TABLE + (_COMPARISON_TABLE if include_dcd else ())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([column for column, _, _ in table])
    for row in rows:
        writer.writerow([_fmt(value(row), spec) for _, value, spec in table])
    return buf.getvalue()


def _row_as_dict(row: BenchmarkRow) -> dict:
    ref = row.reference()
    out = {
        "dataset": row.dataset,
        "sr": row.sr,
        "s": row.s,
        "k": row.k,
        "cg": row.cg,
        "time_s": row.time_s,
        "accuracy_pct": row.accuracy_pct,
        "train_misclassified": row.train_misclassified,
        "termination": row.termination,
        "error": row.error,
        "reference": None if ref is None else asdict(ref),
        "training_report": None if row.report is None else row.report.as_dict(),
    }
    if row.dcd_accuracy_pct is not None or row.dcd_time_s is not None:
        out["dcd"] = {
            "accuracy_pct": row.dcd_accuracy_pct,
            "time_s": row.dcd_time_s,
            "converged": row.dcd_converged,
        }
    return out


def render_json(rows, *, indent: int | None = 2) -> str:
    """JSON mirror of the CSV plus per-iteration training histories."""
    doc = {
        "columns": list(CSV_COLUMNS),
        "reference_sr": REFERENCE_SR,
        "rows": [_row_as_dict(row) for row in rows],
    }
    return json.dumps(doc, indent=indent, allow_nan=False)
