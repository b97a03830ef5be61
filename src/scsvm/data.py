"""Sparse datasets in CSR layout plus the svmlight text format.

Files use the usual "label index:value ..." lines with 1-based, strictly
increasing feature indices; in memory everything is 0-based CSR. Labels are
kept exactly as written until an explicit remap produces the {-1, +1} form
that training requires.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DatasetStats",
    "LabelMap",
    "SparseDataset",
    "parse_svmlight",
    "remap_labels",
    "serialize_svmlight",
    "split",
]

# guards the one-time build of a dataset's matrix forms, which threads
# sharing a dataset (run_benchmark with jobs > 1) may request together
_FORMS_LOCK = threading.Lock()


@dataclass(frozen=True)
class DatasetStats:
    n: int
    m: int
    nnz: int
    density_pct: float

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "nnz": self.nnz,
            "density_pct": self.density_pct,
        }

    def csv_row(self, name: str) -> str:
        return f"{name},{self.n},{self.m},{self.nnz},{self.density_pct:.2f}"


@dataclass(frozen=True, eq=False)
class SparseDataset:
    """Immutable CSR dataset: n samples, m features, one label per sample."""

    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    m: int

    def __post_init__(self):
        object.__setattr__(self, "row_ptr", np.asarray(self.row_ptr, dtype=np.int64))
        object.__setattr__(self, "col_idx", np.asarray(self.col_idx, dtype=np.int64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.float64))
        ptr, col, val, lab = self.row_ptr, self.col_idx, self.values, self.labels
        if ptr.ndim != 1 or col.ndim != 1 or val.ndim != 1 or lab.ndim != 1:
            raise ValueError("row_ptr, col_idx, values and labels must be 1-D")
        if ptr.size != lab.size + 1:
            raise ValueError("row_ptr length must be n + 1")
        if ptr[0] != 0 or ptr[-1] != col.size or np.any(np.diff(ptr) < 0):
            raise ValueError("row_ptr must grow from 0 to nnz")
        if col.size != val.size:
            raise ValueError("col_idx and values must have equal length")
        if self.m < 0 or (col.size and (col.min() < 0 or col.max() >= self.m)):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(val)):
            raise ValueError("feature values must be finite")
        # strictly increasing columns within each row; a non-positive step is
        # only legal at a row boundary
        steps = np.flatnonzero(np.diff(col) <= 0)
        if steps.size and not np.all(np.isin(steps + 1, ptr)):
            raise ValueError("column indices must be strictly increasing per row")

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def nnz(self) -> int:
        return self.col_idx.size

    def _forms(self) -> tuple[sp.csr_matrix, sp.csc_matrix]:
        forms = self.__dict__.get("_cached_forms")
        if forms is None:
            with _FORMS_LOCK:
                forms = self.__dict__.get("_cached_forms")
                if forms is None:
                    a = sp.csr_matrix(
                        (self.values, self.col_idx, self.row_ptr),
                        shape=(self.n, self.m),
                        copy=False,
                    )
                    forms = (a, a.T)
                    object.__setattr__(self, "_cached_forms", forms)
        return forms

    def matrix(self) -> sp.csr_matrix:
        """A as CSR, built on first use and shared by every caller; do not mutate it."""
        return self._forms()[0]

    def matrix_t(self) -> sp.csc_matrix:
        """A^T as the CSC view over the arrays of matrix(); shared like it."""
        return self._forms()[1]

    def row(self, i: int):
        """(col_idx, values) views of one sample."""
        lo, hi = self.row_ptr[i], self.row_ptr[i + 1]
        return self.col_idx[lo:hi], self.values[lo:hi]

    def stats(self) -> DatasetStats:
        cells = self.n * self.m
        density = 100.0 * self.nnz / cells if cells else 0.0
        return DatasetStats(self.n, self.m, self.nnz, density)

    def assert_signed(self):
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1; remap them first")

    def with_feature_count(self, m: int) -> "SparseDataset":
        if m < self.m:
            raise ValueError(f"cannot shrink feature count {self.m} -> {m}")
        return SparseDataset(self.row_ptr, self.col_idx, self.values, self.labels, m)

    def take_rows(self, rows: np.ndarray) -> "SparseDataset":
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n):
            raise ValueError(f"row index outside [0, {self.n})")
        starts = self.row_ptr[rows]
        counts = self.row_ptr[rows + 1] - starts
        ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        # entry j of output row i sits at starts[i] + (j - ptr[i]) in the source
        picks = np.repeat(starts - ptr[:-1], counts) + np.arange(ptr[-1])
        return SparseDataset(
            ptr, self.col_idx[picks], self.values[picks], self.labels[rows], self.m
        )

    def same_content(self, other: "SparseDataset") -> bool:
        return (
            self.m == other.m
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.values, other.values)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass(frozen=True)
class LabelMap:
    """Maps exactly two raw label values onto {-1.0, +1.0}."""

    mapping: dict

    def __post_init__(self):
        if len(self.mapping) != 2:
            raise ValueError("label map needs exactly two raw labels")
        if set(self.mapping.values()) != {-1.0, 1.0}:
            raise ValueError("label map image must be {-1, +1}")

    @classmethod
    def infer(cls, labels) -> "LabelMap":
        """Ascending order: the smaller raw label becomes -1."""
        distinct = np.unique(np.asarray(labels, dtype=np.float64))
        if distinct.size != 2:
            raise ValueError(
                f"need exactly two distinct labels to infer a map, got {distinct.size}"
            )
        return cls({float(distinct[0]): -1.0, float(distinct[1]): 1.0})


def remap_labels(ds: SparseDataset, label_map: LabelMap) -> SparseDataset:
    distinct = np.unique(ds.labels)
    if distinct.size != 2:
        raise ValueError(
            f"dataset must carry exactly two distinct labels, found {distinct.size}"
        )
    for raw in distinct:
        if float(raw) not in label_map.mapping:
            raise ValueError(f"raw label {raw!r} missing from the label map")
    lut = {float(k): v for k, v in label_map.mapping.items()}
    new_labels = np.array([lut[float(v)] for v in ds.labels])
    return SparseDataset(ds.row_ptr, ds.col_idx, ds.values, new_labels, ds.m)


def _parse_stream(stream, name: str, n_features):
    labels = []
    cols = []
    vals = []
    row_ptr = [0]
    max_col = 0
    for lineno, line in enumerate(stream, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ValueError(f"{name}, line {lineno}: bad label {tokens[0]!r}") from None
        prev = 0
        for tok in tokens[1:]:
            head, sep, tail = tok.partition(":")
            if not sep:
                raise ValueError(f"{name}, line {lineno}: expected index:value, got {tok!r}")
            try:
                idx = int(head)
                value = float(tail)
            except ValueError:
                raise ValueError(
                    f"{name}, line {lineno}: expected index:value, got {tok!r}"
                ) from None
            if idx < 1:
                raise ValueError(f"{name}, line {lineno}: feature index {idx} is not >= 1")
            if idx <= prev:
                raise ValueError(
                    f"{name}, line {lineno}: index {idx} repeats or decreases (after {prev})"
                )
            if not np.isfinite(value):
                raise ValueError(f"{name}, line {lineno}: non-finite value {tail!r}")
            if n_features is not None and idx > n_features:
                raise ValueError(
                    f"{name}, line {lineno}: index {idx} exceeds the forced"
                    f" feature count {n_features}"
                )
            prev = idx
            cols.append(idx - 1)
            vals.append(value)
        max_col = max(max_col, prev)
        row_ptr.append(len(cols))
    if not labels:
        raise ValueError(f"{name}: no samples")
    return SparseDataset(
        row_ptr=np.array(row_ptr, dtype=np.int64),
        col_idx=np.array(cols, dtype=np.int64),
        values=np.array(vals, dtype=np.float64),
        labels=np.array(labels, dtype=np.float64),
        m=n_features if n_features is not None else max_col,
    )


def parse_svmlight(source, n_features: int | None = None) -> SparseDataset:
    """Read svmlight text from a path or file object.

    The feature count is the largest index seen unless n_features forces a
    wider (never narrower) dataset.
    """
    if hasattr(source, "read"):
        return _parse_stream(source, getattr(source, "name", "<stream>"), n_features)
    path = Path(source)
    with path.open("r", encoding="ascii") as fh:
        return _parse_stream(fh, str(path), n_features)


def serialize_svmlight(ds: SparseDataset, target) -> None:
    """Write svmlight text whose re-parse reproduces ds bit for bit."""

    def write(fh):
        for i in range(ds.n):
            cidx, cval = ds.row(i)
            parts = [repr(float(ds.labels[i]))]
            parts.extend(f"{c + 1}:{v!r}" for c, v in zip(cidx.tolist(), cval.tolist()))
            fh.write(" ".join(parts))
            fh.write("\n")

    if hasattr(target, "write"):
        write(target)
    else:
        with Path(target).open("w", encoding="ascii") as fh:
            write(fh)


def split(ds: SparseDataset, test_fraction: float, seed: int):
    """Deterministic shuffle split; returns (train, test).

    The test part gets round(test_fraction * n) rows, rounding half up; both
    parts keep their rows in the original order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie strictly inside (0, 1), got {test_fraction}")
    n = ds.n
    n_test = int(np.floor(test_fraction * n + 0.5))
    if n_test < 1 or n - n_test < 1:
        raise ValueError(
            f"split of {n} rows at fraction {test_fraction} leaves an empty part"
        )
    perm = np.random.default_rng(seed).permutation(n)
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])
    return ds.take_rows(train_rows), ds.take_rows(test_rows)
