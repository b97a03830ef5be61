"""The benchmark's workloads: seeded svmlight inputs plus the facts to check them by.

A workload fixes which svmlight files the program parses, which budget-ratio
grid and solver settings `run_benchmark` sweeps over them, and the accuracy
floor below which a train call counts as failed. Synthetic inputs depend only
on the seed. This module writes them as svmlight text itself, rather than
through the program's serializer, so no change to the program can change its
own inputs; it keeps the generated CSR arrays so the parse can be checked
value for value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
LABEL_NOISE = 0.05  # share of labels flipped in the synthetic sets
WARMUP_ROWS = 400
WARMUP_MAX_OUTER = 5


class CsrArrays(NamedTuple):
    """One generated dataset in the layout the parser must reproduce."""

    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    m: int

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.labels.size, self.m, self.col_idx.size

    def rows(self, lo: int, hi: int) -> "CsrArrays":
        a, b = self.row_ptr[lo], self.row_ptr[hi]
        return CsrArrays(
            self.row_ptr[lo : hi + 1] - a,
            self.col_idx[a:b],
            self.values[a:b],
            self.labels[lo:hi],
            self.m,
        )


@dataclass(frozen=True)
class InputFile:
    """A svmlight file and what its parse must give: the exact arrays for a
    generated file, only (n, m, nnz) for a shipped one."""

    path: Path
    expected: CsrArrays | tuple[int, int, int]

    @property
    def shape(self) -> tuple[int, int, int]:
        exp = self.expected
        return exp.shape if isinstance(exp, CsrArrays) else exp


@dataclass(frozen=True)
class DatasetInput:
    name: str
    train: InputFile
    test: InputFile | None = None


@dataclass(frozen=True)
class Inputs:
    datasets: tuple[DatasetInput, ...]
    warmup: DatasetInput


class SyntheticShape(NamedTuple):
    n_train: int
    n_test: int
    m: int
    nnz_per_row: int  # draws per row before duplicates merge; m means dense


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # None means the shipped files under data/
    shape: SyntheticShape | None
    # None leaves the program's default: DEFAULT_SR_GRID, MpmConfig.max_outer
    sr_grid: tuple[float, ...] | None
    max_outer: int | None
    # lowest accepted accuracy per dataset name; held-out when a test set exists
    accuracy_floor_pct: dict[str, float] = field(default_factory=dict)

    def prepare(self, seed: int, directory: Path) -> Inputs:
        if self.shape is None:
            return _bundled_inputs(seed)
        return _synthetic_inputs(self.name, self.shape, seed, directory)


# Shipped files and the (n, m, nnz) their parse must give.
BUNDLED_SHAPES = {
    "dense_mid": (120, 8, 960),
    "noisy_blobs": (200, 2, 400),
    "separable_toy": (80, 2, 160),
    "sparse_imbalanced": (150, 20, 900),
    "tiny": (10, 3, 30),
}


def _bundled_inputs(seed: int) -> Inputs:
    # The files are fixed; the seed only orders them. Every cell is an
    # independent training run, so no count may depend on that order.
    names = sorted(BUNDLED_SHAPES)
    order = np.random.default_rng(seed).permutation(len(names))
    datasets = tuple(
        DatasetInput(names[i], InputFile(DATA_DIR / names[i], BUNDLED_SHAPES[names[i]]))
        for i in order
    )
    warmup = DatasetInput("tiny", InputFile(DATA_DIR / "tiny", BUNDLED_SHAPES["tiny"]))
    return Inputs(datasets, warmup)


def generate(shape: SyntheticShape, seed: int) -> tuple[CsrArrays, CsrArrays]:
    """Train and test sets drawn from one linear rule with flipped labels."""
    rng = np.random.default_rng(seed)
    n = shape.n_train + shape.n_test
    m = shape.m
    if shape.nnz_per_row >= m:
        col_idx = np.tile(np.arange(m, dtype=np.int64), n)
        row_ptr = np.arange(0, n * m + 1, m, dtype=np.int64)
    else:
        cols = np.sort(rng.integers(0, m, size=(n, shape.nnz_per_row)), axis=1)
        keep = np.ones(cols.shape, dtype=bool)
        keep[:, 1:] = cols[:, 1:] != cols[:, :-1]
        col_idx = cols[keep]
        row_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(keep.sum(axis=1), out=row_ptr[1:])
    values = rng.standard_normal(col_idx.size)
    w = rng.standard_normal(m)
    rows = np.repeat(np.arange(n), np.diff(row_ptr))
    scores = np.bincount(rows, weights=values * w[col_idx], minlength=n)
    labels = np.where(scores >= 0.0, 1.0, -1.0)
    labels[rng.random(n) < LABEL_NOISE] *= -1.0
    full = CsrArrays(row_ptr, col_idx, values, labels, m)
    return full.rows(0, shape.n_train), full.rows(shape.n_train, n)


def write_svmlight(arrays: CsrArrays, path: Path, chunk_rows: int = 2_000) -> None:
    """Write `label index:value ...` lines, 1-based indices, floats as repr.

    Chunked so the generator's own memory stays small next to the parser's.
    """
    ptr, col, val, lab = arrays.row_ptr, arrays.col_idx, arrays.values, arrays.labels
    with path.open("w", encoding="ascii") as fh:
        for lo in range(0, lab.size, chunk_rows):
            hi = min(lab.size, lo + chunk_rows)
            a, b = ptr[lo], ptr[hi]
            pairs = [f"{c}:{v!r}" for c, v in zip((col[a:b] + 1).tolist(), val[a:b].tolist())]
            bounds = (ptr[lo : hi + 1] - a).tolist()
            lines = [
                " ".join(["1" if lab[lo + i] > 0 else "-1", *pairs[bounds[i] : bounds[i + 1]]])
                for i in range(hi - lo)
            ]
            fh.write("\n".join(lines))
            fh.write("\n")


def _synthetic_inputs(name: str, shape: SyntheticShape, seed: int, directory: Path) -> Inputs:
    directory.mkdir(parents=True, exist_ok=True)
    train, test = generate(shape, seed)
    files = {}
    warmup = train.rows(0, min(WARMUP_ROWS, shape.n_train))
    for part, arrays in (("train", train), ("test", test), ("warmup", warmup)):
        path = directory / f"{name}.{part}.svm"
        write_svmlight(arrays, path)
        files[part] = InputFile(path, arrays)
    return Inputs(
        (DatasetInput(name, files["train"], files["test"]),),
        DatasetInput(f"{name}.warmup", files["warmup"]),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bundled_grid",
            "the paper's 5x6 ratio grid on the shipped data (n<=200, m<100): "
            "per-call overhead of mpm/linsys/projection on the dense path dominates",
            shape=None,
            sr_grid=None,
            max_outer=None,
            accuracy_floor_pct={
                "dense_mid": 70.0,
                "noisy_blobs": 90.0,
                "separable_toy": 95.0,
                "sparse_imbalanced": 65.0,
                "tiny": 80.0,
            },
        ),
        Workload(
            "narrow_dense",
            "seeded 10000x50 dense set, 5% label noise, sr=0.10, 400 outer iters: "
            "dense path at large n (per-element cost) and the heaviest parse",
            shape=SyntheticShape(n_train=10_000, n_test=2_500, m=50, nnz_per_row=50),
            sr_grid=(0.10,),
            max_outer=400,
            accuracy_floor_pct={"narrow_dense": 85.0},
        ),
        Workload(
            "wide_sparse",
            "seeded 20000x2000 set at 1% density, 5% label noise, sr=0.10, 60 outer iters: "
            "the only workload on the CG path (RegularizedNormalOperator.apply)",
            shape=SyntheticShape(n_train=20_000, n_test=5_000, m=2_000, nnz_per_row=20),
            sr_grid=(0.10,),
            max_outer=60,
            accuracy_floor_pct={"wide_sparse": 75.0},
        ),
    )
}
