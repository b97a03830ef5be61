"""Sparse datasets in CSR layout plus the svmlight text format.

Files use the usual "label index:value ..." lines with 1-based, strictly
increasing feature indices; in memory everything is 0-based CSR. Labels are
kept exactly as written until an explicit remap produces the {-1, +1} form
that training requires.

The parser reads about 512 KB of whole lines at a time and scans them as one
byte string: the lines are joined and encoded once, and their bounds come
from their lengths, so a line ends where the stream's readlines ended it.
A stream of more than one batch leases a helper thread from scsvm.threads;
given one, the two threads each parse the batch they read, falling back to
_parse_lines themselves, and the parsed batches are taken in file order once
both are done; an error stops the reads at once.
Tokens are separated by the ASCII bytes str.split() splits on (space, tab,
line feed, vertical tab, form feed, carriage return and 0x1c to 0x1f); a
batch with a character outside ASCII is left to _parse_lines. One pass finds
every byte that is not a digit; their kinds and a running count of the
separators give the tokens, the first of a line its label and the others one
colon each. One C-level integer scan (np.fromstring) then reads every label,
index and value's digits M; a label or value is M / 10**f for its f digits
after the dot. The quotient is the correctly rounded one (Clinger's fast
path): M and 10**f are exact in the working type and its division rounds
correctly. That type is float64 within Clinger's bounds M <= 2**53 and f <=
22; beyond them it is np.longdouble where a probe at import confirms an x87
(64-bit) or quad (113-bit) significand, whose quotient is rounded once more,
to float64, which can only err from a midpoint between two doubles, and those
are detected. Tokens outside all that keep Python's int and float: bytes
other than [0-9.:-] (exponents, "+", "_", "nan"), misplaced signs or dots,
indices past 18 digits, digits the scan would saturate, and midpoints. The
arrays are therefore bit for bit what int and float give; _parse_lines is the
reference, and it names the line of any error.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, count, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import threads

__all__ = [
    "DatasetStats",
    "LabelMap",
    "SparseDataset",
    "parse_svmlight",
    "reject_non_ascii",
    "remap_labels",
    "serialize_svmlight",
    "split",
    "text_file",
]

# guards the one-time build of a dataset's matrix forms, which threads
# sharing a dataset (run_benchmark with jobs > 1) may request together
_FORMS_LOCK = threading.Lock()

# the parser reads whole lines in batches of about half this many characters,
# so that the two threads that may parse a stream hold about this many
_BATCH_CHARS = 1 << 20
_MAX_INDEX = int(np.iinfo(np.int64).max)
# np.fromstring reads integers of up to this many digits exactly (10**18 < 2**63);
# longer ones can saturate at the int64 maximum
_SCAN_DIGITS = 18
# a byte outside ASCII in a file, as text_file decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# the bytes str.split() splits on that are ASCII
_SEPARATORS = bytes(b for b in range(128) if chr(b).isspace())
# the classes of the bytes other than digits that the batch scan tells apart
_OTHER, _SEP, _COLON, _DOT, _MINUS = range(5)
_ZERO = np.uint8(ord("0"))
_KIND = np.full(256, _OTHER, dtype=np.uint8)
_KIND[list(_SEPARATORS)] = _SEP
_KIND[[ord(":"), ord("."), ord("-")]] = [_COLON, _DOT, _MINUS]
# with "." deleted, turns a batch into the scan text: separators and ":"
# become spaces, digits stay, and every other byte becomes "0". A "-" is read
# from its position, and a token with any other byte is read by Python.
_SCAN_TABLE = bytes(
    b if 0 <= b - ord("0") <= 9 else ord(" ") if b in _SEPARATORS + b":" else ord("0")
    for b in range(256)
)


class _Exact(NamedTuple):
    """A working type for M / 10**f: both operands are exact in it for every
    M <= mant_max and every f < pow10.size, and its division rounds correctly."""

    dtype: type
    mant_max: int
    pow10: np.ndarray


def _exact_in(dtype) -> _Exact:
    bits = np.finfo(dtype).nmant + 1
    # 10**f = 2**f * 5**f is exact while 5**f fits the significand
    f_max = 0
    while 5 ** (f_max + 1) <= 2**bits:
        f_max += 1
    pow10 = np.cumprod(np.array([1] + [10] * f_max, dtype=dtype))
    return _Exact(dtype, min(10**_SCAN_DIGITS - 1, 2**bits), pow10)


def _working_type() -> type:
    """np.longdouble where it is x87 extended (64-bit significand) or IEEE quad
    (113-bit) and its arithmetic has that precision; float64 elsewhere."""
    nmant = np.finfo(np.longdouble).nmant
    if nmant in (63, 112):
        one = np.longdouble(1)
        eps = np.ldexp(one, -nmant)
        if one + eps != one and one + eps / 2 == one:
            return np.longdouble
    return np.float64


_FLOAT64 = _exact_in(np.float64)
_EXACT = _exact_in(_working_type())


@dataclass(frozen=True)
class DatasetStats:
    """Size and density of a dataset. The JSON object and the CSV columns are
    the fields in declaration order; a field's "csv" metadata is its CSV
    format spec."""

    n: int
    m: int
    nnz: int
    density_pct: float = field(metadata={"csv": ".2f"})

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(["name", *(f.name for f in fields(cls))])

    def csv_row(self, name: str) -> str:
        cells = (
            format(getattr(self, f.name), f.metadata.get("csv", "")) for f in fields(self)
        )
        return ",".join([name, *cells])


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
        # strictly increasing columns within each row: a column may only
        # repeat or drop where a row starts
        row_start = np.zeros(col.size + 1, dtype=bool)
        row_start[ptr] = True
        if np.any((col[1:] <= col[:-1]) & ~row_start[1:-1]):
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


@dataclass(frozen=True)
class LabelMap:
    """Maps exactly two raw label values onto {-1.0, +1.0}."""

    mapping: dict

    def __post_init__(self):
        if len(self.mapping) != 2:
            raise ValueError("label map needs exactly two raw labels")
        if set(self.mapping.values()) != {-1.0, 1.0}:
            raise ValueError("label map image must be {-1, +1}")


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


@contextmanager
def text_file(target, mode: str = "r"):
    """Yield (file, name) for a path or an open text stream.

    A path is opened as ASCII text in mode ("r" or "w"), closed on exit and
    named str(Path(target)). Read, a byte outside ASCII becomes the lone
    surrogate U+DC80..U+DCFF ("surrogateescape"), so a reader can name its
    line. A stream is used as it is and named by its name attribute, or
    "<stream>" without one.
    """
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target, getattr(target, "name", "<stream>")
        return
    path = Path(target)
    errors = "surrogateescape" if mode == "r" else "strict"
    with path.open(mode, encoding="ascii", errors=errors) as fh:
        yield fh, str(path)


def reject_non_ascii(line: str, name: str, lineno: int) -> None:
    """Raise ValueError naming the file, the line and the first byte outside
    ASCII in a line text_file read, if it holds one."""
    if not line.isascii() and (byte := _ESCAPED_BYTE.search(line)):
        raise ValueError(
            f"{name}, line {lineno}: non-ASCII byte 0x{ord(byte.group()) - 0xDC00:02x}"
        )


def _parse_lines(lines, name: str, n_features, first_lineno: int) -> SparseDataset:
    """Parse lines one token at a time; the first bad line raises, named by number.

    The reference for _parse_batch and the reporter of the errors it rejects.
    """
    labels = []
    cols = []
    vals = []
    row_ptr = [0]
    max_col = 0
    for lineno, line in enumerate(lines, start=first_lineno):
        reject_non_ascii(line, name, lineno)
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
            if idx > _MAX_INDEX:
                raise ValueError(
                    f"{name}, line {lineno}: feature index {idx} exceeds {_MAX_INDEX}"
                )
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
    return SparseDataset(
        row_ptr=np.array(row_ptr, dtype=np.int64),
        col_idx=np.array(cols, dtype=np.int64),
        values=np.array(vals, dtype=np.float64),
        labels=np.array(labels, dtype=np.float64),
        m=n_features if n_features is not None else max_col,
    )


def _parse_batch(lines, n_features) -> SparseDataset | None:
    """Parse whole lines as one byte string (see the module docstring).

    Returns None where _parse_lines would raise, so that it can name the line,
    and for the batches it leaves to _parse_lines: one with a character outside
    ASCII, one without a token, and one whose lines do not each end in a
    separator.
    """
    try:
        buf = "".join(lines).encode("ascii")
    except UnicodeEncodeError:
        return None
    raw = np.frombuffer(buf, dtype=np.uint8)
    # line L is raw[bounds[L]:bounds[L + 1]]
    bounds = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, lines), np.int64, len(lines)), out=bounds[1:])

    # every byte that is not a digit, by position and kind
    pos = np.flatnonzero(raw - _ZERO > 9)
    kind = _KIND.take(raw[pos])
    sep = kind == _SEP
    # a token is a run of bytes between two separators (or the ends of the
    # batch): gap g lies between edges[g] and edges[g + 1], and token i is
    # the i-th gap that is not empty
    edges = np.concatenate(([-1], pos[np.flatnonzero(sep)], [raw.size]))
    filled = np.diff(edges) > 1
    start, end = edges[:-1][filled] + 1, edges[1:][filled]
    t = start.size
    # a line that ends in a separator keeps its tokens to itself; every line
    # read from a stream does, but its last
    if not t or np.any(_KIND[raw[bounds[1:-1] - 1]] != _SEP):
        return None

    # the running count of separators before a byte is its gap, counted in
    # the narrowest type that holds the batch's size, which is cheaper than int64
    gap = np.cumsum(sep, dtype=np.min_scalar_type(raw.size))
    token_of_gap = np.cumsum(filled) - 1

    def where(k):
        """Positions and tokens of the bytes of kind k."""
        j = np.flatnonzero(kind == k)
        return pos[j], token_of_gap[gap[j]]

    # the tokens of line L are first[L] .. first[L + 1] - 1; the first is its label
    first = np.searchsorted(start, bounds)
    labels = first[:-1][first[1:] > first[:-1]]
    feature = np.ones(t, dtype=bool)
    feature[labels] = False
    feats = np.flatnonzero(feature)
    # as many colons as feature tokens, the k-th inside the k-th with a
    # non-empty index before it and a non-empty value after it: one colon in
    # each feature token, and none in a label
    colon = pos[np.flatnonzero(kind == _COLON)]
    if (
        colon.size != feats.size
        or np.any(colon <= start[feats])
        or np.any(colon + 1 >= end[feats])
    ):
        return None
    # a label reads as a value after a colon just before it
    colon_at = start - 1
    colon_at[feats] = colon

    # the Python path: indices the scan would saturate, bytes it does not read
    # (exponents, "+", "_", "nan"), misplaced signs and dots, and values
    # without a digit
    slow = colon_at - start > _SCAN_DIGITS
    slow[where(_OTHER)[1]] = True
    dot, dot_tok = where(_DOT)
    slow[dot_tok[dot < colon_at[dot_tok]]] = True
    slow[dot_tok[1:][dot_tok[1:] == dot_tok[:-1]]] = True
    minus, minus_tok = where(_MINUS)
    slow[minus_tok[minus != colon_at[minus_tok] + 1]] = True
    # a value without a digit holds only "-" and "."; with neither twice it
    # is one or two bytes long
    short = np.flatnonzero(end - colon_at <= 3)
    slow[short[(raw[colon_at[short] + 1] - _ZERO > 9) & (raw[end[short] - 1] - _ZERO > 9)]] = True
    frac = np.zeros(t, dtype=np.int64)
    frac[dot_tok] = end[dot_tok] - dot - 1
    # free the byte scan's arrays before the number scan
    del pos, kind, sep, edges, filled, gap, token_of_gap, first, colon, dot, dot_tok, minus

    # each index, value and label scans as one run of digits; one made only of
    # dots scans as none, and its int or float would fail
    nums = np.fromstring(buf.translate(_SCAN_TABLE, b"."), dtype=np.int64, sep=" ")
    if nums.size != t + feats.size:
        return None
    # token i's value digits are number i + (feature tokens up to i), its index
    # the number before
    at = np.arange(t) + np.cumsum(feature)
    idx, mant = nums[at - 1], nums[at]
    del nums, at

    exact, fast = _EXACT, _FLOAT64
    f = np.minimum(frac, exact.pow10.size - 1)
    slow |= (mant > exact.mant_max) | (f != frac)
    # first in float64, exact within Clinger's bounds; the rest again in the
    # working type
    vals = mant / fast.pow10[np.minimum(frac, fast.pow10.size - 1)]
    hard = np.flatnonzero(((mant > fast.mant_max) | (frac >= fast.pow10.size)) & ~slow)
    if hard.size:
        quot = mant[hard].astype(exact.dtype) / exact.pow10[f[hard]]
        rounded = quot.astype(np.float64)
        # the cast to float64 rounds once more, which can only err when the
        # quotient sits on a midpoint between two doubles: half a step from
        # the cast. That miss is a power of two, exact in float64 (in quad
        # precision the cast may round another miss onto it, sending one more
        # token to Python).
        miss = (quot - rounded.astype(exact.dtype)).astype(np.float64)
        step = np.nextafter(rounded, np.copysign(np.inf, miss)) - rounded
        slow[hard[(miss != 0) & (miss + miss == step)]] = True
        vals[hard] = rounded
    # applied last, so that "-0" and "-0.0" read -0.0
    vals[minus_tok] = -vals[minus_tok]

    slow_tokens = np.flatnonzero(slow)
    spans = (a[slow_tokens].tolist() for a in (start, colon_at, end))
    for i, s, c, e in zip(slow_tokens.tolist(), *spans):
        token = buf[s:e].decode("ascii")
        try:
            if c >= s:
                idx[i] = int(token[: c - s])
            vals[i] = float(token[c - s + 1 :])
        except (ValueError, OverflowError):
            return None
    idx = idx[feats]
    # checked before idx - 1, which would wrap around at the int64 minimum
    if idx.size and idx.min() < 1:
        return None
    row_ptr = np.append(labels - np.arange(labels.size), feats.size)
    if n_features is not None:
        m = n_features
    else:
        m = int(idx.max()) if idx.size else 0
    try:
        return SparseDataset(row_ptr, idx - 1, vals[feats], vals[labels], m)
    except ValueError:
        return None


def _concat(parts, name: str, n_features) -> SparseDataset:
    """Join the parts in order, emptying the list.

    Field by field, each part's copy of a field is released as soon as the
    joined field exists, so the join holds the parts and one joined field.
    """
    if not any(part.n for part in parts):
        raise ValueError(f"{name}: no samples")
    if len(parts) == 1:
        return parts.pop()
    m = n_features if n_features is not None else max(part.m for part in parts)
    offsets = np.cumsum([0] + [part.nnz for part in parts])
    columns = [
        [[0]] + [part.row_ptr[1:] + off for part, off in zip(parts, offsets)],
        [part.col_idx for part in parts],
        [part.values for part in parts],
        [part.labels for part in parts],
    ]
    parts.clear()

    def join(arrays):
        joined = np.concatenate(arrays)
        arrays.clear()
        return joined

    return SparseDataset(*map(join, columns), m=m)


def _parse_stream(stream, name: str, n_features) -> SparseDataset:
    reads = iter(partial(stream.readlines, max(1, _BATCH_CHARS // 2)), [])
    # a stream of one batch is parsed on this thread alone
    head = list(islice(reads, 2))
    # the first batches are popped as they are taken, so their text goes with them
    batches = chain((head.pop(0) for _ in range(len(head))), reads)
    with threads.helper() if len(head) > 1 else nullcontext() as helper:
        parts = _parse_batches(batches, helper, name, n_features)
    return _concat(parts, name, n_features)


def _parse_batches(batches, helper, name: str, n_features) -> list:
    """The parts of the batches, parsed on this thread and the helper, if any.

    Each thread reads the next batch under a lock, with the number of its
    first line, and parses it, falling back to _parse_lines itself. The parts
    are taken in file order once both threads are done, so that they and the
    error raised are those of a serial parse.
    """
    numbers = count()
    lock = threading.Lock()
    stop = False
    lineno = 1
    # batch number -> its part, or the error that reading or parsing it raised
    done = {}

    def parse_next() -> bool:
        """Read and parse the next batch; False once there is none to take.

        An error is kept as the outcome of the batch it came from, and stops
        the reads."""
        nonlocal lineno, stop
        try:
            with lock:
                if stop:
                    return False
                k = next(numbers)
                lines = next(batches, None)
                if lines is None:
                    return False
                first = lineno
                lineno += len(lines)
            part = _parse_batch(lines, n_features)
            if part is None:
                part = _parse_lines(lines, name, n_features, first)
            done[k] = part
        except BaseException as exc:  # raised again in file order
            done[k] = exc
            stop = True
            return False
        return True

    def parse_all():
        while parse_next():
            pass

    if helper is not None:
        helper.start(parse_all, ())
    try:
        parse_all()
    finally:
        stop = True
        if helper is not None:
            helper.wait()
    outcomes = [done[k] for k in sorted(done)]
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes


def parse_svmlight(source, n_features: int | None = None) -> SparseDataset:
    """Read svmlight text from a path or file object.

    The feature count is the largest index seen unless n_features forces a
    wider (never narrower) dataset. Lines are parsed in batches; a batch with
    a bad line is parsed again line by line, so the error names that line.
    """
    with text_file(source) as (fh, name):
        return _parse_stream(fh, name, n_features)


def serialize_svmlight(ds: SparseDataset, target) -> None:
    """Write svmlight text whose re-parse reproduces ds bit for bit."""
    with text_file(target, "w") as (fh, _):
        for i in range(ds.n):
            cidx, cval = ds.row(i)
            parts = [repr(float(ds.labels[i]))]
            parts.extend(f"{c + 1}:{v!r}" for c, v in zip(cidx.tolist(), cval.tolist()))
            fh.write(" ".join(parts))
            fh.write("\n")


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
