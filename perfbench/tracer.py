"""Spans around the program's layer entry points, and the per-layer figures
derived from them.

The benchmark, not the program, records the spans: `Tracer.install` replaces
module attributes and `RegularizedNormalOperator` methods with timing wrappers
and `Tracer.restore` puts the originals back. `mpm` and `benchmark` bind their
callees by name at import, so the wrappers go on those importing modules'
attributes. Spans are kept in memory as
[name, start_ns, end_ns, parent, run, attr] lists and written out once, when
the run ends. The run is serial, so a stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import defaultdict
from pathlib import Path

NAME, START, END, PARENT, RUN, ATTR = range(6)
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND_TAIL = 10


def apply_computed_bytes(n: int, m: int, nnz: int, index_bytes: int, value_bytes: int = 8) -> int:
    """Bytes one `RegularizedNormalOperator.apply` must move, computed from
    nnz and dimensions rather than measured.

    apply makes two CSR passes, q = A v and then A^T q. Each pass reads the
    values, column indices and row pointers once, reads its input vector and
    writes its output vector. The O(m) vector updates around them are left out.
    """
    matrix = nnz * (value_bytes + index_bytes) + (n + 1) * index_bytes
    vectors = value_bytes * (m + n)
    return 2 * (matrix + vectors)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, before=None, after=None):
        """Time fn as span `name`. before(*args) gives the span's attribute
        from the inputs and after(result, attr) replaces it from the result;
        both run outside the timed interval."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attr = before(*args, **kwargs) if before is not None else None
            span = [name, 0, 0, stack[-1] if stack else -1, self.run, attr]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                span[ATTR] = after(result, attr)
            return result

        return traced

    def install(self, owner, attribute: str, name: str, before=None, after=None) -> None:
        original = owner.__dict__[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, original, before, after))

    def restore(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """JSON lines: a header naming the fields, then one array per span;
        a span's id is its line number after the header, counted from 0."""
        with path.open("w", encoding="ascii") as fh:
            fh.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "run", "attr"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")


def install_layers(tracer: Tracer, scsvm) -> None:
    """Wrap each layer's public entry point where its caller looks it up."""
    op_cls = scsvm.linsys.RegularizedNormalOperator
    index_bytes: dict[int, int] = {}

    def apply_bytes(op, *_):
        ds = op.dataset
        key = id(ds)
        if key not in index_bytes:
            index_bytes[key] = ds.matrix().indices.itemsize
        return apply_computed_bytes(ds.n, ds.m, ds.nnz, index_bytes[key])

    def solve_outcome(outcome, _):
        return [outcome.iterations, bool(outcome.converged)]

    tracer.install(scsvm.data, "parse_svmlight", "data.parse",
                   before=lambda source, *_: Path(source).stat().st_size)
    tracer.install(scsvm.benchmark, "run_benchmark", "benchmark.run_benchmark")
    tracer.install(scsvm.benchmark, "mpm_train", "mpm.train",
                   after=lambda res, _: [res[1].outer_iters, res[1].termination])
    tracer.install(scsvm.benchmark, "accuracy", "evaluate.accuracy")
    tracer.install(scsvm.benchmark, "train_misclassified_count", "evaluate.train_misclassified")
    tracer.install(scsvm.mpm, "project_omega_s", "projection.project",
                   before=lambda z, *_: len(z))
    tracer.install(scsvm.mpm, "dense_solve", "linsys.dense_solve", after=solve_outcome)
    tracer.install(scsvm.mpm, "cg_solve", "linsys.cg_solve", after=solve_outcome)
    tracer.install(op_cls, "apply", "linsys.apply", before=apply_bytes)
    tracer.install(op_cls, "dense_matrix", "linsys.dense_matrix")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def _rank(pct: float, samples: int) -> int:
    """1-based nearest rank of a percentile; rounded first so that, say,
    90% of 100 samples is rank 90 and not 91."""
    return max(1, math.ceil(round(pct / 100.0 * samples, 9)))


def tail_percentile(samples: int) -> float:
    """Highest listed percentile with at least ten samples beyond it; the
    median when there are too few samples for any."""
    for pct in TAIL_PERCENTILES:
        if samples - _rank(pct, samples) >= MIN_BEYOND_TAIL:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[_rank(pct, len(values)) - 1]


def _per_call(durations_ns: list[int]) -> dict:
    """Median and tail of per-call times in microseconds, with the sample count."""
    us = [d / 1e3 for d in durations_ns]
    pct = tail_percentile(len(us))
    return {
        "median_us": statistics.median(us) if us else 0.0,
        "tail_us": percentile(us, pct) if us else 0.0,
        "tail_pct": pct,
        "samples": len(us),
    }


def layer_metrics(spans: list[list], reps: int) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer figures over `reps` traced repetitions, and the per-call
    distributions behind the `us_per_call` figures.

    Totals (seconds, bytes, calls) are per repetition; per-call medians and
    tails pool the calls of every repetition.
    """
    own = self_times(spans)
    dur = defaultdict(list)
    self_ns = defaultdict(list)
    attrs = defaultdict(list)
    for span, own_ns in zip(spans, own):
        name = span[NAME]
        dur[name].append(span[END] - span[START])
        self_ns[name].append(own_ns)
        attrs[name].append(span[ATTR])

    def per_rep_s(values_ns):
        return sum(values_ns) / 1e9 / reps

    def ratio(num, den):
        return num / den if den else 0.0

    parse_s, parse_bytes = per_rep_s(dur["data.parse"]), sum(attrs["data.parse"]) / reps
    proj_s = per_rep_s(dur["projection.project"])
    proj_elems = sum(attrs["projection.project"]) / reps
    apply_s, apply_bytes = per_rep_s(dur["linsys.apply"]), sum(attrs["linsys.apply"])
    n_apply = len(dur["linsys.apply"])
    cg = attrs["linsys.cg_solve"]
    trains = attrs["mpm.train"]
    mpm_self_s = per_rep_s(self_ns["mpm.train"])

    distributions = {
        "projection.us_per_call": _per_call(dur["projection.project"]),
        "linsys.apply.us_per_call": _per_call(dur["linsys.apply"]),
        "linsys.dense_solve.us_per_call": _per_call(self_ns["linsys.dense_solve"]),
    }
    metrics = {
        "data.parse.s": parse_s,
        "data.parse.mb_per_s": ratio(parse_bytes / 1e6, parse_s),
        "data.parse.bytes": parse_bytes,
        "projection.calls": len(dur["projection.project"]) / reps,
        "projection.s": proj_s,
        "projection.ns_per_elem": ratio(proj_s * 1e9, proj_elems),
        "linsys.apply.calls": n_apply / reps,
        "linsys.apply.s": apply_s,
        "linsys.apply.computed_bytes_per_call": ratio(apply_bytes, n_apply),
        "linsys.apply.computed_gb_per_s": ratio(apply_bytes / reps / 1e9, apply_s),
        "linsys.dense_matrix.s": per_rep_s(dur["linsys.dense_matrix"]),
        "linsys.dense_solve.calls": len(dur["linsys.dense_solve"]) / reps,
        "linsys.dense_solve.self_s": per_rep_s(self_ns["linsys.dense_solve"]),
        "linsys.cg_solve.calls": len(cg) / reps,
        "linsys.cg_solve.self_s": per_rep_s(self_ns["linsys.cg_solve"]),
        "linsys.cg.iters_per_solve": ratio(sum(it for it, _ in cg), len(cg)),
        "linsys.cg.capped_solves": sum(1 for _, ok in cg if not ok) / reps,
        "linsys.cg.converged_ratio": ratio(sum(1 for _, ok in cg if ok), len(cg)),
        "mpm.train.calls": len(trains) / reps,
        "mpm.train.s": per_rep_s(dur["mpm.train"]),
        "mpm.self_s": mpm_self_s,
        "mpm.self_us_per_iter": ratio(mpm_self_s * 1e6, sum(it for it, _ in trains) / reps),
        "mpm.converged_ratio": ratio(sum(1 for _, t in trains if t == "converged"), len(trains)),
        "evaluate.s": per_rep_s(dur["evaluate.accuracy"] + dur["evaluate.train_misclassified"]),
        "benchmark.run_benchmark.self_s": per_rep_s(self_ns["benchmark.run_benchmark"]),
    }
    for key, dist in distributions.items():
        metrics[key] = dist["median_us"]
        metrics[key + ".tail"] = dist["tail_us"]
    return metrics, distributions
