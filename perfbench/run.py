#!/usr/bin/env python3
"""Benchmark of the scsvm trainer: end-to-end figures per workload, or a
traced run with per-layer figures.

    python3 perfbench/run.py --workload {bundled_grid,narrow_dense,wide_sparse,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from a checkout of the repository. One run of a workload sets up (imports,
input generation and serialization, warm-up) several times, then repeats the
timed operation -- parse the inputs, `run_benchmark` them (train and score),
check every output -- until --seconds have passed, at least MIN_REPS times.
Times are upper deciles over the repetitions; set-up time is the median set-up.
With --trace 1 every other repetition runs with spans around each layer's
entry points and the result carries the per-layer figures instead;
end-to-end figures always come from untraced repetitions.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it are a table and a JSON
report with every figure, the per-operation failures and the environment;
perfbench/out/ keeps that report with the per-repetition figures, and the
spans of a traced run.
The exit code is 0 only when every output checked out. `--workload all` runs
each workload in its own process and prints one table.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # setup_s counts the imports below

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Serial runs: no more BLAS threads than cores this process may use.
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(NPROC))

sys.path.insert(0, str(BENCH))
import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from tracer import Tracer, install_layers, layer_metrics  # noqa: E402
from workloads import WARMUP_MAX_OUTER, WORKLOADS, CsrArrays  # noqa: E402

SETUP_REPEATS = 3
MIN_REPS = 3
TIE_MESSAGE = "projection tie at termination"

# (name, unit, better). CONTRACT_* are the metrics the last line carries;
# REPORT_ONLY ones can read 0 on some workload, so they go in the report only.
CONTRACT_END_TO_END = (
    ("setup_s", "s", "lower"),
    ("load_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("outer_iters_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("outer_iters", "count", "lower"),
    ("accuracy_pct", "%", "higher"),
    ("budget_excess", "count", "lower"),
)
REPORT_ONLY_END_TO_END = (
    ("cg_iters", "count", "lower"),
    ("converged_pct", "%", "higher"),
    ("failed_ops_pct", "%", "lower"),
    ("ops", "count", "-"),
)
PER_LAYER = (
    ("data.parse.s", "s", "lower"),
    ("data.parse.mb_per_s", "MB/s", "higher"),
    ("data.parse.bytes", "bytes", "lower"),
    ("projection.calls", "count", "lower"),
    ("projection.s", "s", "lower"),
    ("projection.us_per_call", "us", "lower"),
    ("projection.us_per_call.tail", "us", "lower"),
    ("projection.ns_per_elem", "ns", "lower"),
    ("linsys.apply.calls", "count", "lower"),
    ("linsys.apply.s", "s", "lower"),
    ("linsys.apply.us_per_call", "us", "lower"),
    ("linsys.apply.us_per_call.tail", "us", "lower"),
    ("linsys.apply.computed_bytes_per_call", "bytes", "lower"),
    ("linsys.apply.computed_gb_per_s", "GB/s", "higher"),
    ("linsys.dense_matrix.s", "s", "lower"),
    ("linsys.dense_solve.calls", "count", "lower"),
    ("linsys.dense_solve.self_s", "s", "lower"),
    ("linsys.dense_solve.us_per_call", "us", "lower"),
    ("linsys.dense_solve.us_per_call.tail", "us", "lower"),
    ("linsys.cg_solve.calls", "count", "lower"),
    ("linsys.cg_solve.self_s", "s", "lower"),
    ("linsys.cg.iters_per_solve", "count", "lower"),
    ("linsys.cg.capped_solves", "count", "lower"),
    ("linsys.cg.converged_ratio", "ratio", "higher"),
    ("mpm.train.calls", "count", "lower"),
    ("mpm.train.s", "s", "lower"),
    ("mpm.self_s", "s", "lower"),
    ("mpm.self_us_per_iter", "us", "lower"),
    ("mpm.converged_ratio", "ratio", "higher"),
    ("mpm.tie_warnings", "count", "lower"),
    ("evaluate.s", "s", "lower"),
    ("benchmark.run_benchmark.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_program():
    src = ROOT / "src"
    if not (src / "scsvm" / "__init__.py").is_file():
        raise BenchError(f"no program source under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import scsvm
    import scsvm.benchmark
    import scsvm.data
    import scsvm.linsys
    import scsvm.mpm

    if Path(scsvm.__file__).resolve().parent != (src / "scsvm").resolve():
        raise BenchError(f"imported scsvm from {scsvm.__file__}, not from {src}")
    return scsvm


class TieCounter(logging.Handler):
    """Counts the trainer's tie warnings and keeps them off the output; any
    other warning goes to standard error."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith(TIE_MESSAGE):
            self.count += 1
        else:
            sys.stderr.write(self.format(record) + "\n")


class TrainCapture:
    """Keeps what each `mpm_train` call inside `run_benchmark` got and
    returned, and the wall time around it: the rows carry no model."""

    def __init__(self, benchmark_module):
        self.module = benchmark_module
        self.original = benchmark_module.__dict__["mpm_train"]
        self.calls: list[dict] = []
        benchmark_module.mpm_train = self._train

    def _train(self, ds, cfg):
        call = {"ds": ds, "cfg": cfg, "model": None, "report": None}
        self.calls.append(call)
        start = time.perf_counter()
        try:
            call["model"], call["report"] = result = self.original(ds, cfg)
        finally:
            call["seconds"] = time.perf_counter() - start
        return result

    def restore(self):
        self.module.mpm_train = self.original


def solver_args(scsvm, workload):
    """Positional (sr_grid, cfg) for run_benchmark; None keeps its defaults."""
    grid = workload.sr_grid or scsvm.benchmark.DEFAULT_SR_GRID
    if workload.max_outer is None:
        return grid, None
    return grid, scsvm.mpm.MpmConfig(sr=0.10, max_outer=workload.max_outer)


def load(scsvm, dataset_input, parse_times=None):
    """Parse one dataset's files the way `scsvm train` and `scsvm eval` do,
    appending each parse's wall time to parse_times."""
    parsed = []
    for part in (dataset_input.train, dataset_input.test):
        if part is None:
            continue
        start = time.perf_counter()
        parsed.append(scsvm.data.parse_svmlight(part.path))
        if parse_times is not None:
            parse_times.append(time.perf_counter() - start)
    return (dataset_input.name, *parsed)


def warm_up(scsvm, workload, inputs):
    """A short training on a slice of the inputs, so lazy imports and first-call
    costs land in set-up rather than in the first timed repetition."""
    grid, cfg = solver_args(scsvm, workload)
    cfg = replace(cfg or scsvm.mpm.MpmConfig(sr=0.10), max_outer=WARMUP_MAX_OUTER)
    scsvm.benchmark.run_benchmark([load(scsvm, inputs.warmup)], grid[:1], cfg)


def parse_problems(dataset_input, entry) -> list[str]:
    problems = []
    for expected, ds in zip((dataset_input.train, dataset_input.test), entry[1:]):
        got = (ds.n, ds.m, ds.nnz)
        if got != expected.shape:
            problems.append(f"{expected.path}: parsed (n, m, nnz) {got}, expected {expected.shape}")
            continue
        exp = expected.expected
        if isinstance(exp, CsrArrays) and not all(
            np.array_equal(a, b)
            for a, b in (
                (ds.row_ptr, exp.row_ptr),
                (ds.col_idx, exp.col_idx),
                (ds.values, exp.values),
                (ds.labels, exp.labels),
            )
        ):
            problems.append(f"{expected.path}: parsed arrays differ from the generated ones")
    return problems


def decision_scores(ds, model) -> np.ndarray:
    """omega . x_i + b, computed here rather than by the program's evaluate
    module, with the same CSR product so the figures agree bit for bit."""
    a = sp.csr_matrix((ds.values, ds.col_idx, ds.row_ptr), shape=(ds.n, ds.m))
    return a @ model.omega + model.b


def check_operation(workload, entry, row, call) -> tuple[str | None, int]:
    """(why the train call failed or None, its budget excess)."""
    if row.error is not None:
        return f"raised: {row.error}", 0
    if call is None or call["model"] is None:
        return "no model captured for the row", 0
    train = entry[1]
    if call["ds"] is not train or call["cfg"].sr != row.sr:
        return "captured call does not match the row", 0
    model = call["model"]
    if not (np.all(np.isfinite(model.omega)) and math.isfinite(model.b)):
        return "non-finite model", 0
    scores = decision_scores(train, model)
    violators = int(np.sum(1.0 - train.labels * scores > 0.0))
    if violators != row.train_misclassified:
        return f"train_misclassified {row.train_misclassified}, recomputed {violators}", 0
    eval_ds = entry[2] if len(entry) == 3 else train
    eval_scores = scores if eval_ds is train else decision_scores(eval_ds, model)
    hits = int(np.sum(np.where(eval_scores >= 0.0, 1.0, -1.0) == eval_ds.labels))
    acc = 100.0 * hits / eval_ds.n
    if not math.isclose(acc, row.accuracy_pct, rel_tol=0.0, abs_tol=1e-9):
        return f"accuracy {row.accuracy_pct}, recomputed {acc}", 0
    floor = workload.accuracy_floor_pct[row.dataset]
    if acc < floor:
        return f"accuracy {acc:.4f} below the workload floor {floor}", 0
    budget = int(math.floor(row.sr * train.n + 0.5))
    if budget != row.s:
        return f"budget {row.s}, recomputed {budget}", 0
    return None, max(0, violators - budget)


def timed_rep(scsvm, workload, inputs, capture, ties, tracer=None, run_id=None) -> dict:
    """One parse + train + score of the workload, then its output checks."""
    grid, cfg = solver_args(scsvm, workload)
    capture.calls.clear()
    ties.count = 0
    if tracer is not None:
        tracer.run = run_id
        install_layers(tracer, scsvm)
    try:
        parse_times = []
        t0 = time.perf_counter()
        entries = [load(scsvm, d, parse_times) for d in inputs.datasets]
        t1 = time.perf_counter()
        rows = scsvm.benchmark.run_benchmark(entries, grid, cfg)
        t2 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()

    problems = []
    for d, entry in zip(inputs.datasets, entries):
        problems += parse_problems(d, entry)
    cells = [(entry, sr) for entry in entries for sr in grid]
    if len(rows) != len(cells) or len(capture.calls) > len(cells):
        problems.append(f"{len(rows)} rows and {len(capture.calls)} train calls for {len(cells)} cells")
    # a train call that raised leaves its call record too, so calls align with rows
    calls = capture.calls + [None] * (len(rows) - len(capture.calls))
    failures, excess = [], 0
    for (entry, _), row, call in zip(cells, rows, calls):
        why, cell_excess = check_operation(workload, entry, row, call)
        excess += cell_excess
        if why is not None:
            failures.append(f"{row.dataset} sr={row.sr:g}: {why}")
    done = [c["report"] for c in capture.calls if c["report"] is not None]
    accuracies = [r.accuracy_pct for r in rows if r.error is None]
    return {
        "traced": tracer is not None,
        "parse_s": parse_times,
        "cell_train_s": [c["seconds"] for c in capture.calls],
        "load_s": t1 - t0,
        "train_s": sum(c["seconds"] for c in capture.calls),
        "wall_s": t2 - t0,
        "outer_iters": sum(r.outer_iters for r in done),
        "cg_iters": sum(r.total_cg for r in done),
        "converged": sum(r.termination == "converged" for r in done),
        "accuracy_pct": statistics.fmean(accuracies) if accuracies else 0.0,
        "budget_excess": excess,
        "ops": len(rows),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "tie_warnings": ties.count,
    }


def upper_decile(samples) -> float:
    """The 90th percentile, interpolated between order statistics."""
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


COUNTS = ("outer_iters", "cg_iters", "converged", "accuracy_pct", "budget_excess", "ops")


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    scsvm = import_program()
    import_s = time.perf_counter() - _T0
    ties = TieCounter()
    mpm_logger = logging.getLogger("scsvm.mpm")
    mpm_logger.addHandler(ties)
    propagate, mpm_logger.propagate = mpm_logger.propagate, False
    capture = TrainCapture(scsvm.benchmark)
    inputs_dir = OUT / f"inputs-{workload.name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            inputs = workload.prepare(seed, inputs_dir)
            warm_up(scsvm, workload, inputs)
            setups.append(time.perf_counter() - start)
        reps, lengths = [], []
        start = time.perf_counter()
        # start another repetition only if it is expected to end within the run
        while len(reps) < MIN_REPS or (
            time.perf_counter() - start + statistics.median(lengths) <= seconds
        ):
            traced = trace and len(reps) % 2 == 1
            began = time.perf_counter()
            reps.append(timed_rep(scsvm, workload, inputs, capture, ties,
                                  tracer if traced else None, f"{workload.name}.rep{len(reps)}"))
            lengths.append(time.perf_counter() - began)
    finally:
        capture.restore()
        mpm_logger.removeHandler(ties)
        mpm_logger.propagate = propagate
        shutil.rmtree(inputs_dir, ignore_errors=True)

    problems = [p for rep in reps for p in rep["problems"]]
    first = reps[0]
    for i, rep in enumerate(reps[1:], start=2):
        changed = [k for k in COUNTS if rep[k] != first[k]]
        if changed:
            problems.append(f"repetition {i} differs from the first in {', '.join(changed)}")
    plain = [r for r in reps if not r["traced"]]
    ops = sum(r["ops"] for r in reps)
    failed = sum(r["failed"] for r in reps)

    def median(key, source=plain):
        return statistics.median(r[key] for r in source)

    def summed_deciles(key):
        # The upper decile of each parse or train call across repetitions,
        # then summed. A shared host runs this process mostly at a slow level
        # with bursts up to 2x faster; the share of fast bursts in a run sets
        # its mean, its median and its minimum, while the upper decile stays
        # at the slow level, so over ten runs it spreads least (see README.md).
        return sum(upper_decile(column) for column in zip(*(r[key] for r in plain)))

    load_s, train_s = summed_deciles("parse_s"), summed_deciles("cell_train_s")
    rest_s = upper_decile([r["wall_s"] - r["load_s"] - r["train_s"] for r in plain])
    figures = {
        "setup_s": import_s + statistics.median(setups),
        "load_s": load_s,
        "train_s": train_s,
        "wall_s": load_s + train_s + rest_s,
        "outer_iters_per_s": first["outer_iters"] / train_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outer_iters": first["outer_iters"],
        "accuracy_pct": first["accuracy_pct"],
        "budget_excess": first["budget_excess"],
        "cg_iters": first["cg_iters"],
        "converged_pct": 100.0 * first["converged"] / first["ops"],
        "failed_ops_pct": 100.0 * failed / ops,
        "ops": ops,
    }
    result = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "repetitions": {"untraced": len(plain), "traced": len(reps) - len(plain)},
        "setup_runs_s": setups,
        "import_s": import_s,
        "end_to_end": figures,
        "per_rep": [{k: v for k, v in r.items() if k not in ("failures", "problems")} for r in reps],
        "failures": [f for r in reps for f in r["failures"]],
        "problems": problems,
        "ops": ops,
        "failed": failed,
        "environment": environment(),
    }
    if trace:
        traced = [r for r in reps if r["traced"]]
        layers, distributions = layer_metrics(tracer.spans, len(traced))
        layers["mpm.tie_warnings"] = median("tie_warnings", traced)
        plain_wall = statistics.fmean(r["wall_s"] for r in plain)
        traced_wall = statistics.fmean(r["wall_s"] for r in traced)
        layers["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        result["per_layer"] = layers
        result["per_call"] = distributions
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def contract_line(result) -> dict:
    if result["trace"]:
        figures, table = result["per_layer"], PER_LAYER
    else:
        figures, table = result["end_to_end"], CONTRACT_END_TO_END
    return {
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {name: {"value": figures[name], "unit": unit} for name, unit, _ in table},
    }


def format_table(rows) -> str:
    lines = [f"{'metric':<40} {'value':>16} {'unit':<6} better"]
    for name, value, unit, better in rows:
        lines.append(f"{name:<40} {value:>16.6g} {unit:<6} {better}")
    return "\n".join(lines)


def print_result(result) -> int:
    if result["trace"]:
        table = [(n, result["per_layer"][n], u, b) for n, u, b in PER_LAYER]
    else:
        table = [(n, result["end_to_end"][n], u, b)
                 for n, u, b in CONTRACT_END_TO_END + REPORT_ONLY_END_TO_END]
    print(f"# perfbench workload={result['workload']} seed={result['seed']} "
          f"trace={result['trace']} repetitions={result['repetitions']}")
    print(format_table(table))
    for line in result["failures"] + result["problems"]:
        print(f"# FAILED {line}")
    OUT.mkdir(parents=True, exist_ok=True)
    report_path = OUT / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    report_path.write_text(json.dumps(result, indent=1) + "\n", encoding="ascii")
    print(json.dumps({"report": {k: v for k, v in result.items() if k != "per_rep"}}))
    line = contract_line(result)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    status = 0
    table = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        reports = [json.loads(l)["report"] for l in proc.stdout.splitlines() if l.startswith('{"report"')]
        if proc.returncode != 0 or not reports:
            status = proc.returncode or 1
            print(f"# {name}: exit code {proc.returncode}")
            if not reports:
                continue
        report = reports[-1]
        figures = report["per_layer"] if args.trace else report["end_to_end"]
        spec = PER_LAYER if args.trace else CONTRACT_END_TO_END + REPORT_ONLY_END_TO_END
        table += [(f"{name}/{n}", figures[n], u, b) for n, u, b in spec]
        for line in report["failures"] + report["problems"]:
            print(f"# {name} FAILED {line}")
    print(format_table(table))
    return status


def _openblas_threads() -> int | None:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for line in maps.splitlines():
        path = line.split()[-1]
        if "openblas" in path.lower() and ".so" in path:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    """HEAD read from the checkout's .git directory, when it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _openblas_threads(),
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            import_program()
            return run_all(args)
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return print_result(result)


if __name__ == "__main__":
    sys.exit(main())
