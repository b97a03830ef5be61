"""Command-line front door: train, predict, eval, bench, and stats.

Configuration precedence is flags over config-file entries over built-in
defaults. The config file is plain `key=value` lines where keys are the long
flag names with dashes turned into underscores; `#` starts a comment.

Dataset arguments accept a literal path first, then a name looked up under
$SCSVM_DATA_DIR, then under ./data. Exit codes: 0 success (and converged
training), 1 usage or I/O problems, 2 training that hit the iteration cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .benchmark import (
    DEFAULT_SR_GRID,
    BenchmarkRow,
    render_csv,
    render_json,
    run_benchmark,
)
from .data import DatasetStats, parse_svmlight, reject_non_ascii, split, text_file
from .dcd import DcdConfig
from .evaluate import (
    accuracy,
    decision_scores,
    error_rate,
    labels_from_scores,
    predicted_labels,
)
from .linsys import CgConfig
from .mpm import ModelTheta, MpmConfig, mpm_train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2

DATA_DIR_ENV = "SCSVM_DATA_DIR"


class CliError(Exception):
    """Usage or I/O failure; message goes to stderr, exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; this tool reserves 2
    # for non-convergence, so usage problems must exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def resolve_dataset_path(name: str) -> Path:
    candidate = Path(name)
    if candidate.exists():
        return candidate
    searched = [str(candidate)]
    env_dir = os.environ.get(DATA_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / name
        if candidate.exists():
            return candidate
        searched.append(str(candidate))
    candidate = Path("data") / name
    if candidate.exists():
        return candidate
    searched.append(str(candidate))
    raise CliError(f"dataset '{name}' not found (tried: {', '.join(searched)})")


def load_dataset(name: str, n_features: int | None = None):
    path = resolve_dataset_path(name)
    try:
        return parse_svmlight(path, n_features)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _read_lines(path: str, what: str) -> list[tuple[int, str, str]]:
    """(number, raw line, its stripped text before any '#') for each line of
    a config file or manifest that holds more than a comment. A byte outside
    ASCII, even in a comment, is named by file and line as parse_svmlight
    names it."""
    try:
        with text_file(path) as (fh, name):
            lines = fh.read().splitlines()
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}") from exc
    kept = []
    for lineno, raw in enumerate(lines, start=1):
        try:
            reject_non_ascii(raw, name, lineno)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        line = raw.split("#", 1)[0].strip()
        if line:
            kept.append((lineno, raw, line))
    return kept


def parse_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw, line in _read_lines(path, "config file"):
        if "=" not in line:
            raise CliError(f"{path}, line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _as_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _field_defaults(cls, prefix: str = "") -> dict:
    return {prefix + f.name: f.default for f in fields(cls)}


# Built-in defaults come from the config dataclasses; only seed is the CLI's.
KNOB_DEFAULTS = {
    **_field_defaults(MpmConfig),
    **_field_defaults(CgConfig, prefix="cg_"),
    "seed": 42,
}

# (key, coercion, help) for every knob the config file may set; each is also
# a flag named after the key.
SOLVER_KNOBS = (
    ("rho", float, "penalty parameter"),
    ("f_tol_factor", float, "objective progress tolerance factor"),
    ("p_tol", float, "penalty progress tolerance"),
    ("max_outer", int, "outer iteration cap"),
    ("cg_tol", float, "CG absolute residual tolerance"),
    ("cg_max_iter", int, "CG iteration cap per solve"),
    ("dense_threshold", int, "direct solver below this feature count"),
    ("rho_growth", float, "geometric penalty growth factor, 1 disables"),
    ("cg_warm_start", _as_bool, "start CG from the previous iterate"),
    ("seed", int, "seed for splits and the baseline sweep order"),
)
KNOWN_KEYS = {name for name, _, _ in SOLVER_KNOBS} | {"s", "sr"}


def add_solver_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("solver options (defaults in brackets)")
    group.add_argument("--config", help="key=value file; flags override it")
    group.add_argument("--s", type=int, default=None,
                       help="misclassification budget as a count")
    group.add_argument("--sr", type=float, default=None,
                       help="budget as a fraction of n in [0, 1] [0.1]")
    for name, coerce, text in SOLVER_KNOBS:
        flag = "--" + name.replace("_", "-")
        if coerce is _as_bool:
            group.add_argument(flag, action="store_const", const=True,
                               default=None, help=text)
        else:
            group.add_argument(flag, type=coerce, default=None,
                               help=f"{text} [{KNOB_DEFAULTS[name]:g}]")


def merge_solver_config(args) -> tuple[MpmConfig, int]:
    """Apply flags > config file > defaults; returns (MpmConfig, seed)."""
    file_cfg = parse_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - KNOWN_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {', '.join(sorted(unknown))}")

    def from_file(name, coerce):
        try:
            return coerce(file_cfg[name])
        except ValueError as exc:
            raise CliError(f"config key {name}: {exc}") from exc

    merged = {}
    for name, coerce, _ in SOLVER_KNOBS:
        flag_value = getattr(args, name)
        if flag_value is not None:
            merged[name] = flag_value
        elif name in file_cfg:
            merged[name] = from_file(name, coerce)
        else:
            merged[name] = KNOB_DEFAULTS[name]

    if args.s is not None and args.sr is not None:
        raise CliError("give exactly one of --s and --sr")
    if args.s is not None:
        budget = {"s": args.s}
    elif args.sr is not None:
        budget = {"sr": args.sr}
    elif "s" in file_cfg and "sr" in file_cfg:
        raise CliError("config file sets both s and sr; keep one")
    elif "s" in file_cfg:
        budget = {"s": from_file("s", int)}
    elif "sr" in file_cfg:
        budget = {"sr": from_file("sr", float)}
    else:
        budget = {"sr": 0.10}

    seed = merged.pop("seed")
    cg = CgConfig(tol=merged.pop("cg_tol"), max_iter=merged.pop("cg_max_iter"))
    try:
        cfg = MpmConfig(cg=cg, **budget, **merged)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return cfg, seed


def load_model(path: str) -> ModelTheta:
    try:
        return ModelTheta.load(path)
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _aligned(ds, model: ModelTheta):
    if ds.m > model.m:
        raise CliError(
            f"data has {ds.m} features but the model expects {model.m}"
        )
    return ds.with_feature_count(model.m) if ds.m < model.m else ds


def cmd_train(args) -> int:
    cfg, _ = merge_solver_config(args)
    ds = load_dataset(args.data)
    stem = resolve_dataset_path(args.data).name
    model_path = Path(args.model) if args.model else Path(f"{stem}.model")
    report_path = Path(args.report) if args.report else Path(f"{stem}.report.json")
    try:
        model, report = mpm_train(ds, cfg)
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise CliError(f"training failed: {exc}") from exc
    train_acc = accuracy(model, ds)
    model.save(model_path)
    report_path.write_text(report.to_json(indent=2) + "\n", encoding="ascii")
    print(f"termination: {report.termination}")
    print(f"k: {report.outer_iters}")
    print(f"cg: {report.total_cg}")
    print(f"solve_path: {report.solve_path}")
    if report.repeat_k is None:
        print("repeat: none")
    else:
        print(f"repeat: k={report.repeat_k} period={report.repeat_period}")
    print(f"time_s: {report.wall_time_s:.4f}")
    print(f"train_accuracy_pct: {train_acc:.4f}")
    print(f"model: {model_path}")
    print(f"report: {report_path}")
    return EXIT_OK if report.termination == "converged" else EXIT_NO_CONVERGENCE


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = _aligned(load_dataset(args.data, n_features=None), model)
    try:
        scores = decision_scores(model, ds)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    labels = labels_from_scores(scores).astype(np.int64)
    if args.format == "json":
        doc = {"labels": labels.tolist(), "scores": scores.tolist()}
        _emit(json.dumps(doc, indent=2, allow_nan=False), args.out)
        return EXIT_OK
    _emit("\n".join(str(int(v)) for v in labels), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = _aligned(load_dataset(args.data, n_features=None), model)
    try:
        ds.assert_signed()
        acc = accuracy(model, ds)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    wrong = int(np.sum(predicted_labels(model, ds) != ds.labels))
    if args.format == "json":
        doc = {
            "accuracy_pct": acc,
            "error_rate_pct": error_rate(model, ds),
            "misclassified": wrong,
            "n": ds.n,
        }
        print(json.dumps(doc, indent=2, allow_nan=False))
        return EXIT_OK
    print(f"accuracy_pct: {acc:.4f}")
    print(f"misclassified: {wrong}")
    return EXIT_OK


def _read_manifest(path: str) -> list[str]:
    return [line for _, _, line in _read_lines(path, "manifest")]


def _sr_grid(raw: str | None) -> tuple[float, ...]:
    if raw is None:
        return DEFAULT_SR_GRID
    try:
        grid = tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as exc:
        raise CliError(f"bad --sr-grid: {exc}") from exc
    if not grid:
        raise CliError("--sr-grid is empty")
    return grid


def _display_name(raw: str) -> str:
    # rows and stats lines show the basename, not the path the shell used
    return Path(raw).name or raw


def cmd_bench(args) -> int:
    names = list(args.datasets)
    if args.manifest:
        names = _read_manifest(args.manifest) + names
    if not names:
        raise CliError("no datasets given; pass names or --manifest")
    if args.jobs < 1:
        raise CliError(f"--jobs must be at least 1, got {args.jobs}")
    if args.split is not None and not 0.0 < args.split < 1.0:
        raise CliError(f"--split must lie strictly inside (0, 1), got {args.split}")
    cfg, seed = merge_solver_config(args)
    grid = _sr_grid(args.sr_grid)

    dcd = DcdConfig(C=args.dcd_c, seed=seed) if args.compare_dcd else None

    def dataset_rows(name: str) -> list[BenchmarkRow]:
        # the data goes out of scope on return, so only one dataset is in
        # memory at a time; one that fails to load or split fills its rows
        # with the error and the sweep goes on
        try:
            ds = load_dataset(name)
            parts = split(ds, args.split, seed) if args.split else (ds,)
        except (CliError, ValueError) as exc:
            return [BenchmarkRow(dataset=name, sr=sr, error=str(exc)) for sr in grid]
        del ds  # a split trains and scores on its two parts alone
        entry = (_display_name(name), *parts)
        return run_benchmark([entry], grid, cfg, jobs=args.jobs, dcd=dcd)

    rows = [row for name in names for row in dataset_rows(name)]
    if args.format == "json":
        _emit(render_json(rows), args.out)
    else:
        _emit(render_csv(rows, include_dcd=args.compare_dcd), args.out, newline=False)
    return EXIT_USAGE if any(row.error for row in rows) else EXIT_OK


def cmd_stats(args) -> int:
    entries = [(_display_name(name), load_dataset(name).stats()) for name in args.datasets]
    if args.format == "json":
        doc = {name: st.as_dict() for name, st in entries}
        print(json.dumps(doc, indent=2, allow_nan=False))
        return EXIT_OK
    print(DatasetStats.csv_header())
    for name, st in entries:
        print(st.csv_row(name))
    return EXIT_OK


def _emit(text: str, out: str | None, newline: bool = True) -> None:
    payload = text + ("\n" if newline and not text.endswith("\n") else "")
    if out:
        try:
            Path(out).write_text(payload, encoding="ascii")
        except OSError as exc:
            raise CliError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(payload)


def build_parser() -> _Parser:
    parser = _Parser(prog="scsvm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model under a misclassification budget")
    train.add_argument("--data", required=True, help="training set (path or name)")
    train.add_argument("--model", help="model output path [<data>.model]")
    train.add_argument("--report", help="training report path [<data>.report.json]")
    add_solver_flags(train)
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="write predicted labels for a dataset")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True)
    predict.add_argument("--format", choices=("text", "json"), default="text")
    predict.add_argument("--out", help="output file [stdout]")
    predict.set_defaults(func=cmd_predict)

    evaluate = sub.add_parser("eval", help="score a model against a labeled dataset")
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--format", choices=("text", "json"), default="text")
    evaluate.set_defaults(func=cmd_eval)

    bench = sub.add_parser("bench", help="run the budget-ratio grid over datasets")
    bench.add_argument("datasets", nargs="*", help="dataset paths or names")
    bench.add_argument("--manifest", help="file listing one dataset per line")
    bench.add_argument("--sr-grid", help="comma-separated ratios [1,5,10,15,25,50%%]")
    bench.add_argument("--split", type=float, default=None,
                       help="hold out this fraction for accuracy [off]")
    bench.add_argument("--format", choices=("csv", "json"), default="csv")
    bench.add_argument("--out", help="output file [stdout]")
    bench.add_argument("--jobs", type=int, default=1, help="parallel cells [1]")
    bench.add_argument("--compare-dcd", action="store_true",
                       help="add the coordinate-descent baseline columns")
    bench.add_argument("--dcd-c", type=float, default=1.0,
                       help="baseline regularization weight [1.0]")
    add_solver_flags(bench)
    bench.set_defaults(func=cmd_bench)

    stats = sub.add_parser("stats", help="print dataset size and density")
    stats.add_argument("datasets", nargs="+", help="dataset paths or names")
    stats.add_argument("--format", choices=("csv", "json"), default="csv")
    stats.set_defaults(func=cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"scsvm: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
