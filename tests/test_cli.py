"""End-to-end command-line tests driven through main(argv)."""

import json
import math
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from scsvm.benchmark import CSV_COLUMNS
from scsvm.cli import build_parser, main, merge_solver_config
from scsvm.data import DatasetStats, parse_svmlight
from scsvm.mpm import ModelTheta, MpmConfig

DATA = Path(__file__).resolve().parent.parent / "data"
TOY = str(DATA / "separable_toy")
TINY = str(DATA / "tiny")
BLOBS = str(DATA / "noisy_blobs")
DENSE_MID = str(DATA / "dense_mid")


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse paths exit instead of returning
        return exc.code


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def train_toy(workdir, *extra):
    code = run_cli(["train", "--data", TOY, "--sr", "0", *extra])
    assert code == 0
    return workdir / "separable_toy.model"


def test_train_writes_model_and_report(workdir, capsys):
    model_path = train_toy(workdir)
    out = capsys.readouterr().out
    assert "termination: converged" in out
    assert "k: 1" in out
    assert "solve_path: dense" in out
    assert "repeat: none" in out
    assert "train_accuracy_pct: 100.0000" in out
    assert model_path.exists()
    report = json.loads((workdir / "separable_toy.report.json").read_text())
    assert report["termination"] == "converged"
    assert report["solve_path"] == "dense"
    assert report["budget"] == 0
    assert report["repeat_k"] is None and report["repeat_period"] is None


def test_train_summary_names_the_first_repeat(workdir, capsys):
    code = run_cli(["train", "--data", DENSE_MID, "--sr", "0.01"])
    assert code == 2
    out = capsys.readouterr().out
    assert "k: 1000" in out
    assert "repeat: k=50 period=1" in out
    report = json.loads((workdir / "dense_mid.report.json").read_text())
    assert (report["repeat_k"], report["repeat_period"]) == (50, 1)


def test_train_rejects_both_budget_forms(workdir, capsys):
    code = run_cli(["train", "--data", TOY, "--sr", "0.1", "--s", "5"])
    assert code == 1
    assert "exactly one" in capsys.readouterr().err


def test_train_missing_data_exits_one(workdir, capsys):
    code = run_cli(["train", "--data", "no_such_set", "--sr", "0.1"])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_train_iteration_cap_exits_two(workdir, capsys):
    code = run_cli(["train", "--data", BLOBS, "--sr", "0.1", "--max-outer", "5"])
    assert code == 2
    assert "termination: max_outer" in capsys.readouterr().out


def _reject_constant(token):
    raise ValueError(f"bare {token} is not strict JSON")


def test_train_near_the_rho_cap_writes_a_strict_json_report(workdir, capsys):
    # --rho-growth 10 drives rho toward its cap, where the squares of the
    # dense solve's telemetry residual overflow unless its norm is scaled
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli(["train", "--data", DENSE_MID, "--rho-growth", "10"])
    assert code == 2
    assert "termination: max_outer" in capsys.readouterr().out
    text = (workdir / "dense_mid.report.json").read_text()
    report = json.loads(text, parse_constant=_reject_constant)
    assert report["termination"] == "max_outer"
    assert len(report["history"]) == report["outer_iters"] + 1
    residuals = [rec["solver_residual"] for rec in report["history"][1:]]
    assert all(isinstance(r, float) and math.isfinite(r) for r in residuals)


@pytest.mark.parametrize("name, code", [("noisy_blobs", 0), ("dense_mid", 2)])
def test_train_on_the_cg_path_runs_up_to_the_rho_cap(workdir, capsys, name, code):
    # CG solves a large rhs scaled down by a power of two, so d^T A d stays
    # finite up to the rho cap and the run ends as the dense path's does
    argv = ["train", "--data", str(DATA / name), "--rho-growth", "10"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli([*argv, "--dense-threshold", "1"]) == code
        cg_out = capsys.readouterr().out
        report_path = workdir / f"{name}.report.json"
        report = json.loads(report_path.read_text(), parse_constant=_reject_constant)
        assert run_cli([*argv, "--model", "dense.model", "--report", "dense.json"]) == code
    dense = json.loads((workdir / "dense.json").read_text())
    assert "solve_path: cg" in cg_out
    assert (report["solve_path"], report["rho_final"]) == ("cg", 1e200)
    assert report["termination"] == dense["termination"]
    assert report["outer_iters"] == dense["outer_iters"]


def test_predict_text_labels(workdir, capsys):
    model = train_toy(workdir)
    capsys.readouterr()
    assert run_cli(["predict", "--model", str(model), "--data", TOY]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 80
    assert set(lines) <= {"1", "-1"}


def test_predict_json_scores_match_sign_rule(workdir, capsys):
    model = train_toy(workdir)
    capsys.readouterr()
    assert run_cli(["predict", "--model", str(model), "--data", TOY,
                    "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["labels"]) == len(doc["scores"]) == 80
    for label, score in zip(doc["labels"], doc["scores"]):
        assert label == (1 if score >= 0 else -1)


def test_predict_wider_data_exits_one(workdir, capsys):
    model = train_toy(workdir)
    capsys.readouterr()
    code = run_cli(["predict", "--model", str(model), "--data", TINY])
    assert code == 1
    assert "features" in capsys.readouterr().err


def test_predict_pads_narrow_data(workdir, capsys):
    model = train_toy(workdir)
    narrow = workdir / "narrow"
    narrow.write_text("+1 1:12.5\n-1 1:-12.5\n")
    capsys.readouterr()
    assert run_cli(["predict", "--model", str(model), "--data", str(narrow)]) == 0
    assert capsys.readouterr().out.strip().split("\n") == ["1", "-1"]


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "1\n1\n-1\n"),
        ("json", '{\n  "labels": [\n    1,\n    1,\n    -1\n  ],\n'
                 '  "scores": [\n    0.0,\n    1.0,\n    -3.0\n  ]\n}\n'),
    ],
)
def test_predict_score_of_exactly_zero_prints_one(workdir, capsys, fmt, expected):
    model = workdir / "flat.model"
    ModelTheta(np.array([1.0, -1.0]), 0.0).save(model)
    data = workdir / "flat"
    data.write_text("+1 1:2 2:2\n-1 1:1\n+1 2:3\n")
    capsys.readouterr()
    argv = ["predict", "--model", str(model), "--data", str(data), "--format", fmt]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out == expected


def test_eval_text_output(workdir, capsys):
    model = train_toy(workdir)
    capsys.readouterr()
    assert run_cli(["eval", "--model", str(model), "--data", TOY]) == 0
    out = capsys.readouterr().out
    assert "accuracy_pct: 100.0000" in out
    assert "misclassified: 0" in out


def test_eval_json_partitions_exactly(workdir, capsys):
    model = train_toy(workdir)
    capsys.readouterr()
    assert run_cli(["eval", "--model", str(model), "--data", BLOBS,
                    "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["accuracy_pct"] + doc["error_rate_pct"] == 100.0
    assert doc["n"] == 200
    expected_wrong = round(doc["n"] * doc["error_rate_pct"] / 100.0)
    assert doc["misclassified"] == expected_wrong


def test_eval_wider_data_exits_one(workdir, capsys):
    model = train_toy(workdir)
    capsys.readouterr()
    assert run_cli(["eval", "--model", str(model), "--data", TINY]) == 1
    assert "features" in capsys.readouterr().err


def test_bench_default_grid_is_six_rows_per_dataset(workdir, capsys):
    code = run_cli(["bench", TOY, TINY, BLOBS, "--max-outer", "40"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "dataset,sr,k,cg,time_s,accuracy_pct,train_misclassified,s"
    assert len(lines) == 1 + 3 * 6


def test_bench_missing_dataset_marks_rows_and_exits_nonzero(workdir, capsys):
    code = run_cli(["bench", TOY, "ghost", "--sr-grid", "0.1,0.5",
                    "--max-outer", "20"])
    assert code == 1
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 5
    ghost_rows = [l for l in lines if l.startswith("ghost,")]
    assert ghost_rows == ["ghost,0.1,,,,,,", "ghost,0.5,,,,,,"]
    toy_rows = [l for l in lines if l.startswith("separable_toy,")]
    assert all(",100.0000," in row for row in toy_rows)


def test_bench_json_format(workdir, capsys):
    code = run_cli(["bench", TOY, "--sr-grid", "0.1", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert row["dataset"] == "separable_toy"
    assert row["error"] is None
    assert row["training_report"]["history"]


def test_bench_split_holds_out_rows(workdir, capsys):
    code = run_cli(["bench", BLOBS, "--sr-grid", "0.1", "--split", "0.2",
                    "--max-outer", "20", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    # training saw 160 of 200 rows, so the budget reflects the split
    assert doc["rows"][0]["s"] == 16


def test_bench_compare_dcd_adds_columns(workdir, capsys):
    code = run_cli(["bench", TOY, "--sr-grid", "0.1", "--compare-dcd"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].endswith(
        ",dcd_accuracy_pct,dcd_time_s,ref_accuracy_pct,ref_dcd_accuracy_pct"
    )
    assert len(lines[1].split(",")) == 12


def test_bench_manifest_file(workdir, capsys):
    manifest = workdir / "suite.txt"
    manifest.write_text(f"# comment line\n{TOY}\n\n{TINY}\n")
    code = run_cli(["bench", "--manifest", str(manifest), "--sr-grid", "0.1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [l.split(",")[0] for l in lines[1:]] == ["separable_toy", "tiny"]


@pytest.mark.parametrize(
    "command, entry",
    [
        (["train", "--data", TOY, "--config"], "sr = 0.5"),
        (["bench", "--sr-grid", "0.1", "--manifest"], TOY),
    ],
    ids=["config", "manifest"],
)
def test_config_and_manifest_name_the_line_of_a_non_ascii_byte(workdir, capsys, command, entry):
    # the byte sits in a comment, which the readers skip only after decoding
    path = workdir / "listing.txt"
    path.write_bytes(f"# plain\n{entry}  # caf\u00e9\n".encode("utf-8"))
    assert run_cli([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}, line 2: non-ASCII byte 0xc3" in err
    assert "codec" not in err


@pytest.mark.parametrize(
    "flag, value",
    [("--jobs", "0"), ("--jobs", "-5"), ("--split", "0"), ("--split", "1"),
     ("--split", "1.5"), ("--split", "-0.2"), ("--split", "nan")],
)
def test_bench_rejects_out_of_range_jobs_and_split(workdir, capsys, flag, value):
    assert run_cli(["bench", TINY, flag, value]) == 1
    captured = capsys.readouterr()
    assert f"scsvm: {flag} must" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid, message",
    [("0.1,abc", "bad --sr-grid: "), (" , ", "--sr-grid is empty")],
    ids=["bad-value", "empty"],
)
def test_bench_rejects_a_bad_sr_grid(workdir, capsys, grid, message):
    assert run_cli(["bench", TINY, "--sr-grid", grid]) == 1
    captured = capsys.readouterr()
    assert f"scsvm: {message}" in captured.err
    assert captured.out == ""


def test_bench_split_failure_marks_only_its_own_rows(workdir, capsys):
    Path("single").write_text("+1 1:1\n")
    code = run_cli(["bench", "single", TOY, "--split", "0.2", "--sr-grid", "0.1,0.5",
                    "--format", "json"])
    assert code == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(row["dataset"], row["sr"]) for row in rows] == [
        ("single", 0.1), ("single", 0.5), ("separable_toy", 0.1), ("separable_toy", 0.5),
    ]
    assert all("leaves an empty part" in row["error"] for row in rows[:2])
    assert all(row["error"] is None and row["k"] >= 1 for row in rows[2:])


def test_bench_repeated_dataset_gives_a_block_per_mention(workdir, capsys):
    assert run_cli(["bench", TINY, TOY, TINY, "--sr-grid", "0.1,0.5"]) == 0
    records = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
    assert [record[:2] for record in records] == [
        ["tiny", "0.1"], ["tiny", "0.5"], ["separable_toy", "0.1"], ["separable_toy", "0.5"],
        ["tiny", "0.1"], ["tiny", "0.5"],
    ]
    time_s = CSV_COLUMNS.index("time_s")
    for first, again in zip(records[:2], records[4:]):
        assert first[:time_s] + first[time_s + 1:] == again[:time_s] + again[time_s + 1:]


def test_bench_out_file(workdir):
    code = run_cli(["bench", TOY, "--sr-grid", "0.1", "--out", "rows.csv"])
    assert code == 0
    text = (Path("rows.csv")).read_text()
    assert text.startswith("dataset,sr,")


def test_bench_requires_datasets(workdir, capsys):
    assert run_cli(["bench"]) == 1
    assert "no datasets" in capsys.readouterr().err


def test_stats_csv_row(workdir, capsys):
    assert run_cli(["stats", TOY]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["name,n,m,nnz,density_pct", "separable_toy,80,2,160,100.00"]
    assert lines[0].split(",") == ["name", *(f.name for f in fields(DatasetStats))]


def test_stats_json(workdir, capsys):
    assert run_cli(["stats", TINY, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tiny"] == {"n": 10, "m": 3, "nnz": 30, "density_pct": 100.0}
    assert list(doc["tiny"]) == [f.name for f in fields(DatasetStats)]


def test_stats_names_the_line_of_a_non_ascii_byte(workdir, capsys):
    path = workdir / "accent.svm"
    path.write_bytes("+1 1:0.5\n-1 1:caf\u00e9\n".encode("utf-8"))
    assert run_cli(["stats", str(path)]) == 1
    assert f"{path}, line 2: non-ASCII byte 0xc3" in capsys.readouterr().err


def test_env_var_resolves_names(workdir, monkeypatch, capsys):
    monkeypatch.setenv("SCSVM_DATA_DIR", str(DATA))
    assert run_cli(["stats", "tiny"]) == 0
    assert "tiny,10,3,30" in capsys.readouterr().out


def test_config_file_supplies_defaults_flags_override(workdir, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("sr = 0.5\nmax_outer = 600  # inline comment\n")
    code = run_cli(["train", "--data", TOY, "--config", str(cfg)])
    assert code == 0
    capsys.readouterr()
    report = json.loads((workdir / "separable_toy.report.json").read_text())
    assert report["budget"] == 40  # sr=0.5 of 80 came from the file

    code = run_cli(["train", "--data", TOY, "--config", str(cfg), "--sr", "0.1"])
    assert code == 0
    report = json.loads((workdir / "separable_toy.report.json").read_text())
    assert report["budget"] == 8  # the flag beat the file

    cfg.write_text("sr = 0.5\nmax_outer = 4\n")
    assert run_cli(["train", "--data", TOY, "--config", str(cfg)]) == 2
    report = json.loads((workdir / "separable_toy.report.json").read_text())
    assert report["termination"] == "max_outer"
    assert report["outer_iters"] == 4


def test_no_flags_and_no_config_give_the_library_defaults():
    args = build_parser().parse_args(["train", "--data", TOY])
    assert merge_solver_config(args) == (MpmConfig(sr=0.10), 42)


@pytest.mark.parametrize(
    "flags, config, expected",
    [
        (["--s", "5"], None, MpmConfig(s=5)),
        ([], "cg_warm_start = yes\n", MpmConfig(sr=0.10, cg_warm_start=True)),
        (["--sr", "0.2"], "s = 3\ncg_warm_start = off\n", MpmConfig(sr=0.2)),
    ],
    ids=["s-flag", "warm-start-yes", "warm-start-off"],
)
def test_flags_and_config_file_merge_into_the_library_config(workdir, flags, config, expected):
    argv = ["train", "--data", TOY, *flags]
    if config is not None:
        (workdir / "run.cfg").write_text(config)
        argv += ["--config", "run.cfg"]
    assert merge_solver_config(build_parser().parse_args(argv)) == (expected, 42)


def test_config_file_unknown_key_exits_one(workdir, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("rho_gorwth = 2\n")
    assert run_cli(["train", "--data", TOY, "--config", str(cfg)]) == 1
    assert "unknown config keys: rho_gorwth" in capsys.readouterr().err


def test_config_file_both_budgets_exits_one(workdir, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("s = 3\nsr = 0.5\n")
    assert run_cli(["train", "--data", TOY, "--config", str(cfg)]) == 1
    assert "both s and sr" in capsys.readouterr().err


def test_config_file_bad_line_exits_one(workdir, capsys):
    cfg = workdir / "run.cfg"
    cfg.write_text("just some words\n")
    assert run_cli(["train", "--data", TOY, "--config", str(cfg)]) == 1
    assert "expected key=value" in capsys.readouterr().err

    # a value that does not parse names its key, budget keys included
    for key, value in (("s", "abc"), ("sr", "abc"), ("s", "1.5"), ("rho", "abc"),
                       ("cg_warm_start", "maybe")):
        cfg.write_text(f"{key} = {value}\n")
        assert run_cli(["train", "--data", TOY, "--config", str(cfg)]) == 1
        assert f"config key {key}: " in capsys.readouterr().err


def test_argparse_usage_errors_exit_one(workdir, capsys):
    assert run_cli(["train"]) == 1  # --data is required
    assert run_cli(["nonsense"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("sub", ["train", "predict", "eval", "bench", "stats"])
def test_help_exits_zero_and_names_flags(sub, capsys):
    assert run_cli([sub, "--help"]) == 0
    out = capsys.readouterr().out
    assert "--help" in out
    if sub in ("train", "bench"):
        assert "--rho" in out and "[0.4]" in out


def test_predicted_labels_round_trip_through_files(workdir, capsys):
    # train, predict to a file, re-read and compare against the library
    model_path = train_toy(workdir)
    capsys.readouterr()
    assert run_cli(["predict", "--model", str(model_path), "--data", BLOBS,
                    "--out", "labels.txt"]) == 0
    from scsvm.evaluate import predicted_labels
    from scsvm.mpm import ModelTheta

    got = np.array([int(v) for v in Path("labels.txt").read_text().split()])
    ds = parse_svmlight(BLOBS)
    model = ModelTheta.load(model_path)
    assert np.array_equal(got, predicted_labels(model, ds))
