"""Command-line interface tests, run in-process through main(argv)."""

from __future__ import annotations

import io
import json

import pytest

from chartsum.cli import main
from chartsum.corpus import load_predictions, save_corpus
from chartsum.pipeline import run_report_from_dict
from synthdata import synth_corpus


@pytest.fixture
def corpus_csv(tmp_path):
    path = tmp_path / "corpus.csv"
    save_corpus(synth_corpus(6), path)
    return str(path)


@pytest.fixture
def eval_csv(tmp_path):
    path = tmp_path / "eval.csv"
    save_corpus(synth_corpus(3, start=6), path)
    return str(path)


TINY_MODEL_FLAGS = [
    "--d-model", "8", "--heads", "2", "--enc-layers", "1", "--dec-layers", "1",
    "--d-ff", "16", "--epochs", "1", "--lr", "1e-3", "--batch-size", "2",
    "--block", "4", "--stride", "2", "--max-input", "64", "--max-summary-tokens", "8",
]


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_is_a_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "chartsum" in capsys.readouterr().out


def test_run_requires_seed(corpus_csv, eval_csv):
    code = main([
        "run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "oracle",
    ])
    assert code == 1


def test_missing_file_is_a_runtime_error(tmp_path, capsys):
    code = main([
        "score", "--candidates", str(tmp_path / "nope.csv"),
        "--references", str(tmp_path / "nope.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_columns_spec_is_a_validation_error(corpus_csv, capsys):
    code = main([
        "score", "--candidates", corpus_csv, "--references", corpus_csv,
        "--columns", "nonsense",
    ])
    assert code == 1
    assert "canonical=actual" in capsys.readouterr().err


def test_malformed_prediction_file_is_a_runtime_error(tmp_path, corpus_csv):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["score", "--candidates", str(bad), "--references", corpus_csv]) == 2


def test_unknown_section_name_is_a_validation_error(corpus_csv, eval_csv, capsys):
    code = main([
        "run", "--approach", "section-wise", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "oracle", "--seed", "0", "--sections", "cc,bogus",
    ])
    assert code == 1
    assert "unknown section" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-3"])
@pytest.mark.parametrize("command", [
    ["run", "--approach", "single", "--backend", "tiny-lsg", "--seed", "0",
     "--train", "missing-train.csv", "--eval", "missing-eval.csv"],
    ["predict", "--checkpoint", "missing-model.json", "--eval", "missing-eval.csv"],
])
def test_nonpositive_max_summary_tokens_fails_at_parse_time(command, value, capsys):
    # The inputs do not exist: reaching them would be a runtime error (exit 2).
    assert main(command + ["--max-summary-tokens", value]) == 1
    assert f"--max-summary-tokens: must be >= 1, got {value}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Help text documents defaults
# ---------------------------------------------------------------------------

def test_train_help_lists_defaults(capsys):
    assert main(["train", "--help"]) == 0
    out = capsys.readouterr().out
    for expected in ("default: 5e-05", "default: 20", "default: 16", "default: 4",
                     "default: 512"):
        assert expected in out


def test_run_help_lists_defaults(capsys):
    assert main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    assert "default: tiny-lsg" in out
    assert "default: table" in out
    assert "default: 3" in out  # extract-k


# ---------------------------------------------------------------------------
# mask-dump
# ---------------------------------------------------------------------------

def test_mask_dump_matches_worked_example(capsys):
    # stride defaults to 0 for this command, so the bare invocation
    # reproduces the hand-enumerated local+global grid
    code = main(["mask-dump", "--seq-len", "12", "--block", "4", "--global", "1"])
    assert code == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()
    assert len(rows) == 12
    assert rows[9] == "#...########"
    assert rows[0] == "#" * 12
    assert "allowed fraction" in captured.err


def test_mask_dump_writes_file(tmp_path):
    out = tmp_path / "grid.txt"
    assert main(["mask-dump", "--seq-len", "4", "--block", "4", "--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == ["####"] * 4


# ---------------------------------------------------------------------------
# split-sections
# ---------------------------------------------------------------------------

NOTE = "seen today\n\nCHIEF COMPLAINT\n\nknee pain\n\nSOCIAL HISTORY\n\nnever smoked\n"


def test_split_sections_text_format(tmp_path, capsys):
    src = tmp_path / "note.txt"
    src.write_text(NOTE)
    assert main(["split-sections", "--in", str(src)]) == 0
    out = capsys.readouterr().out
    assert "== PREAMBLE\nseen today" in out
    assert "== CC (CHIEF COMPLAINT)\nknee pain" in out
    assert "== UNKNOWN (SOCIAL HISTORY)\nnever smoked" in out


def test_split_sections_json_format_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(NOTE))
    assert main(["split-sections", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["preamble"] == "seen today"
    assert payload["sections"][0] == {
        "id": "CC", "header": "CHIEF COMPLAINT", "body": "knee pain",
    }
    assert payload["sections"][1]["id"] == "UNKNOWN"
    assert payload["sections"][1]["raw"] == "SOCIAL HISTORY"


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------

def test_score_identical_files_all_ones(corpus_csv, capsys):
    assert main(["score", "--candidates", corpus_csv, "--references", corpus_csv]) == 0
    out = capsys.readouterr().out
    assert "1.0000" in out
    assert "aggregate" in out


def test_score_csv_has_aggregate_row(corpus_csv, capsys):
    assert main([
        "score", "--candidates", corpus_csv, "--references", corpus_csv,
        "--format", "csv",
    ]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "id,rouge1,rouge2,rougeL"
    assert rows[-1] == "AGGREGATE,1.0000,1.0000,1.0000"
    assert len(rows) == 2 + 6  # header + 6 documents + aggregate


def test_score_json_structure(corpus_csv, capsys):
    assert main([
        "score", "--candidates", corpus_csv, "--references", corpus_csv,
        "--format", "json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["rouge1"]["f1"] == 1.0
    assert len(payload["per_document"]) == 6


def test_score_with_column_remap(tmp_path, capsys):
    path = tmp_path / "weird.csv"
    path.write_text("k,d,n\ne1,hello there,note text here\n")
    assert main([
        "score", "--candidates", str(path), "--references", str(path),
        "--columns", "id=k,dialogue=d,note=n",
    ]) == 0
    assert "1.0000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train / predict
# ---------------------------------------------------------------------------

def test_train_then_predict_round_trip(tmp_path, corpus_csv, eval_csv, capsys):
    ckpt = tmp_path / "model.json"
    code = main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt),
                 "--seed", "0", *TINY_MODEL_FLAGS])
    assert code == 0
    assert ckpt.exists()
    err = capsys.readouterr().err
    assert "vocabulary" in err and "final loss" in err

    preds_path = tmp_path / "preds.json"
    code = main(["predict", "--checkpoint", str(ckpt), "--eval", eval_csv,
                 "--out", str(preds_path),
                 "--block", "4", "--stride", "2", "--max-input", "64",
                 "--max-summary-tokens", "8"])
    assert code == 0
    preds = load_predictions(preds_path)
    assert preds.approach == "single"
    assert sorted(preds.entries) == [f"synth-00{i}" for i in (6, 7, 8)]

    # without --out the entries go to stdout as JSON
    code = main(["predict", "--checkpoint", str(ckpt), "--eval", eval_csv,
                 "--block", "4", "--stride", "2", "--max-input", "64",
                 "--max-summary-tokens", "8"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == preds.entries


# ---------------------------------------------------------------------------
# run / report
# ---------------------------------------------------------------------------

def test_run_oracle_scores_one_and_writes_artifacts(tmp_path, corpus_csv, eval_csv, capsys):
    out_dir = tmp_path / "run1"
    code = main([
        "run", "--approach", "section-wise", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "oracle", "--seed", "0", "--out-dir", str(out_dir),
    ])
    assert code == 0
    table = capsys.readouterr().out
    assert "section-wise" in table and "1.0000" in table

    preds = load_predictions(out_dir / "predictions.json")
    assert preds.approach == "section-wise"
    assert (out_dir / "report.txt").read_text() == table
    payload = json.loads((out_dir / "report.json").read_text())
    run = run_report_from_dict(payload[0])
    assert run.scores.rouge1.f1 == 1.0 and run.division_average == 1.0


def test_run_reruns_are_byte_identical(tmp_path, corpus_csv, eval_csv, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert main([
            "run", "--approach", "multi-layer", "--train", corpus_csv, "--eval", eval_csv,
            "--backend", "extractive", "--stage2-backend", "identity",
            "--extract-k", "4", "--seed", "7", "--out-dir", str(d),
        ]) == 0
    capsys.readouterr()
    for name in ("predictions.json", "report.txt", "report.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_report_rerenders_saved_runs(tmp_path, corpus_csv, eval_csv, capsys):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for approach, d in (("single", d1), ("section-wise", d2)):
        assert main([
            "run", "--approach", approach, "--train", corpus_csv, "--eval", eval_csv,
            "--backend", "oracle", "--seed", "0", "--out-dir", str(d),
        ]) == 0
    capsys.readouterr()
    assert main([
        "report", "--in", str(d1 / "report.json"), str(d2 / "report.json"),
        "--format", "csv",
    ]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 3
    assert rows[1].startswith("single,")
    assert rows[2].startswith("section-wise,")


def _assert_one_line_error(err, *fragments):
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err


def test_report_non_json_file_is_a_runtime_error(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text("not json")
    assert main(["report", "--in", str(bad)]) == 2
    _assert_one_line_error(capsys.readouterr().err, str(bad), "not a valid report file")


def _drop(*keys):
    def mutate(entry):
        for key in keys[:-1]:
            entry = entry[key]
        del entry[keys[-1]]
    return mutate


def _set(value, *keys):
    def mutate(entry):
        for key in keys[:-1]:
            entry = entry[key]
        entry[keys[-1]] = value
    return mutate


@pytest.mark.parametrize("mutate, fragment", [
    (_drop("scores"), "missing key 'scores'"),
    (_drop("seed"), "missing key 'seed'"),
    (_drop("division_f1", "Exam"), "missing key 'division_f1.Exam'"),
    (_drop("scores", "rouge2", "recall"), "missing key 'scores.rouge2.recall'"),
    (_drop("scores", "per_document", "synth-006", "rougeL"),
     "missing key 'scores.per_document.synth-006.rougeL'"),
    (_set("7", "seed"), "'seed' must be an integer, got str"),
    (_set(True, "n_documents"), "'n_documents' must be an integer, got bool"),
    (_set([1, 2], "scores", "rouge1"), "'scores.rouge1' must be an object, got list"),
    (_set("high", "scores", "rougeL", "f1"), "'scores.rougeL.f1' must be a number, got str"),
    (_set(None, "approach"), "'approach' must be a string, got NoneType"),
])
def test_report_malformed_entry_is_a_runtime_error(
    tmp_path, corpus_csv, eval_csv, capsys, mutate, fragment
):
    out_dir = tmp_path / "run"
    assert main([
        "run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "oracle", "--seed", "0", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    path = out_dir / "report.json"
    payload = json.loads(path.read_text())
    mutate(payload[0])
    path.write_text(json.dumps(payload))
    assert main(["report", "--in", str(path)]) == 2
    _assert_one_line_error(capsys.readouterr().err, f"{path}: run 0: ", fragment)


def test_report_entry_that_is_not_an_object_is_a_runtime_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("[3]")
    assert main(["report", "--in", str(path)]) == 2
    _assert_one_line_error(capsys.readouterr().err, "run 0: run report must be an object")


def test_report_with_no_runs_is_a_runtime_error(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("[]")
    assert main(["report", "--in", str(path)]) == 2
    _assert_one_line_error(
        capsys.readouterr().err, f"{path}: expected a non-empty JSON list of run reports"
    )


def test_mistyped_prediction_file_is_a_runtime_error(tmp_path, corpus_csv, capsys):
    bad = tmp_path / "preds.json"
    bad.write_text(json.dumps({
        "approach": "single", "seed": "abc", "config_hash": 5, "entries": {}, "extra": [1],
    }))
    assert main(["score", "--candidates", str(bad), "--references", corpus_csv]) == 2
    _assert_one_line_error(capsys.readouterr().err, f"{bad}: 'seed' must be an integer, got str")


def test_jsonl_corpus_with_non_string_field_is_a_runtime_error(tmp_path, corpus_csv, capsys):
    bad = tmp_path / "eval.jsonl"
    bad.write_text('{"id": "a", "dialogue": 5}\n')
    code = main([
        "run", "--approach", "single", "--train", corpus_csv, "--eval", str(bad),
        "--backend", "oracle", "--seed", "0",
    ])
    assert code == 2
    _assert_one_line_error(
        capsys.readouterr().err, "row 1: field 'dialogue' must be a string, got int"
    )


def test_run_csv_format_to_stdout(corpus_csv, eval_csv, capsys):
    assert main([
        "run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "identity", "--seed", "0", "--format", "csv",
    ]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("approach,rouge1")
    assert rows[1].startswith("single,")


# ---------------------------------------------------------------------------
# grad-check
# ---------------------------------------------------------------------------

def test_grad_check_passes_at_default_threshold(capsys):
    assert main(["grad-check", "--samples", "40"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("max_gradient_error ")


def test_grad_check_fails_when_threshold_is_absurd(capsys):
    assert main(["grad-check", "--samples", "10", "--threshold", "1e-18"]) == 2
    captured = capsys.readouterr()
    assert "exceeds threshold" in captured.err
