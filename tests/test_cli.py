"""Command-line interface tests, run in-process through main(argv)."""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from dataclasses import asdict, replace
from itertools import chain
from pathlib import Path

import pytest

from chartsum.cli import _backend_from_args, _load_candidates, build_parser, main
from chartsum.config import LsgConfig, ModelConfig, TrainConfig
from chartsum.corpus import (Corpus, PredictionSet, load_corpus, load_predictions,
                             predictions_text, save_corpus)
from chartsum.pipeline import (BackendSpec, TinyLsgSummarizer, config_hash, run_report_from_dict,
                               train_tiny_lsg)
from chartsum.tinylsg import load_checkpoint, save_model
from peakmem import traced_peak
from synthdata import synth_corpus
from test_corpus import MALFORMED_CORPORA


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


# Every subcommand that takes --columns, with inputs that do not exist: a bad
# --columns must be reported before any file is opened.
COLUMNS_COMMANDS = {
    "train": ["train", "--train", "missing.csv", "--checkpoint", "model.json", "--seed", "0"],
    "predict": ["predict", "--checkpoint", "missing.json", "--eval", "missing.csv"],
    "score": ["score", "--candidates", "missing.json", "--references", "missing.csv"],
    "run": ["run", "--approach", "single", "--train", "missing.csv", "--eval", "missing.csv",
            "--seed", "0"],
}


@pytest.mark.parametrize("command", sorted(COLUMNS_COMMANDS))
@pytest.mark.parametrize("spec,message", [
    ("foo=bar", "unknown canonical column 'foo'"),
    ("id=id,id=dialogue", "column 'id' is named twice"),
    ("note=a, note =b", "column 'note' is named twice"),
], ids=["unknown", "repeated", "repeated-spaced"])
def test_columns_are_validated_at_parse_time(command, spec, message, tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*COLUMNS_COMMANDS[command], "--columns", spec]) == 1
    assert f"argument --columns: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_malformed_prediction_file_is_a_runtime_error(tmp_path, corpus_csv):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["score", "--candidates", str(bad), "--references", corpus_csv]) == 2


def test_run_has_no_sections_option(tmp_path, corpus_csv, eval_csv, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "run", "--approach", "section-wise", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "oracle", "--seed", "0", "--sections", "cc", "--out-dir", str(out_dir),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments: --sections cc" in captured.err
    assert captured.out == "" and not out_dir.exists()


# Each setting is checked before any file is read: the inputs do not exist,
# and reaching them would be a runtime error (exit 2).
MISSING_INPUTS = {
    "run": ["run", "--approach", "single", "--backend", "tiny-lsg", "--seed", "0",
            "--train", "missing-train.csv", "--eval", "missing-eval.csv"],
    "train": ["train", "--train", "missing-train.csv", "--checkpoint", "never-written.json",
              "--seed", "0"],
}


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--max-summary-tokens", "0"], "max_summary_tokens must be >= 1, got 0", id="0"),
    pytest.param(["--max-summary-tokens", "-3"], "max_summary_tokens must be >= 1, got -3",
                 id="-3"),
    pytest.param(["--d-model", "7"], "d_model (7) must be divisible by n_heads (2)",
                 id="d-model-7"),
    pytest.param(["--heads", "3"], "d_model (64) must be divisible by n_heads (3)", id="heads-3"),
    pytest.param(["--block", "0"], "block_size must be >= 1, got 0", id="block-0"),
    pytest.param(["--extract-k", "0"], "extract_k must be >= 1, got 0", id="extract-k-0"),
])
@pytest.mark.parametrize("command", [MISSING_INPUTS["run"]])
def test_nonpositive_max_summary_tokens_fails_at_parse_time(command, flags, message, capsys):
    assert main(command + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--d-model", "7"], "d_model (7) must be divisible by n_heads (2)",
                 id="d-model-7"),
    pytest.param(["--max-summary-tokens", "0"], "max_summary_tokens must be >= 1, got 0",
                 id="max-summary-tokens-0"),
    # Of two bad settings, the mask's is reported before the training schedule's.
    pytest.param(["--lr", "nan", "--block", "0"], "block_size must be >= 1, got 0",
                 id="block-0-before-lr-nan"),
])
def test_train_checks_settings_before_reading_the_corpus(flags, message, capsys):
    assert main(MISSING_INPUTS["train"] + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Every tiny-lsg setting flag of `train` and `run`, each with a valid value that
# differs from its default and from every other flag's value.
SETTING_FLAGS = [
    "--d-model", "24", "--heads", "3", "--enc-layers", "5", "--dec-layers", "6",
    "--d-ff", "7", "--lr", "0.25", "--epochs", "8", "--batch-size", "9",
    "--max-summary-tokens", "10", "--block", "11", "--stride", "12", "--global", "15",
    "--radius", "16", "--max-input", "40",
]


@pytest.mark.parametrize("command", sorted(MISSING_INPUTS))
def test_each_setting_flag_lands_on_its_own_field(command):
    args = build_parser().parse_args(MISSING_INPUTS[command] + SETTING_FLAGS)
    assert _backend_from_args(args) == BackendSpec(
        model=ModelConfig(d_model=24, n_heads=3, n_layers_enc=5, n_layers_dec=6, d_ff=7),
        lsg=LsgConfig(block_size=11, sparsity_stride=12, num_global=15, max_input_tokens=40,
                      local_radius=16),
        train=TrainConfig(initial_lr=0.25, epochs=8, batch_size=9),
        max_summary_tokens=10,
    )


# Commands that take --seed, with inputs that do not exist. Only tiny-lsg
# hands the seed to numpy, and stage 2 of a multi-layer run trains with the
# seed plus 10, yet every one rejects a seed below 0 before reading a file.
SEED_COMMANDS = {
    "train": ["train", "--train", "missing-train.csv", "--checkpoint", "never-written.json"],
    **{
        name: ["run", "--train", "missing-train.csv", "--eval", "missing-eval.csv",
               "--out-dir", "never-made", *flags]
        for name, flags in {
            "run-tiny-lsg": ["--approach", "single", "--backend", "tiny-lsg"],
            "run-extractive": ["--approach", "single", "--backend", "extractive"],
            "run-multi-layer": ["--approach", "multi-layer", "--backend", "extractive",
                                "--stage2-backend", "tiny-lsg"],
        }.items()
    },
}


@pytest.mark.parametrize("seed", ["-1", "-5", "-40"])
@pytest.mark.parametrize("command", SEED_COMMANDS.values(), ids=SEED_COMMANDS)
def test_negative_seed_fails_at_parse_time(command, seed, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert f"argument --seed: must be >= 0, got {seed}\n" in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", ["abc", "1.5", ""])
@pytest.mark.parametrize("command", SEED_COMMANDS.values(), ids=SEED_COMMANDS)
def test_non_integer_seed_fails_at_parse_time(command, seed, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.err.endswith(f"argument --seed: invalid int value: {seed!r}\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


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


# `--help` of every subcommand at 80 columns: each default is stated once.
HELP_TEXT = {
    "split-sections": """\
usage: chartsum split-sections [-h] [--in INFILE] [--out OUT]
                               [--format {text,json}]

options:
  -h, --help            show this help message and exit
  --in INFILE           note file (default: stdin)
  --out OUT             output path (default: stdout)
  --format {text,json}  output rendering (default: text)
""",
    "train": """\
usage: chartsum train [-h] --train TRAIN --checkpoint CHECKPOINT --seed SEED
                      [--columns COLUMNS] [--d-model D_MODEL] [--heads HEADS]
                      [--enc-layers ENC_LAYERS] [--dec-layers DEC_LAYERS]
                      [--d-ff D_FF] [--lr LR] [--epochs EPOCHS]
                      [--batch-size BATCH_SIZE]
                      [--max-summary-tokens MAX_SUMMARY_TOKENS]
                      [--block BLOCK] [--stride STRIDE] [--global GLOBAL]
                      [--radius RADIUS] [--max-input MAX_INPUT]

options:
  -h, --help            show this help message and exit
  --train TRAIN         training corpus file
  --checkpoint CHECKPOINT
                        where to write the trained model
  --seed SEED           random seed (required)
  --columns COLUMNS     remap corpus columns, e.g.
                        id=encounter_id,dialogue=src,note=tgt
  --d-model D_MODEL     embedding width (default: 64)
  --heads HEADS         attention heads (default: 2)
  --enc-layers ENC_LAYERS
                        encoder layers (default: 2)
  --dec-layers DEC_LAYERS
                        decoder layers (default: 2)
  --d-ff D_FF           feed-forward width (default: 128)
  --lr LR               initial learning rate (default: 5e-05)
  --epochs EPOCHS       training epochs (default: 20)
  --batch-size BATCH_SIZE
                        examples per update (default: 8)
  --max-summary-tokens MAX_SUMMARY_TOKENS
                        decode length cap (default: 128)
  --block BLOCK         local attention block size (default: 16)
  --stride STRIDE       sparse key stride (0 disables) (default: 4)
  --global GLOBAL       number of global tokens (default: 1)
  --radius RADIUS       adjacent-block reach (default: 1)
  --max-input MAX_INPUT
                        source token cap (default: 512)
""",
    "predict": """\
usage: chartsum predict [-h] --checkpoint CHECKPOINT --eval EVAL [--out OUT]
                        [--columns COLUMNS]

The attention mask, source cap and decode cap are the ones the checkpoint
records.

options:
  -h, --help            show this help message and exit
  --checkpoint CHECKPOINT
                        trained model file
  --eval EVAL           corpus to summarize
  --out OUT             prediction file (default: stdout)
  --columns COLUMNS     remap corpus columns, e.g.
                        id=encounter_id,dialogue=src,note=tgt
""",
    "score": """\
usage: chartsum score [-h] --candidates CANDIDATES --references REFERENCES
                      [--format {text,csv,json}] [--out OUT]
                      [--columns COLUMNS]

options:
  -h, --help            show this help message and exit
  --candidates CANDIDATES
                        prediction .json or corpus file with candidate notes
  --references REFERENCES
                        prediction .json or corpus file with reference notes
  --format {text,csv,json}
                        output rendering (default: text)
  --out OUT             output path (default: stdout)
  --columns COLUMNS     remap corpus columns, e.g.
                        id=encounter_id,dialogue=src,note=tgt
""",
    "run": """\
usage: chartsum run [-h] --approach {single,section-wise,multi-layer} --train
                    TRAIN --eval EVAL
                    [--backend {identity,oracle,extractive,tiny-lsg}]
                    [--stage2-backend {identity,oracle,extractive,tiny-lsg}]
                    --seed SEED [--extract-k EXTRACT_K] [--out-dir OUT_DIR]
                    [--format {table,csv,json}] [--columns COLUMNS]
                    [--d-model D_MODEL] [--heads HEADS]
                    [--enc-layers ENC_LAYERS] [--dec-layers DEC_LAYERS]
                    [--d-ff D_FF] [--lr LR] [--epochs EPOCHS]
                    [--batch-size BATCH_SIZE]
                    [--max-summary-tokens MAX_SUMMARY_TOKENS] [--block BLOCK]
                    [--stride STRIDE] [--global GLOBAL] [--radius RADIUS]
                    [--max-input MAX_INPUT]

options:
  -h, --help            show this help message and exit
  --approach {single,section-wise,multi-layer}
                        which architecture to run
  --train TRAIN         training corpus file
  --eval EVAL           evaluation corpus file
  --backend {identity,oracle,extractive,tiny-lsg}
                        summarizer filling each model slot (default: tiny-lsg)
  --stage2-backend {identity,oracle,extractive,tiny-lsg}
                        second-stage backend for multi-layer runs (default:
                        tiny-lsg)
  --seed SEED           random seed (required)
  --extract-k EXTRACT_K
                        sentences kept by the extractive backend (default: 3)
  --out-dir OUT_DIR     directory for predictions.json, report.txt,
                        report.json
  --format {table,csv,json}
                        report rendering (default: table)
  --columns COLUMNS     remap corpus columns, e.g.
                        id=encounter_id,dialogue=src,note=tgt
  --d-model D_MODEL     embedding width (default: 64)
  --heads HEADS         attention heads (default: 2)
  --enc-layers ENC_LAYERS
                        encoder layers (default: 2)
  --dec-layers DEC_LAYERS
                        decoder layers (default: 2)
  --d-ff D_FF           feed-forward width (default: 128)
  --lr LR               initial learning rate (default: 5e-05)
  --epochs EPOCHS       training epochs (default: 20)
  --batch-size BATCH_SIZE
                        examples per update (default: 8)
  --max-summary-tokens MAX_SUMMARY_TOKENS
                        decode length cap (default: 128)
  --block BLOCK         local attention block size (default: 16)
  --stride STRIDE       sparse key stride (0 disables) (default: 4)
  --global GLOBAL       number of global tokens (default: 1)
  --radius RADIUS       adjacent-block reach (default: 1)
  --max-input MAX_INPUT
                        source token cap (default: 512)
""",
    "report": """\
usage: chartsum report [-h] --in INFILES [INFILES ...]
                       [--format {table,csv,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --in INFILES [INFILES ...]
                        run reports: report.json or `--format json` output
  --format {table,csv,json}
                        report rendering (default: table)
  --out OUT             output path (default: stdout)
""",
}


def _subcommands() -> set[str]:
    return set(build_parser()._subparsers._group_actions[0].choices)


def test_help_text_is_pinned_for_every_subcommand():
    assert _subcommands() == set(HELP_TEXT) == {
        "split-sections", "train", "predict", "score", "run", "report",
    }


def _readme_section(title: str) -> str:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_cli_commands() -> list[list[str]]:
    """The `chartsum` command lines of the README's CLI code block, as argv lists."""
    block = _readme_section("CLI").split("```sh\n", 1)[1].split("\n```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words:
            assert words[0] == "chartsum", line
            redirect = [i for i, word in enumerate(words) if word in ("<", ">", "|")]
            commands.append(words[1 : redirect[0] if redirect else None])
    return commands


def test_readme_cli_examples_parse_and_name_every_subcommand():
    parser = build_parser()
    commands = _readme_cli_commands()
    for argv in commands:
        parser.parse_args(argv)  # a stale flag or subcommand exits here
    assert {argv[0] for argv in commands} == _subcommands()
    assert "One executable, `chartsum`, with six subcommands." in _readme_section("CLI")


def _readme_defaults() -> list[tuple[str, str]]:
    """(flag, default) for each flag of the README's defaults table, in row order.

    A row may name two flags, as in `--d-model` / `--heads` | 64 / 2.
    """
    pairs = []
    for line in _readme_section("Defaults").splitlines():
        if not line.startswith("| `--"):
            continue
        flags_cell, values_cell = line.split("|")[1:3]
        flags = re.findall(r"`(--[\w-]+)`", flags_cell)
        values = [value.strip() for value in values_cell.split("/")]
        assert len(flags) == len(values), line
        pairs.extend(zip(flags, values))
    return pairs


def test_readme_defaults_table_matches_the_parser():
    run = build_parser()._subparsers._group_actions[0].choices["run"]
    actions = {option: action for action in run._actions for option in action.option_strings}
    defaults = _readme_defaults()
    assert {"--lr", "--d-model", "--heads", "--max-summary-tokens"} <= dict(defaults).keys()
    assert dict(defaults)["--seed"] == "required" and actions["--seed"].required
    for flag, value in defaults:
        if flag != "--seed":
            assert float(value) == actions[flag].default, flag


@pytest.mark.parametrize("command", sorted(HELP_TEXT))
def test_subcommand_help_states_each_default_once(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == HELP_TEXT[command]


# ---------------------------------------------------------------------------
# allocator policy
# ---------------------------------------------------------------------------

# Runs in a fresh interpreter: after one cheap `cli.main` call, counts the minor
# page faults of tiny-lsg training steps at a long input (512 source tokens,
# 125 target tokens, default model and mask).
_FAULT_PROBE = """
import json, resource
from pathlib import Path
from chartsum import cli
from chartsum.tinylsg import LsgConfig, ModelConfig, build_vocab, init_model
from chartsum.tinylsg.model import loss_and_grads

Path("note.txt").write_text("CHIEF COMPLAINT: knee pain\\n")
assert cli.main(["split-sections", "--in", "note.txt", "--out", "sections.txt"]) == 0
words = [f"w{i}" for i in range(512)]
vocab = build_vocab([" ".join(words)])
model = init_model(ModelConfig(), vocab, seed=0)
src, tgt = vocab.encode(" ".join(words)), vocab.encode(" ".join(words[:125]))
for _ in range(2):
    loss_and_grads(model, src, tgt, LsgConfig())
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    loss_and_grads(model, src, tgt, LsgConfig())
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"mallopt": cli._keep_freed_memory(), "faults_per_call": faults / 3}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_cli_main_keeps_freed_memory_for_reuse(tmp_path):
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["mallopt"] == [1, 1]
    # glibc's default policy returns freed temporaries to the kernel and faults
    # them in again: thousands of faults per call.
    assert result["faults_per_call"] < 100, result


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


def test_split_sections_non_utf8_note_is_a_runtime_error(tmp_path, capsys):
    src = tmp_path / "note.txt"
    src.write_bytes(b"CHIEF COMPLAINT\n\n\xff\xfe knee pain\n")
    assert main(["split-sections", "--in", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {src}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 17: "
        "invalid start byte)"
    ]


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
def test_split_sections_non_utf8_note_names_the_offset_in_the_file(tmp_path, capsys, bom):
    data = bom + b"CHIEF COMPLAINT\n\n\xff\xfe knee pain\n"
    src = tmp_path / "note.txt"
    src.write_bytes(data)
    assert main(["split-sections", "--in", str(src)]) == 2
    assert f"byte 0xff in position {data.index(0xff)}: " in capsys.readouterr().err


def test_split_sections_skips_a_leading_byte_order_mark(tmp_path, capsys):
    src = tmp_path / "note.txt"
    src.write_bytes(b"\xef\xbb\xbf" + NOTE.split("\n\n", 1)[1].encode())
    assert main(["split-sections", "--in", str(src)]) == 0
    assert capsys.readouterr().out.startswith("== CC (CHIEF COMPLAINT)\nknee pain")


def _stdin(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin in UTF-8 mode, which decodes with surrogateescape."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")


def test_split_sections_non_utf8_stdin_is_a_runtime_error(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(b"CHIEF COMPLAINT\n\xff\xfe knee\n"))
    assert main(["split-sections"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: <stdin>: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 16: "
        "invalid start byte)"
    ]


def test_split_sections_skips_a_leading_byte_order_mark_on_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(b"\xef\xbb\xbf" + NOTE.encode()))
    assert main(["split-sections"]) == 0
    assert capsys.readouterr().out.startswith("== PREAMBLE\nseen today")


def test_split_sections_json_format_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", _stdin(NOTE.encode()))
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
    assert set(payload) == {"rouge1", "rouge2", "rougeL", "per_document"}
    assert payload["rouge1"] == {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    assert len(payload["per_document"]) == 6
    for doc in payload["per_document"].values():
        assert doc == {m: {"precision": 1.0, "recall": 1.0, "f1": 1.0}
                       for m in ("rouge1", "rouge2", "rougeL")}


def test_score_tells_a_prediction_file_by_its_content(tmp_path, eval_csv, capsys):
    preds = tmp_path / "preds.out"
    entries = {e.id: e.note for e in load_corpus(eval_csv)}
    preds.write_text(json.dumps({"approach": "single", "config_hash": "", "seed": 0,
                                 "entries": entries}))
    assert main(["score", "--candidates", str(preds), "--references", eval_csv,
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "AGGREGATE,1.0000,1.0000,1.0000"


ONE_ROW = b'{"id": "e1", "dialogue": "hello there", "note": "note text here", "entries": {}}\n'
# Inputs whose kind a whole-file sniff once got wrong, and the line `score` gives for
# each as candidates against ONE_ROW (None: it scores).
KIND_VERDICTS = {
    "truncated-prediction-file": (
        "trunc.out", b'{\n  "approach": "single",\n  "entries": {"e1": "no',
        "not a valid prediction file (Unterminated string"),
    "object-without-entries": (
        "noentries.out", b'{"approach": "single", "seed": 0, "config_hash": ""}\n',
        "missing key 'entries'"),
    "jsonl-row-holding-entries": ("one.jsonl", ONE_ROW, None),
}


@pytest.mark.parametrize("name, data, error", KIND_VERDICTS.values(), ids=KIND_VERDICTS.keys())
def test_score_reads_each_input_as_the_kind_rule_says(tmp_path, capsys, name, data, error):
    references = tmp_path / "refs.jsonl"
    references.write_bytes(ONE_ROW)
    candidates = tmp_path / name
    candidates.write_bytes(data)
    code = main(["score", "--candidates", str(candidates), "--references", str(references),
                 "--format", "csv"])
    out, err = capsys.readouterr()
    if error is None:
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "AGGREGATE,1.0000,1.0000,1.0000"
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {candidates}: {error}") and err.count("\n") == 1, err


JSONL_ROWS = ONE_ROW + b'{"id": "e2", "dialogue": "hi again", "note": "more note"}\n'
# Corpora under names that make `score` read them as prediction files, each with the
# reason its one error line gives.
READ_AS_PREDICTIONS = {
    "jsonl-rows-in-txt": ("rows.txt", "it opens with '{' and its name does not end in .jsonl "
                                      "or .ndjson"),
    "csv-corpus-in-json": ("c.json", "its name ends in .json"),
}


@pytest.mark.parametrize("name, reason", READ_AS_PREDICTIONS.values(),
                         ids=READ_AS_PREDICTIONS.keys())
def test_score_says_why_it_read_a_corpus_as_a_prediction_file(tmp_path, capsys, name, reason):
    corpus = tmp_path / name
    if name.endswith(".txt"):
        corpus.write_bytes(JSONL_ROWS)
    else:
        save_corpus(synth_corpus(2), corpus)  # CSV: only .jsonl and .ndjson names are JSONL
        # `run` reads the same file as a corpus.
        assert main(["run", "--approach", "single", "--backend", "oracle", "--seed", "0",
                     "--train", str(corpus), "--eval", str(corpus)]) == 0
        capsys.readouterr()
    references = tmp_path / "refs.jsonl"
    references.write_bytes(JSONL_ROWS)
    for argv in (["--candidates", str(corpus), "--references", str(references)],
                 ["--candidates", str(references), "--references", str(corpus)]):
        assert main(["score", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1, err
        assert err.startswith(f"error: {corpus}: not a valid prediction file ("), err
        assert err.endswith(f") (read as a prediction file because {reason})\n"), err


# Names without a JSON suffix that the other score tests give no prediction file.
@pytest.mark.parametrize("name", ["p.txt", "p.csv", "p"])
def test_score_reads_a_prediction_file_under_a_name_without_a_json_suffix(tmp_path, capsys,
                                                                          name):
    references = tmp_path / "refs.jsonl"
    references.write_bytes(JSONL_ROWS)
    entries = {e.id: e.note for e in load_corpus(references)}
    preds = tmp_path / name
    preds.write_text(predictions_text(PredictionSet(approach="single", entries=entries)),
                     encoding="utf-8")
    assert main(["score", "--candidates", str(preds), "--references", str(references),
                 "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "AGGREGATE,1.0000,1.0000,1.0000"


@pytest.mark.parametrize("side", ["--candidates", "--references"])
def test_score_on_a_corpus_row_without_a_note_fails_with_one_line(tmp_path, capsys, side):
    labeled = tmp_path / "labeled.csv"
    save_corpus(synth_corpus(2), labeled)
    partly = tmp_path / "partly.csv"
    save_corpus(Corpus((synth_corpus(1).encounters[0],
                        replace(synth_corpus(2).encounters[1], note=None))), partly)
    inputs = {"--candidates": str(labeled), "--references": str(labeled), side: str(partly)}
    assert main(["score", *chain.from_iterable(inputs.items())]) == 2
    assert capsys.readouterr() == (
        "", f"error: {partly}: encounter 'synth-001' has no note text to score\n")


# Per name suffix in mixed case, what an input under it holds: the suffix decides the
# format in any case, so each file reads as it does under its lower-case name.
MIXED_CASE_SUFFIXES = {".JSONL": "corpus", ".NdJson": "corpus", ".Csv": "corpus",
                       ".JSON": "prediction file"}


@pytest.mark.parametrize("suffix", MIXED_CASE_SUFFIXES)
def test_run_and_score_read_a_mixed_case_name_as_its_lower_case_form(tmp_path, capsys, suffix):
    train = tmp_path / "train.csv"
    save_corpus(synth_corpus(3), train)
    eval_c = synth_corpus(2, start=3)
    lower = tmp_path / f"eval{suffix.lower()}"
    if MIXED_CASE_SUFFIXES[suffix] == "corpus":
        save_corpus(eval_c, lower)
    else:
        preds = PredictionSet(approach="single", entries={e.id: e.note for e in eval_c})
        lower.write_text(predictions_text(preds), encoding="utf-8")
    mixed = tmp_path / "mixed" / f"eval{suffix}"
    mixed.parent.mkdir()
    mixed.write_bytes(lower.read_bytes())
    results = []
    for path in (lower, mixed):
        run = main(["run", "--seed", "0", "--train", str(train), "--eval", str(path),
                    "--approach", "single", "--backend", "oracle", "--format", "csv"])
        run_out, run_err = capsys.readouterr()
        score = main(["score", "--candidates", str(path), "--references", str(path),
                      "--format", "csv"])
        score_out, score_err = capsys.readouterr()
        results.append((run, run_out, run_err.replace(str(path), "<eval>"),
                        score, score_out, score_err))
    assert results[0] == results[1]
    run, run_out, run_err, score, score_out, score_err = results[1]
    assert (score, score_err) == (0, "")
    assert score_out.splitlines()[-1] == "AGGREGATE,1.0000,1.0000,1.0000"
    if MIXED_CASE_SUFFIXES[suffix] == "corpus":
        assert (run, run_err) == (0, "")
    else:
        # A prediction file is no corpus: `run` reads it as CSV and says why.
        assert (run, run_out) == (2, "")
        assert run_err == ("error: <eval>: missing required column 'id' (read as CSV because "
                           "its name does not end in .jsonl or .ndjson, but it opens with '{')\n")


def test_score_reads_a_corpus_in_no_more_memory_than_loading_it(tmp_path):
    path = tmp_path / "cands.csv"
    save_corpus(synth_corpus(1000), path)
    assert path.stat().st_size > 500_000
    corpus_peak = traced_peak(load_corpus, path)
    candidates_peak = traced_peak(_load_candidates, str(path), None)
    assert candidates_peak <= 1.05 * corpus_peak, (candidates_peak, corpus_peak)


def _with_ids(corpus, ids):
    return Corpus(tuple(replace(e, id=eid) for e, eid in zip(corpus, ids, strict=True)))


def _column_starts(line):
    """Display column where each word starts; 日 and 本 are East Asian Wide, two columns
    each, and the combining acute accent U+0301 takes none."""
    def width(text):
        return len(text) + sum(ch in "日本" for ch in text) - text.count("\u0301")

    return [width(line[:m.start()]) for m in re.finditer(r"\S+", line)]


def test_score_text_columns_start_at_the_header_offsets(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    for ids in (["ab", "encounter-2024-000001-long"], ["日本-3", "enc-é", "ab"],
                ["enc-e\u0301", "ab"]):
        save_corpus(_with_ids(synth_corpus(len(ids)), ids), path)
        assert main(["score", "--candidates", str(path), "--references", str(path)]) == 0
        tables = capsys.readouterr().out.split("\n\n")
        assert [table.split(None, 1)[0] for table in tables] == ["id", "aggregate"]
        for table in tables:
            header, *rows = table.splitlines()
            for row in rows:
                assert _column_starts(row) == _column_starts(header), row
        assert [row.split()[0] for row in tables[0].splitlines()[2:]] == sorted(ids)


def test_score_candidate_without_a_reference_is_a_missing_reference(
        corpus_csv, eval_csv, capsys):
    for fmt in ("text", "csv", "json"):
        assert main(["score", "--candidates", eval_csv, "--references", corpus_csv,
                     "--format", fmt]) == 2
        assert capsys.readouterr() == (
            "", f"error: {corpus_csv}: no reference note for encounter 'synth-006'\n")


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

def _no_training(*args, **kwargs):
    raise AssertionError("a model was trained")


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_non_finite_lr_fails_before_training(
        tmp_path, corpus_csv, capsys, monkeypatch, lr):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    ckpt = tmp_path / "model.json"
    assert main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt), "--seed", "0",
                 *TINY_MODEL_FLAGS, "--lr", lr]) == 1
    assert capsys.readouterr().err == f"error: initial_lr must be finite and >= 0, got {lr}\n"
    assert not ckpt.exists()


def _unwritable_paths(tmp_path):
    """Output paths that cannot be written, with the one error line each gives."""
    (tmp_path / "afile").write_text("taken\n")
    return [
        (tmp_path, f"error: [Errno 21] Is a directory: '{tmp_path}'\n"),
        (tmp_path / "missing" / "x.json",
         f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing' / 'x.json'}'\n"),
        (tmp_path / "afile" / "x.json",
         f"error: [Errno 20] Not a directory: '{tmp_path / 'afile' / 'x.json'}'\n"),
    ]


def test_train_checks_the_checkpoint_path_before_training(
        tmp_path, corpus_csv, capsys, monkeypatch):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    for ckpt, error in _unwritable_paths(tmp_path):
        assert main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt), "--seed", "0",
                     *TINY_MODEL_FLAGS]) == 2
        # No "vocabulary ..." or epoch line: the error is the only output.
        assert capsys.readouterr() == ("", error)


def test_train_on_a_corpus_without_reference_notes_fails_before_training(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    unlabeled = tmp_path / "train.jsonl"
    save_corpus(Corpus(tuple(replace(e, note=None) for e in synth_corpus(3))), unlabeled)
    ckpt = tmp_path / "model.json"
    assert main(["train", "--train", str(unlabeled), "--checkpoint", str(ckpt), "--seed", "0",
                 *TINY_MODEL_FLAGS]) == 2
    assert capsys.readouterr() == ("", f"error: {unlabeled}: no encounters with reference notes\n")
    assert not ckpt.exists()


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
                 "--out", str(preds_path)])
    assert code == 0
    preds = load_predictions(preds_path)
    assert preds.approach == "single"
    assert sorted(preds.entries) == [f"synth-00{i}" for i in (6, 7, 8)]

    # without --out the same prediction file goes to stdout, and score reads it
    code = main(["predict", "--checkpoint", str(ckpt), "--eval", eval_csv])
    assert code == 0
    stdout_path = tmp_path / "stdout.json"
    stdout_path.write_bytes(capsys.readouterr().out.encode("utf-8"))
    assert stdout_path.read_bytes() == preds_path.read_bytes()
    assert main(["score", "--candidates", str(stdout_path), "--references", eval_csv]) == 0


def test_train_then_predict_matches_run_single(tmp_path, corpus_csv, eval_csv, capsys):
    ckpt, preds = tmp_path / "model.json", tmp_path / "preds.json"
    assert main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt),
                 "--seed", "3", *TINY_MODEL_FLAGS]) == 0
    assert re.match(r"vocabulary \d+ tokens, \d+ parameters\n", capsys.readouterr().err)
    assert main(["predict", "--checkpoint", str(ckpt), "--eval", eval_csv,
                 "--out", str(preds)]) == 0
    assert main(["run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
                 "--seed", "3", "--out-dir", str(tmp_path / "run"), *TINY_MODEL_FLAGS]) == 0
    run_preds = load_predictions(tmp_path / "run" / "predictions.json")
    assert load_predictions(preds).entries == run_preds.entries


@pytest.fixture
def trained_checkpoint(tmp_path, corpus_csv):
    ckpt = tmp_path / "model.json"
    assert main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt),
                 "--seed", "0", *TINY_MODEL_FLAGS]) == 0
    return ckpt


def _predict(ckpt, eval_csv, out, *flags):
    return main(["predict", "--checkpoint", str(ckpt), "--eval", eval_csv, "--out", str(out),
                 *flags])


def test_train_records_mask_and_cap_in_checkpoint(trained_checkpoint, tmp_path, corpus_csv):
    payload = json.loads(trained_checkpoint.read_text())
    assert payload["format_version"] == 3
    assert payload["lsg"] == {"block_size": 4, "sparsity_stride": 2, "num_global": 1,
                              "max_input_tokens": 64, "local_radius": 1}
    assert payload["max_summary_tokens"] == 8
    # --global and --radius away from their defaults, and another decode cap.
    ckpt = tmp_path / "other.json"
    assert main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt), "--seed", "0",
                 *TINY_MODEL_FLAGS, "--global", "3", "--radius", "2",
                 "--max-summary-tokens", "9"]) == 0
    payload = json.loads(ckpt.read_text())
    assert payload["lsg"] == {"block_size": 4, "sparsity_stride": 2, "num_global": 3,
                              "max_input_tokens": 64, "local_radius": 2}
    assert payload["max_summary_tokens"] == 9


def test_predict_takes_mask_and_cap_from_checkpoint(tmp_path, trained_checkpoint, eval_csv):
    out = tmp_path / "preds.json"
    assert _predict(trained_checkpoint, eval_csv, out) == 0
    # What TINY_MODEL_FLAGS trained with; all but --global and --radius differ from the defaults.
    lsg = LsgConfig(block_size=4, sparsity_stride=2, max_input_tokens=64)
    summarizer = TinyLsgSummarizer(load_checkpoint(trained_checkpoint).model, lsg, 8)
    expected = {e.id: summarizer.summarize(e.dialogue) for e in load_corpus(eval_csv)}
    assert load_predictions(out).entries == expected


def test_predict_hashes_its_config_by_the_rule_run_uses(tmp_path, trained_checkpoint, eval_csv):
    out = tmp_path / "preds.json"
    assert _predict(trained_checkpoint, eval_csv, out) == 0
    checkpoint = load_checkpoint(trained_checkpoint)
    predict_config = {
        "checkpoint_sha256": hashlib.sha256(trained_checkpoint.read_bytes()).hexdigest(),
        "lsg": asdict(checkpoint.lsg),
        "max_summary_tokens": checkpoint.max_summary_tokens,
    }
    canonical = json.dumps(predict_config, sort_keys=True, separators=(",", ":"))
    assert load_predictions(out).config_hash == config_hash(predict_config) == (
        hashlib.sha256(canonical.encode("utf-8")).hexdigest())


def test_predict_reads_its_checkpoint_once(tmp_path, trained_checkpoint, eval_csv, monkeypatch):
    data = trained_checkpoint.read_bytes()
    reads = []
    read_bytes = Path.read_bytes

    def counted(self):
        if self == trained_checkpoint:
            reads.append(self)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counted)
    out = tmp_path / "preds.json"
    assert _predict(trained_checkpoint, eval_csv, out) == 0
    assert len(reads) == 1
    monkeypatch.undo()
    # The bytes are those of the prediction file built from the checkpoint's own digest.
    checkpoint = load_checkpoint(trained_checkpoint)
    assert checkpoint.sha256 == hashlib.sha256(data).hexdigest()
    summarizer = TinyLsgSummarizer(checkpoint.model, checkpoint.lsg, checkpoint.max_summary_tokens)
    predict_config = {
        "checkpoint_sha256": checkpoint.sha256,
        "lsg": asdict(checkpoint.lsg),
        "max_summary_tokens": checkpoint.max_summary_tokens,
    }
    expected = PredictionSet(
        approach="single",
        entries={e.id: summarizer.summarize(e.dialogue) for e in load_corpus(eval_csv)},
        config_hash=config_hash(predict_config),
    )
    assert out.read_bytes() == predictions_text(expected).encode("utf-8")


def _no_summary(*args, **kwargs):
    raise AssertionError("a summary was made")


def test_predict_checks_the_out_path_before_summarizing(
        tmp_path, trained_checkpoint, eval_csv, capsys, monkeypatch):
    monkeypatch.setattr(TinyLsgSummarizer, "summarize", _no_summary)
    capsys.readouterr()
    for out, error in _unwritable_paths(tmp_path):
        assert _predict(trained_checkpoint, eval_csv, out) == 2
        assert capsys.readouterr() == ("", error)


# Each given with the value the checkpoint records.
@pytest.mark.parametrize("flag, value", [
    ("--block", "4"), ("--stride", "2"), ("--global", "1"), ("--radius", "1"),
    ("--max-input", "64"), ("--max-summary-tokens", "8"),
])
def test_predict_takes_no_checkpoint_setting_flags(
        tmp_path, trained_checkpoint, eval_csv, capsys, flag, value):
    out = tmp_path / "preds.json"
    capsys.readouterr()
    assert _predict(trained_checkpoint, eval_csv, out, flag, value) == 1
    assert capsys.readouterr().err.splitlines() == [
        "usage: chartsum [-h] command ...",
        f"chartsum: error: unrecognized arguments: {flag} {value}",
    ]
    assert not out.exists()


def test_predict_version_1_checkpoint_is_a_runtime_error(
        tmp_path, trained_checkpoint, eval_csv, capsys):
    payload = json.loads(trained_checkpoint.read_text())
    del payload["lsg"], payload["max_summary_tokens"]
    payload["format_version"] = 1
    trained_checkpoint.write_text(json.dumps(payload))
    out = tmp_path / "preds.json"
    capsys.readouterr()
    assert _predict(trained_checkpoint, eval_csv, out) == 2
    assert capsys.readouterr().err == (
        f"error: {trained_checkpoint}: unsupported format version 1; "
        "retrain with `chartsum train` to write version 3\n"
    )
    assert not out.exists()


def test_predict_malformed_checkpoint_settings_is_a_runtime_error(
        tmp_path, trained_checkpoint, eval_csv, capsys):
    payload = json.loads(trained_checkpoint.read_text())
    payload["lsg"]["block_size"] = "4"
    trained_checkpoint.write_text(json.dumps(payload))
    assert _predict(trained_checkpoint, eval_csv, tmp_path / "preds.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {trained_checkpoint}: lsg must be") and err.count("\n") == 1


@pytest.mark.parametrize("name, value", [("out.w", "nan"), ("tok_emb", "inf")])
def test_predict_non_finite_checkpoint_parameter_is_a_runtime_error(
        tmp_path, trained_checkpoint, eval_csv, capsys, name, value):
    payload = json.loads(trained_checkpoint.read_text())
    model = load_checkpoint(trained_checkpoint).model
    model.params[name].flat[-1] = float(value)
    payload["weights"] = base64.b64encode(model.flat.astype("<f8").tobytes()).decode("ascii")
    trained_checkpoint.write_text(json.dumps(payload))
    out = tmp_path / "preds.json"
    capsys.readouterr()
    assert _predict(trained_checkpoint, eval_csv, out) == 2
    err = capsys.readouterr().err
    assert err == f"error: {trained_checkpoint}: parameter {name!r} holds a non-finite value\n"
    assert not out.exists()


# One Adam step at lr 1e300 leaves finite weights near 1e300; a forward pass
# through them overflows.
OVERFLOW_FLAGS = [*TINY_MODEL_FLAGS, "--lr", "1e300", "--batch-size", "8"]


def test_train_refuses_to_write_a_checkpoint_that_cannot_decode(tmp_path, corpus_csv, capsys):
    ckpt = tmp_path / "model.json"
    assert main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt), "--seed", "0",
                 *OVERFLOW_FLAGS]) == 2
    *log, error = capsys.readouterr().err.splitlines()
    assert [line.split()[0] for line in log] == ["vocabulary", "epoch"]
    assert re.fullmatch(r"error: trained model cannot decode \(decoding failed: "
                        r"(overflow|invalid value) encountered in \w+; the model's weights "
                        r"are out of range\); try a lower --lr", error), error
    assert not ckpt.exists()


def test_overflowing_weights_fail_decoding_with_one_error_line(
        tmp_path, corpus_csv, eval_csv, capsys):
    # `train` refuses to write such weights, so the library writes them.
    args = build_parser().parse_args(["train", "--train", corpus_csv, "--checkpoint", "-",
                                      "--seed", "0", *OVERFLOW_FLAGS])
    backend = _backend_from_args(args)
    pairs = [(e.dialogue, e.note) for e in load_corpus(corpus_csv).labeled()]
    trained, _ = train_tiny_lsg(backend, pairs, 0)
    ckpt, out = tmp_path / "model.json", tmp_path / "preds.json"
    save_model(trained, ckpt, backend.lsg, backend.max_summary_tokens)
    assert _predict(ckpt, eval_csv, out) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: decoding failed: (overflow|invalid value) encountered in \w+; "
                        r"the model's weights are out of range\n", err), err
    assert not out.exists()
    assert main(["run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
                 "--seed", "0", *OVERFLOW_FLAGS]) == 2
    assert capsys.readouterr().err == err


def test_overflowing_training_step_fails_with_one_error_line(tmp_path, corpus_csv, capsys):
    # The first of three steps leaves weights near 1e300; the second overflows.
    ckpt = tmp_path / "model.json"
    assert main(["train", "--train", corpus_csv, "--checkpoint", str(ckpt), "--seed", "0",
                 *TINY_MODEL_FLAGS, "--lr", "1e300", "--batch-size", "2"]) == 2
    log, error = capsys.readouterr().err.splitlines()
    assert log.startswith("vocabulary ")
    assert re.fullmatch(r"error: training diverged at epoch 1: "
                        r"(overflow|invalid value) encountered in \w+", error), error
    assert not ckpt.exists()


# ---------------------------------------------------------------------------
# run / report
# ---------------------------------------------------------------------------

def test_run_out_dir_naming_a_file_fails_before_training(
        tmp_path, corpus_csv, eval_csv, capsys, monkeypatch):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    out_dir = tmp_path / "taken"
    out_dir.write_text("a file\n")
    assert main(["run", "--approach", "section-wise", "--train", corpus_csv, "--eval", eval_csv,
                 "--seed", "0", "--out-dir", str(out_dir), *TINY_MODEL_FLAGS]) == 2
    assert capsys.readouterr() == ("", f"error: [Errno 17] File exists: '{out_dir}'\n")
    assert out_dir.read_text() == "a file\n"


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


def test_report_accumulates_repeated_in_flags(tmp_path, corpus_csv, eval_csv, capsys):
    paths = []
    for approach in ("single", "section-wise", "multi-layer"):
        out_dir = tmp_path / approach
        assert main([
            "run", "--approach", approach, "--train", corpus_csv, "--eval", eval_csv,
            "--backend", "oracle", "--stage2-backend", "identity", "--seed", "0",
            "--out-dir", str(out_dir),
        ]) == 0
        paths.append(str(out_dir / "report.json"))
    capsys.readouterr()
    assert main(["report", "--in", paths[0], "--in", paths[1], paths[2], "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["single", "section-wise", "multi-layer"]


def test_report_reads_a_saved_negative_seed(tmp_path, corpus_csv, eval_csv, capsys):
    """Older runs could record a seed below 0; their reports still render."""
    out_dir = tmp_path / "run"
    assert main(["run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
                 "--backend", "oracle", "--seed", "3", "--out-dir", str(out_dir)]) == 0
    path = out_dir / "report.json"
    path.write_text(path.read_text().replace('"seed": 3', '"seed": -3'))
    capsys.readouterr()
    assert main(["report", "--in", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["seed"] == -3


def test_run_writes_a_non_ascii_id_as_utf8_in_every_json_output(tmp_path, corpus_csv, capsys):
    evaluation = tmp_path / "eval.csv"
    save_corpus(_with_ids(synth_corpus(2, start=6), ["enc-é", "synth-007"]), evaluation)
    out_dir = tmp_path / "run"
    assert main(["run", "--approach", "single", "--train", corpus_csv, "--eval",
                 str(evaluation), "--backend", "extractive", "--seed", "0",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    outputs = {name: (out_dir / name).read_bytes() for name in ("predictions.json", "report.json")}
    assert main(["report", "--in", str(out_dir / "report.json"), "--format", "json"]) == 0
    outputs["report"] = capsys.readouterr().out.encode()
    assert main(["score", "--candidates", str(out_dir / "predictions.json"),
                 "--references", str(evaluation), "--format", "json"]) == 0
    outputs["score"] = capsys.readouterr().out.encode()
    for name, data in outputs.items():
        assert '"enc-é"'.encode() in data and b"\\u" not in data, name


@pytest.mark.parametrize("fmt, forms", [
    ("table", ["json", "table"]),
    ("csv", ["csv", "json", "table"]),
    ("json", ["json", "table"]),
])
def test_run_renders_each_report_form_once(tmp_path, corpus_csv, eval_csv, capsys,
                                           monkeypatch, fmt, forms):
    from chartsum import cli

    original, rendered = cli.report, []

    def counting_report(runs, format="table"):
        rendered.append(format)
        return original(runs, format=format)

    monkeypatch.setattr(cli, "report", counting_report)
    out_dir = tmp_path / "run"
    assert _run_extractive(corpus_csv, eval_csv, out_dir, "--format", fmt) == 0
    assert sorted(rendered) == forms
    stdout = capsys.readouterr().out
    if fmt != "csv":
        name = {"table": "report.txt", "json": "report.json"}[fmt]
        assert stdout == (out_dir / name).read_text(encoding="utf-8")


def _run_extractive(corpus_csv, eval_csv, out_dir, *flags) -> int:
    return main([
        "run", "--approach", "section-wise", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "extractive", "--seed", "0", "--out-dir", str(out_dir), *flags,
    ])


def test_run_json_stdout_is_the_report_json_it_writes(tmp_path, corpus_csv, eval_csv, capsys):
    assert _run_extractive(corpus_csv, eval_csv, tmp_path / "run", "--format", "json") == 0
    assert capsys.readouterr().out == (tmp_path / "run" / "report.json").read_text()


def test_report_reads_its_own_json_output(tmp_path, corpus_csv, eval_csv, capsys):
    assert _run_extractive(corpus_csv, eval_csv, tmp_path / "run") == 0
    r1, r2 = tmp_path / "run" / "report.json", tmp_path / "r2.json"
    assert main(["report", "--in", str(r1), "--format", "json", "--out", str(r2)]) == 0
    assert r2.read_text() == r1.read_text()
    capsys.readouterr()
    tables = []
    for path in (r1, r2):
        assert main(["report", "--in", str(path)]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1] and "section-wise" in tables[0]


def test_score_json_is_the_scores_of_report_json(tmp_path, corpus_csv, eval_csv, capsys):
    out_dir = tmp_path / "run"
    assert _run_extractive(corpus_csv, eval_csv, out_dir) == 0
    capsys.readouterr()
    assert main([
        "score", "--candidates", str(out_dir / "predictions.json"), "--references", eval_csv,
        "--format", "json",
    ]) == 0
    scores = json.loads(capsys.readouterr().out)
    assert scores == json.loads((out_dir / "report.json").read_text())[0]["scores"]
    assert 0.0 < scores["rouge1"]["f1"] < 1.0


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


_DEPTH = 200_000


@pytest.mark.parametrize("nested", [
    "[" * _DEPTH + "]" * _DEPTH,
    '{"a": ' * _DEPTH + "0" + "}" * _DEPTH,
], ids=["array", "object"])
@pytest.mark.parametrize("command, name", [
    ("report", "report.json"),
    ("score", "preds.json"),
    ("score", "corpus.jsonl"),
    ("predict", "model.json"),
])
def test_too_deeply_nested_json_is_a_runtime_error(
        tmp_path, eval_csv, capsys, command, name, nested):
    deep = tmp_path / name
    deep.write_text(nested + "\n")
    argv = {
        "report": ["report", "--in", deep],
        "score": ["score", "--candidates", deep, "--references", eval_csv],
        "predict": ["predict", "--checkpoint", deep, "--eval", eval_csv],
    }[command]
    assert main([str(arg) for arg in argv]) == 2
    _assert_one_line_error(capsys.readouterr().err, f"{deep}: ", "maximum recursion depth")


@pytest.mark.parametrize("number", ["Infinity", "-Infinity", "NaN", "1e400"])
def test_report_with_a_non_finite_number_is_a_runtime_error(
        tmp_path, corpus_csv, eval_csv, capsys, number):
    out_dir = tmp_path / "run"
    assert main([
        "run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "oracle", "--seed", "0", "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    path = out_dir / "report.json"
    payload = json.loads(path.read_text())
    payload[0]["division_average"] = 0.123456789
    path.write_text(json.dumps(payload).replace("0.123456789", number))
    assert main(["report", "--in", str(path)]) == 2
    _assert_one_line_error(capsys.readouterr().err,
                           f"{path}: run 0: 'division_average' must be a finite number")


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
    (_set("rougeL_f1", "division_metric"),
     "'division_metric' must be 'rouge1_f1', got 'rougeL_f1'"),
    *(
        (_set(value, *keys), f"'{'.'.join(keys)}' must be a score in [0, 1], got {value}")
        for value in (1e30, 7.5, -0.5)
        for keys in (("division_average",),
                     ("scores", "per_document", "synth-006", "rouge1", "f1"))
    ),
    # Fields no run can write: the oracle run scores 3 documents, each division F1 1.0.
    (_set("ensemble", "approach"),
     "'approach' must be one of 'single', 'section-wise', 'multi-layer', got 'ensemble'"),
    (_set(0, "n_documents"), "'n_documents' must be >= 1, got 0"),
    (_set(4, "n_documents"), "'n_documents' is 4, but 'scores.per_document' has 3 entries"),
    (_set(-2, "skipped_divisions"), "'skipped_divisions' must be >= 0, got -2"),
    (_set(13, "skipped_divisions"),
     "'skipped_divisions' must be at most 4 per document (12), got 13"),
    (_set(-1, "unknown_sections"), "'unknown_sections' must be >= 0, got -1"),
    (_set(0.9, "division_average"),
     "'division_average' must be the mean of 'division_f1', 1.0, got 0.9"),
    (_set(0.5, "division_f1", "Exam"),
     "'division_average' must be the mean of 'division_f1', 0.875, got 1.0"),
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


@pytest.mark.parametrize("format, data, fragment", MALFORMED_CORPORA.values(),
                         ids=MALFORMED_CORPORA)
@pytest.mark.parametrize("command", ["run", "score"])
def test_malformed_corpus_error_names_its_file(tmp_path, corpus_csv, capsys, command,
                                               format, data, fragment):
    # `run` and `score` each read two corpora: the error must say which one is bad.
    bad = tmp_path / f"eval.{format}"
    bad.write_bytes(data)
    argv = {
        "run": ["run", "--approach", "single", "--train", corpus_csv, "--eval", str(bad),
                "--backend", "oracle", "--seed", "0"],
        "score": ["score", "--candidates", corpus_csv, "--references", str(bad)],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {bad}: {fragment}")
    _assert_one_line_error(err)


@pytest.mark.parametrize("name, text, message", [
    ("eval.csv", "id,dialogue,note\n1,hi,n\n", "missing required column 'summary'"),
    ("eval.jsonl", '{"id": "1", "dialogue": "hi", "note": "n"}\n',
     "no row holds the required column 'summary'"),
], ids=["csv", "jsonl"])
@pytest.mark.parametrize("command", ["train", "run", "score"])
def test_explicit_note_column_missing_from_the_file_is_a_runtime_error(
        tmp_path, corpus_csv, capsys, monkeypatch, command, name, text, message):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    bad = tmp_path / name
    bad.write_text(text)
    argv = {
        "train": ["train", "--train", str(bad), "--checkpoint", str(tmp_path / "m.json"),
                  "--seed", "0"],
        "run": ["run", "--approach", "single", "--train", str(bad), "--eval", str(bad),
                "--seed", "0"],
        "score": ["score", "--candidates", str(bad), "--references", str(bad)],
    }[command]
    assert main([*argv, "--columns", "note=summary"]) == 2
    assert capsys.readouterr() == ("", f"error: {bad}: {message}\n")


def test_run_bad_extract_k_fails_before_training(corpus_csv, eval_csv, capsys, monkeypatch):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    assert main([
        "run", "--approach", "multi-layer", "--stage2-backend", "extractive", "--extract-k", "0",
        "--train", corpus_csv, "--eval", eval_csv, "--seed", "0", *TINY_MODEL_FLAGS,
    ]) == 1
    assert capsys.readouterr().err == "error: extract_k must be >= 1, got 0\n"


def test_run_eval_without_notes_fails_before_training(tmp_path, corpus_csv, capsys, monkeypatch):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    unlabeled = tmp_path / "eval.jsonl"
    unlabeled.write_text("".join(
        json.dumps({"id": e.id, "dialogue": e.dialogue}) + "\n" for e in synth_corpus(3, start=6)
    ))
    assert main([
        "run", "--approach", "section-wise", "--train", corpus_csv, "--eval", str(unlabeled),
        "--seed", "0", *TINY_MODEL_FLAGS,
    ]) == 2
    assert capsys.readouterr().err == (
        f"error: {unlabeled}: no reference note for encounter 'synth-006'\n")


def test_run_empty_eval_corpus_fails_before_training(tmp_path, corpus_csv, capsys, monkeypatch):
    monkeypatch.setattr("chartsum.pipeline.train", _no_training)
    empty = tmp_path / "eval.csv"
    empty.write_text("id,dialogue,note\n")
    assert main([
        "run", "--approach", "section-wise", "--train", corpus_csv, "--eval", str(empty),
        "--seed", "0", *TINY_MODEL_FLAGS,
    ]) == 2
    assert capsys.readouterr().err == "error: no candidate/reference pairs to score\n"


def test_run_csv_format_to_stdout(corpus_csv, eval_csv, capsys):
    assert main([
        "run", "--approach", "single", "--train", corpus_csv, "--eval", eval_csv,
        "--backend", "identity", "--seed", "0", "--format", "csv",
    ]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].startswith("approach,rouge1")
    assert rows[1].startswith("single,")
