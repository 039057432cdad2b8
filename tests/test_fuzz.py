"""Mutation fuzzing of every file the package reads.

Each test starts from a valid file: a corpus in CSV and in JSONL, a
checkpoint, a prediction file, a report file and a chart note (read from a
file and from stdin). Hypothesis edits it at the byte level (flip, delete,
insert) or, for JSON, replaces or deletes one value of the parsed document (a
replacement may be an array nested far past the interpreter's recursion
limit), and feeds the result to the command that reads such a file. The
command must succeed, or fail with exit code 2 (a malformed input file) and
one `error:` line on stderr; it must never raise.

The examples are derandomized, so a run is repeatable.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartsum.cli import main
from chartsum.corpus import save_corpus
from chartsum.tinylsg import LsgConfig, ModelConfig, build_vocab, init_model, save_model
from synthdata import synth_corpus

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

# Byte strings that often turn a valid file into a subtly malformed one.
_SPLICES = [b'"', b",", b"\n", b"\r", b"\x00", b"{", b"}", b"[", b"]", b":", b"->",
            b"null", b"true", b"-1", b"0", b"1e999", b"NaN", b"\xff", b"\xc3"]

_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=True)
    | st.text(max_size=8)
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# An array nested too deeply to parse recursively; json_mutations splices it
# into the serialized text in place of _DEEP_MARK.
_DEEP = "[" * 100_000 + "]" * 100_000
_DEEP_MARK = "\x00deep\x00"


@st.composite
def byte_mutations(draw, data: bytes) -> bytes:
    """`data` after one to four byte-level edits."""
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(out)))
        edit = draw(st.sampled_from(("replace", "delete", "insert", "truncate")))
        if edit == "replace" and pos < len(out):
            out[pos] = draw(st.integers(0, 255))
        elif edit == "delete":
            del out[pos : pos + draw(st.integers(1, 32))]
        elif edit == "insert":
            out[pos:pos] = draw(st.sampled_from(_SPLICES) | st.binary(min_size=1, max_size=8))
        else:
            del out[pos:]
    return bytes(out)


def _slots(doc, found):
    """Every (container, key) pair of a parsed JSON document, depth first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found.append((doc, key))
        _slots(value, found)
    return found


@st.composite
def json_mutations(draw, payload) -> bytes:
    """`payload` with one value replaced, nested too deeply, or deleted, serialized."""
    doc = copy.deepcopy(payload)
    slots = _slots(doc, [])
    if not slots:
        return json.dumps(draw(_JSON_VALUES)).encode()
    container, key = draw(st.sampled_from(slots))
    edit = draw(st.sampled_from(("replace", "nest", "delete")))
    if edit == "replace":
        container[key] = draw(_JSON_VALUES)
    elif edit == "nest":
        container[key] = _DEEP_MARK
    else:
        del container[key]
    return json.dumps(doc).replace(json.dumps(_DEEP_MARK), _DEEP).encode()


@st.composite
def jsonl_mutations(draw, data: bytes) -> bytes:
    """One line of a JSONL file mutated as a JSON document."""
    lines = data.decode("utf-8").splitlines()
    index = draw(st.integers(0, len(lines) - 1))
    lines[index] = draw(json_mutations(json.loads(lines[index]))).decode("utf-8")
    return ("\n".join(lines) + "\n").encode("utf-8")


def mutations(data: bytes, structured=None):
    """Byte-level edits of `data`, or the structure-aware edits given."""
    return byte_mutations(data) if structured is None else byte_mutations(data) | structured


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Paths of one valid file of each kind, and of the eval corpus they pair with."""
    root = tmp_path_factory.mktemp("valid")
    corpus = synth_corpus(3)
    paths = {
        "csv": root / "corpus.csv",
        "jsonl": root / "corpus.jsonl",
        "checkpoint": root / "model.json",
        "note": root / "note.txt",
        "out": root / "out",
    }
    save_corpus(corpus, paths["csv"])
    paths["note"].write_text(corpus.encounters[0].note, encoding="utf-8")
    save_corpus(corpus, paths["jsonl"])
    vocab = build_vocab([text for e in corpus for text in (e.dialogue, e.note)])
    cfg = ModelConfig(d_model=8, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=16)
    lsg = LsgConfig(block_size=4, sparsity_stride=2, max_input_tokens=48)
    save_model(init_model(cfg, vocab, seed=0, init_scale=0.5), paths["checkpoint"], lsg, 4)
    _run(["run", "--approach", "section-wise", "--backend", "extractive",
          "--train", str(paths["csv"]), "--eval", str(paths["csv"]), "--seed", "0",
          "--out-dir", str(paths["out"])])
    paths["predictions"] = paths["out"] / "predictions.json"
    paths["report"] = paths["out"] / "report.json"
    return paths


def _run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, err.getvalue()


def assert_fails_cleanly(argv) -> int:
    """main(argv) returns 0, or 2 with exactly one `error:` line on stderr; returns the code."""
    code, err = _run(argv)
    if code != 0:
        assert code == 2, (code, err)
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
    return code


def _fuzz_file(tmp_dir, name: str, data: bytes):
    path = tmp_dir / name
    path.write_bytes(data)
    return path


def _corpus_argv(path):
    return ["run", "--approach", "section-wise", "--backend", "extractive",
            "--train", path, "--eval", path, "--seed", "0"]


@FUZZ
@given(data=st.data())
def test_fuzz_corpus_csv(valid, data):
    mutated = data.draw(mutations(valid["csv"].read_bytes()))
    assert_fails_cleanly(_corpus_argv(_fuzz_file(valid["out"], "fuzz.csv", mutated)))


@FUZZ
@given(data=st.data())
def test_fuzz_corpus_jsonl(valid, data):
    original = valid["jsonl"].read_bytes()
    mutated = data.draw(mutations(original, jsonl_mutations(original)))
    assert_fails_cleanly(_corpus_argv(_fuzz_file(valid["out"], "fuzz.jsonl", mutated)))


@FUZZ
@given(data=st.data())
def test_fuzz_checkpoint(valid, data):
    original = valid["checkpoint"].read_bytes()
    mutated = data.draw(mutations(original, json_mutations(json.loads(original))))
    path = _fuzz_file(valid["out"], "fuzz-model.json", mutated)
    assert_fails_cleanly(["predict", "--checkpoint", path, "--eval", valid["csv"]])


@FUZZ
@given(data=st.data())
def test_fuzz_predictions(valid, data):
    original = valid["predictions"].read_bytes()
    mutated = data.draw(mutations(original, json_mutations(json.loads(original))))
    path = _fuzz_file(valid["out"], "fuzz-predictions.json", mutated)
    assert_fails_cleanly(["score", "--candidates", path, "--references", valid["csv"]])


@FUZZ
@given(data=st.data())
def test_fuzz_report(valid, data):
    original = valid["report"].read_bytes()
    mutated = data.draw(mutations(original, json_mutations(json.loads(original))))
    path = _fuzz_file(valid["out"], "fuzz-report.json", mutated)
    assert_fails_cleanly(["report", "--in", path])


@FUZZ
@given(data=st.data())
def test_fuzz_note(valid, data):
    mutated = data.draw(mutations(valid["note"].read_bytes()))
    path = _fuzz_file(valid["out"], "fuzz-note.txt", mutated)
    from_file = assert_fails_cleanly(["split-sections", "--in", path])
    # the same bytes on stdin, as sys.stdin in UTF-8 mode would carry them
    stdin = io.TextIOWrapper(io.BytesIO(mutated), encoding="utf-8", errors="surrogateescape")
    with mock.patch("sys.stdin", stdin):
        assert assert_fails_cleanly(["split-sections"]) == from_file
