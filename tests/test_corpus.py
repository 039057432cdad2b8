"""Corpus ingestion, splitting, and prediction-file round-trip tests."""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartsum.corpus import (
    Encounter,
    MalformedFile,
    PredictionSet,
    decode_utf8,
    json_text,
    load_corpus,
    load_predictions,
    prediction_file_reason,
    read_json,
    save_corpus,
    save_predictions,
    split_corpus,
)
from peakmem import traced_peak
from synthdata import synth_corpus


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def test_load_csv_basic(tmp_path):
    p = write(
        tmp_path / "c.csv",
        'id,dialogue,note\ne1,"hi there","CC\n\nfine\n"\ne2,"hello",\n',
    )
    corpus = load_corpus(p)
    assert len(corpus) == 2
    assert corpus.ids() == ["e1", "e2"]
    assert corpus.encounters[0].note == "CC\n\nfine\n"
    assert corpus.encounters[1].note is None
    assert [e.id for e in corpus.labeled()] == ["e1"]


def test_load_csv_note_column_optional(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,hi\n")
    corpus = load_corpus(p)
    assert corpus.encounters[0].note is None


def test_load_csv_missing_required_column(tmp_path):
    p = write(tmp_path / "c.csv", "id,note\ne1,whatever\n")
    with pytest.raises(MalformedFile, match="missing required column 'dialogue'"):
        load_corpus(p)


def test_load_csv_duplicate_id(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,hi\ne1,again\n")
    with pytest.raises(MalformedFile, match="row 2: duplicate encounter id 'e1'"):
        load_corpus(p)


def test_load_csv_empty_dialogue(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,   \n")
    with pytest.raises(MalformedFile, match="row 1: dialogue is empty"):
        load_corpus(p)


def test_load_csv_empty_file(tmp_path):
    p = write(tmp_path / "c.csv", "")
    with pytest.raises(MalformedFile):
        load_corpus(p)


def test_load_csv_column_remap(tmp_path):
    p = write(
        tmp_path / "c.csv",
        "encounter,transcript,summary\ne1,hi there,note body\n",
    )
    corpus = load_corpus(
        p, columns={"id": "encounter", "dialogue": "transcript", "note": "summary"}
    )
    assert corpus.encounters[0] == Encounter("e1", "hi there", "note body")


def test_load_unknown_canonical_column_rejected(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,hi\n")
    with pytest.raises(ValueError):
        load_corpus(p, columns={"bogus": "id"})


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_load_non_utf8_corpus_is_malformed(tmp_path, format):
    p = tmp_path / f"c.{format}"
    p.write_bytes(b'id,dialogue\ne1,caf\xe9\n' if format == "csv"
                  else b'{"id": "e1", "dialogue": "caf\xe9"}\n')
    with pytest.raises(MalformedFile, match="not UTF-8 text"):
        load_corpus(p)


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
def test_decode_utf8_names_the_offset_in_the_data(bom):
    data = bom + b"id,dialogue,note\n1,ab\xe9c"
    with pytest.raises(MalformedFile, match=f"byte 0xe9 in position {data.index(0xe9)}: "):
        decode_utf8(data, "c.csv")


@pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_load_non_utf8_corpus_names_the_offset_in_the_file(tmp_path, format, bom):
    # Far past the text layer's first read chunk, whose positions it would report.
    rows = range(4000)
    if format == "csv":
        body = b"id,dialogue\n" + b"".join(b"e%d,hello there\n" % i for i in rows)
        body += b"bad,caf\xe9\n"
    else:
        body = b"".join(b'{"id": "e%d", "dialogue": "hello there"}\n' % i for i in rows)
        body += b'{"id": "bad", "dialogue": "caf\xe9"}\n'
    p = tmp_path / f"c.{format}"
    p.write_bytes(bom + body)
    offset = (bom + body).index(0xe9)
    assert offset > 60_000
    with pytest.raises(MalformedFile) as info:
        load_corpus(p)
    assert str(info.value) == (f"{p}: not UTF-8 text ('utf-8' codec can't decode byte 0xe9 "
                               f"in position {offset}: invalid continuation byte)")


@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_load_corpus_skips_a_leading_byte_order_mark(tmp_path, format):
    p = tmp_path / f"c.{format}"
    body = ("id,dialogue,note\ne1,hi,CC\n" if format == "csv"
            else '{"id": "e1", "dialogue": "hi", "note": "CC"}\n')
    p.write_bytes(BOM + body.encode())
    assert load_corpus(p).encounters == (Encounter(id="e1", dialogue="hi", note="CC"),)


def test_read_json_skips_a_leading_byte_order_mark(tmp_path):
    p = tmp_path / "v.json"
    p.write_bytes(BOM + b'{"a": 1}')
    assert read_json(p, "test value") == {"a": 1}


def test_load_csv_field_over_the_size_limit_is_malformed(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1," + "a" * 200_000 + "\n")
    with pytest.raises(MalformedFile, match="field larger than field limit"):
        load_corpus(p)


# ---------------------------------------------------------------------------
# JSONL loading
# ---------------------------------------------------------------------------

def test_load_jsonl_basic(tmp_path):
    p = write(
        tmp_path / "c.jsonl",
        '{"id": "e1", "dialogue": "hi", "note": "n1"}\n\n{"id": "e2", "dialogue": "yo"}\n',
    )
    corpus = load_corpus(p)
    assert corpus.ids() == ["e1", "e2"]
    assert corpus.encounters[0].note == "n1"
    assert corpus.encounters[1].note is None


def test_load_jsonl_invalid_json(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"id": "e1", "dialogue": "hi"}\nnot json\n')
    with pytest.raises(MalformedFile):
        load_corpus(p)


def test_load_jsonl_non_object_row(tmp_path):
    p = write(tmp_path / "c.jsonl", "[1, 2, 3]\n")
    with pytest.raises(MalformedFile):
        load_corpus(p)


def test_load_jsonl_missing_keys(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"id": "e1"}\n')
    with pytest.raises(MalformedFile, match="row 1: missing required column 'dialogue'"):
        load_corpus(p)


@pytest.mark.parametrize("row, field, got", [
    ('{"id": 1, "dialogue": "hi"}', "id", "int"),
    ('{"id": null, "dialogue": "hi"}', "id", "NoneType"),
    ('{"id": "e2", "dialogue": 5}', "dialogue", "int"),
    ('{"id": "e2", "dialogue": ["hi"]}', "dialogue", "list"),
    ('{"id": "e2", "dialogue": "hi", "note": {"cc": "x"}}', "note", "dict"),
    ('{"id": "e2", "dialogue": "hi", "note": false}', "note", "bool"),
])
def test_load_jsonl_non_string_field_names_row_and_field(tmp_path, row, field, got):
    p = write(tmp_path / "c.jsonl", '{"id": "e1", "dialogue": "hi"}\n' + row + "\n")
    with pytest.raises(MalformedFile) as info:
        load_corpus(p)
    assert f"row 2: field {field!r} must be a string, got {got}" in str(info.value)


def test_load_jsonl_null_note_is_unlabeled(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"id": "e1", "dialogue": "hi", "note": null}\n')
    assert load_corpus(p).encounters[0].note is None


def test_load_jsonl_column_remap(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"k": "e1", "d": "hi", "n": "note"}\n')
    corpus = load_corpus(p, columns={"id": "k", "dialogue": "d", "note": "n"})
    assert corpus.encounters[0] == Encounter("e1", "hi", "note")


# ---------------------------------------------------------------------------
# Malformed corpora: one error type, always naming the file
# ---------------------------------------------------------------------------

# (format, file bytes, what the message says after "<path>: ")
MALFORMED_CORPORA = {
    "no-id-column": ("csv", b"dialogue,note\nhi,n\n", "missing required column 'id'"),
    "no-dialogue-column": ("csv", b"id,note\ne1,n\n", "missing required column 'dialogue'"),
    "no-id-key": ("jsonl", b'{"dialogue": "hi"}\n', "row 1: missing required column 'id'"),
    "no-dialogue-key": ("jsonl", b'{"id": "e1", "dialogue": "hi"}\n{"id": "e2"}\n',
                        "row 2: missing required column 'dialogue'"),
    "csv-missing-id": ("csv", b"id,dialogue\ne1,hi\n,yo\n", "row 2: missing id"),
    "jsonl-missing-id": ("jsonl", b'{"id": "", "dialogue": "hi"}\n', "row 1: missing id"),
    "csv-duplicate-id": ("csv", b"id,dialogue\n1,hi\n1,yo\n",
                         "row 2: duplicate encounter id '1'"),
    "jsonl-duplicate-id": ("jsonl",
                           b'{"id": "1", "dialogue": "hi"}\n\n{"id": "1", "dialogue": "yo"}\n',
                           "row 2: duplicate encounter id '1'"),
    "csv-blank-dialogue": ("csv", b"id,dialogue\ne1, \t\n", "row 1: dialogue is empty"),
    "csv-short-row": ("csv", b"id,dialogue\ne1,hi\ne2\n", "row 2: dialogue is empty"),
    "jsonl-blank-dialogue": ("jsonl", b'{"id": "e1", "dialogue": "  "}\n',
                             "row 1: dialogue is empty"),
    "non-string-field": ("jsonl", b'{"id": 1, "dialogue": "hi"}\n',
                         "row 1: field 'id' must be a string, got int"),
    "non-object-row": ("jsonl", b"[1, 2]\n", "row 1: expected a JSON object"),
    "invalid-json": ("jsonl", b'{"id": "e1", "dialogue": "hi"}\nnot json\n',
                     "row 2: not a valid JSON row"),
    "csv-non-utf8": ("csv", b"id,dialogue\ne1,caf\xe9\n", "not UTF-8 text"),
    "jsonl-non-utf8": ("jsonl", b'{"id": "e1", "dialogue": "caf\xe9"}\n', "not UTF-8 text"),
    "csv-field-over-limit": ("csv", b"id,dialogue\ne1," + b"a" * 200_000 + b"\n",
                             "field larger than field limit"),
    "csv-empty-file": ("csv", b"", "empty file, expected a header row"),
}


@pytest.mark.parametrize("format, data, fragment", MALFORMED_CORPORA.values(),
                         ids=MALFORMED_CORPORA)
def test_malformed_corpus_raises_malformed_file_naming_the_file(tmp_path, format, data, fragment):
    p = tmp_path / f"c.{format}"
    p.write_bytes(data)
    with pytest.raises(MalformedFile) as info:
        load_corpus(p)
    message = str(info.value)
    assert message.startswith(f"{p}: {fragment}") and "\n" not in message


@pytest.mark.parametrize("format, text, fragment", [
    ("csv", "id,dialogue,note\ne1,hi,n\n", "missing required column 'summary'"),
    ("csv", "id,dialogue,summary\n", None),
    ("jsonl", '{"id": "e1", "dialogue": "hi", "note": "n"}\n',
     "no row holds the required column 'summary'"),
    ("jsonl", '{"id": "e1", "dialogue": "hi"}\n{"id": "e2", "dialogue": "yo", "summary": null}\n',
     None),
    ("jsonl", "", None),
], ids=["csv-missing", "csv-header-only", "jsonl-missing", "jsonl-one-row-holds", "jsonl-empty"])
def test_explicit_note_column_must_exist(tmp_path, format, text, fragment):
    """A note column that `columns` names is required; the default one is optional."""
    p = write(tmp_path / f"c.{format}", text)
    if fragment is None:
        assert load_corpus(p, {"note": "summary"}).labeled() == []
        return
    with pytest.raises(MalformedFile) as info:
        load_corpus(p, {"note": "summary"})
    assert str(info.value) == f"{p}: {fragment}"


# ---------------------------------------------------------------------------
# Save/load round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("format", ["csv", "jsonl", "ndjson", "JSONL", "NdJson", "JSON", "Csv"])
def test_save_load_round_trip(tmp_path, format):
    original = synth_corpus(6)
    p1 = tmp_path / f"one.{format}"
    p2 = tmp_path / f"two.{format}"
    save_corpus(original, p1)
    loaded = load_corpus(p1)
    assert loaded.encounters == original.encounters
    save_corpus(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("name, first_line", [
    ("c.csv", "id,dialogue,note"),
    ("c.jsonl", '{"id": "synth-000"'),
    ("c.ndjson", '{"id": "synth-000"'),
    ("c", "id,dialogue,note"),
    ("c.jsonl.csv", "id,dialogue,note"),
    ("c.JSONL", '{"id": "synth-000"'),
    ("c.NdJson", '{"id": "synth-000"'),
    ("c.JSON", "id,dialogue,note"),
    ("c.Csv", "id,dialogue,note"),
])
def test_file_name_decides_the_corpus_format(tmp_path, name, first_line):
    save_corpus(synth_corpus(2), tmp_path / name)
    assert (tmp_path / name).read_text(encoding="utf-8").startswith(first_line)


CSV_TEXT = b"id,dialogue,note\ne1,hello there,note text here\n"
# (name, content, is a prediction file): the name decides for .json and the JSONL
# suffixes, the first byte after a byte-order mark and JSON whitespace for the rest.
KIND_RULE = {
    "json-name-csv-text": ("p.json", CSV_TEXT, True),
    "jsonl-row-with-entries": ("one.jsonl", b'{"id": "e1", "dialogue": "hi", "entries": {}}\n',
                               False),
    "ndjson-name": ("c.ndjson", b'{"approach": "single", "entries": {}}\n', False),
    "bom-and-whitespace-before-brace": ("p.out", BOM + b" \t\r\n {}", True),
    "long-whitespace-run": ("p.out", b" " * 10_000 + b"{}", True),
    "mark-after-whitespace": ("c.out", b" " + BOM + b"{}", False),
    "csv-name": ("c.csv", CSV_TEXT, False),
    "txt-name": ("c.txt", CSV_TEXT, False),
    "no-name-suffix": ("c", CSV_TEXT, False),
    "empty-file": ("e.out", b"", False),
    "only-whitespace": ("w.out", BOM + b"\n\n", False),
    "leading-0xff": ("x.out", b"\xff{}", False),
    "brace-then-invalid-json": ("bad.out", b"{not json", True),
    "truncated-prediction-file": ("trunc.out", b'{\n  "approach": "single",\n  "entries": {"e',
                                  True),
    "object-without-entries": ("noentries.out", b'{"approach": "single", "seed": 0}\n', True),
    "brace-after-other-whitespace": ("c.out", b"\x0c{}", False),
    "upper-case-json-name-csv-text": ("p.JSON", CSV_TEXT, True),
    "upper-case-jsonl-row-with-entries": ("one.JSONL", b'{"id": "e1", "dialogue": "hi", '
                                          b'"entries": {}}\n', False),
    "mixed-case-ndjson-name": ("c.NdJson", b'{"approach": "single", "entries": {}}\n', False),
}


@pytest.mark.parametrize("name, data, expected", KIND_RULE.values(), ids=KIND_RULE.keys())
def test_is_prediction_file_is_the_one_kind_rule(tmp_path, name, data, expected):
    path = tmp_path / name
    path.write_bytes(data)
    assert (prediction_file_reason(path) is not None) is expected
    assert (prediction_file_reason(str(path)) is not None) is expected


JSONL_ROWS = b'{"id": "e1", "dialogue": "hi", "note": "n"}\n{"id": "e2", "dialogue": "yo"}\n'


@pytest.mark.parametrize("name, data", [
    ("c.txt", JSONL_ROWS),
    ("c.json", JSONL_ROWS),
    ("c.Csv", BOM + b" \r\n\t" + JSONL_ROWS),
    ("c", b"\n" + JSONL_ROWS),
])
def test_a_corpus_read_as_csv_that_opens_with_a_brace_says_its_name_made_it_csv(
        tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(MalformedFile) as info:
        load_corpus(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and "\n" not in message
    assert message.endswith(" (read as CSV because its name does not end in .jsonl or "
                            ".ndjson, but it opens with '{')")


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def test_split_sizes_and_disjointness():
    corpus = synth_corpus(87)
    train, val = split_corpus(corpus, 67 / 87, seed=0)
    assert len(train) == 67 and len(val) == 20
    assert set(train.ids()).isdisjoint(val.ids())
    assert sorted(train.ids() + val.ids()) == sorted(corpus.ids())


def test_split_preserves_original_order():
    corpus = synth_corpus(20)
    train, val = split_corpus(corpus, 0.5, seed=3)
    order = {e.id: i for i, e in enumerate(corpus)}
    assert train.ids() == sorted(train.ids(), key=order.__getitem__)
    assert val.ids() == sorted(val.ids(), key=order.__getitem__)


def test_split_deterministic_and_seed_sensitive():
    corpus = synth_corpus(30)
    a1 = split_corpus(corpus, 0.7, seed=11)
    a2 = split_corpus(corpus, 0.7, seed=11)
    assert a1[0].ids() == a2[0].ids() and a1[1].ids() == a2[1].ids()
    b = split_corpus(corpus, 0.7, seed=12)
    assert a1[0].ids() != b[0].ids()


def test_split_fraction_bounds():
    corpus = synth_corpus(10)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            split_corpus(corpus, bad, seed=0)


def test_split_too_small():
    with pytest.raises(ValueError, match="need at least 2 encounters to split, have 1"):
        split_corpus(synth_corpus(1), 0.5, seed=0)


# ---------------------------------------------------------------------------
# JSON rendering
# ---------------------------------------------------------------------------

def dumps_text(value) -> str:
    """The reference rendering json_text must equal."""
    return json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


JSON_TEXTS = st.text() | st.text(alphabet='"\\/\x00\x01\x08\x09\x0a\x1f\x7f\u2028é日\U0001f600')
JSON_LEAVES = (
    st.none() | st.booleans() | JSON_TEXTS
    | st.integers() | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats() | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(JSON_TEXTS, children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_json_text_equals_json_dumps(value):
    assert json_text(value) == dumps_text(value)


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", {1: "a"}, [{"a": {"b": {1}}}],
                                   {"a": {2: "b"}}])
def test_json_text_rejects_other_types_and_non_string_keys(value):
    with pytest.raises(TypeError):
        json_text(value)


def report_like(n_docs: int) -> list[dict]:
    """A value shaped like a `report.json` over n_docs documents, with seeded scores."""
    rng = random.Random(0)

    def scores():
        return {name: {"f1": rng.random(), "precision": rng.random(), "recall": rng.random()}
                for name in ("rouge1", "rouge2", "rougeL")}

    return [{
        "approach": "section-wise", "config_hash": "0" * 64, "seed": 0,
        "division_average": rng.random(), "division_metric": "rouge1_f1",
        "division_f1": {d: rng.random() for d in ("AssessmentAndPlan", "Exam", "Results",
                                                  "Subjective")},
        "n_documents": n_docs, "skipped_divisions": 0, "unknown_sections": 0,
        "scores": {**scores(), "per_document": {f"eval-{i:04d}": scores()
                                                for i in range(n_docs)}},
    }]


# tracemalloc peak, in bytes, of json_text on report_like(400), which renders to
# 205,908 bytes: 3% above the measured 431,249 B (2.1x the output). json.dumps
# with indent=2 peaked at 1,245,616 B (6.0x), building its list of chunks.
JSON_TEXT_PEAK_BOUND = 445_000


def test_json_text_peak_memory():
    """Rendering holds about two copies of its output, not a chunk per token."""
    value = report_like(400)
    size = len(json_text(value))
    assert size > 200_000
    peak = traced_peak(json_text, value)
    assert peak < JSON_TEXT_PEAK_BOUND, (
        f"peak {peak:,} B for {size:,} B of JSON is not below the bound {JSON_TEXT_PEAK_BOUND:,} B")


# ---------------------------------------------------------------------------
# Prediction files
# ---------------------------------------------------------------------------

def test_predictions_round_trip(tmp_path):
    preds = PredictionSet(
        approach="section-wise",
        entries={"e2": "note two", "e1": "note one"},
        config_hash="abc123",
        seed=7,
        extra={"note": "smoke"},
    )
    p = tmp_path / "preds.json"
    save_predictions(preds, p)
    loaded = load_predictions(p)
    assert loaded == preds


def test_predictions_serialization_is_stable(tmp_path):
    preds = PredictionSet(approach="single", entries={"b": "y", "a": "x"})
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_predictions(preds, p1)
    save_predictions(
        PredictionSet(approach="single", entries={"a": "x", "b": "y"}), p2
    )
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert list(payload) == ["approach", "config_hash", "entries", "extra", "seed"]


def test_predictions_unknown_tag_rejected():
    with pytest.raises(ValueError):
        PredictionSet(approach="quantum", entries={})
    # Backends are not approaches: an oracle or extractive run is tagged by its approach.
    with pytest.raises(ValueError):
        PredictionSet(approach="oracle", entries={})


@pytest.mark.parametrize(
    "payload",
    [
        "not json",
        "[1]",
        '{"approach": "single", "seed": 0, "entries": {}}',  # missing config_hash
        '{"approach": "single", "seed": 0, "config_hash": "", "entries": [1]}',
        '{"approach": "single", "seed": 0, "config_hash": "", "entries": {"a": 3}}',
        '{"approach": "bogus", "seed": 0, "config_hash": "", "entries": {}}',
    ],
)
def test_load_predictions_rejects_malformed(tmp_path, payload):
    p = write(tmp_path / "bad.json", payload)
    with pytest.raises(MalformedFile):
        load_predictions(p)


VALID_PREDICTIONS = {
    "approach": "multi-layer",
    "seed": 3,
    "config_hash": "abc",
    "entries": {"e1": "note"},
    "extra": {"stage1_empty_eval": "0"},
}


@pytest.mark.parametrize("key, value, fragment", [
    ("seed", "abc", "'seed' must be an integer, got str"),
    ("seed", True, "'seed' must be an integer, got bool"),
    ("seed", 1.5, "'seed' must be an integer, got float"),
    ("config_hash", 5, "'config_hash' must be a string, got int"),
    ("approach", None, "'approach' must be a string, got NoneType"),
    ("entries", [1], "'entries' must be an object, got list"),
    ("extra", [1], "'extra' must be an object, got list"),
    ("extra", {"k": 1}, "extra must map strings to strings"),
])
def test_load_predictions_rejects_mistyped_fields(tmp_path, key, value, fragment):
    p = write(tmp_path / "bad.json", json.dumps({**VALID_PREDICTIONS, key: value}))
    with pytest.raises(MalformedFile) as info:
        load_predictions(p)
    message = str(info.value)
    assert message.startswith(f"{p}: ") and fragment in message and "\n" not in message


def test_load_predictions_defaults_absent_extra_and_ignores_created_at(tmp_path):
    payload = {k: v for k, v in VALID_PREDICTIONS.items() if k != "extra"}
    assert load_predictions(write(tmp_path / "p.json", json.dumps(payload))).extra == {}
    # Older prediction files hold a `created_at` key, null or a timestamp.
    expected = load_predictions(write(tmp_path / "q.json", json.dumps(VALID_PREDICTIONS)))
    for stamp in (None, "2024-01-01T00:00:00Z"):
        older = json_text({**VALID_PREDICTIONS, "created_at": stamp})
        assert load_predictions(write(tmp_path / "older.json", older)) == expected
