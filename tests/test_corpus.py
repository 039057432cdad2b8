"""Corpus ingestion, splitting, and prediction-file round-trip tests."""

from __future__ import annotations

import json

import pytest

from chartsum.corpus import (
    CorpusTooSmall,
    DuplicateId,
    EmptyDialogue,
    Encounter,
    MalformedFile,
    MissingColumn,
    PredictionSet,
    load_corpus,
    load_predictions,
    save_corpus,
    save_predictions,
    split_corpus,
)
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
    assert corpus.provenance.format == "csv"


def test_load_csv_note_column_optional(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,hi\n")
    corpus = load_corpus(p)
    assert corpus.encounters[0].note is None


def test_load_csv_missing_required_column(tmp_path):
    p = write(tmp_path / "c.csv", "id,note\ne1,whatever\n")
    with pytest.raises(MissingColumn):
        load_corpus(p)


def test_load_csv_duplicate_id(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,hi\ne1,again\n")
    with pytest.raises(DuplicateId):
        load_corpus(p)


def test_load_csv_empty_dialogue(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,   \n")
    with pytest.raises(EmptyDialogue):
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


def test_load_unknown_format_rejected(tmp_path):
    p = write(tmp_path / "c.csv", "id,dialogue\ne1,hi\n")
    with pytest.raises(ValueError):
        load_corpus(p, format="parquet")


# ---------------------------------------------------------------------------
# JSONL loading
# ---------------------------------------------------------------------------

def test_load_jsonl_basic(tmp_path):
    p = write(
        tmp_path / "c.jsonl",
        '{"id": "e1", "dialogue": "hi", "note": "n1"}\n\n{"id": "e2", "dialogue": "yo"}\n',
    )
    corpus = load_corpus(p, format="jsonl")
    assert corpus.ids() == ["e1", "e2"]
    assert corpus.encounters[0].note == "n1"
    assert corpus.encounters[1].note is None


def test_load_jsonl_invalid_json(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"id": "e1", "dialogue": "hi"}\nnot json\n')
    with pytest.raises(MalformedFile):
        load_corpus(p, format="jsonl")


def test_load_jsonl_non_object_row(tmp_path):
    p = write(tmp_path / "c.jsonl", "[1, 2, 3]\n")
    with pytest.raises(MalformedFile):
        load_corpus(p, format="jsonl")


def test_load_jsonl_missing_keys(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"id": "e1"}\n')
    with pytest.raises(MissingColumn):
        load_corpus(p, format="jsonl")


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
        load_corpus(p, format="jsonl")
    assert f"row 2: field {field!r} must be a string, got {got}" in str(info.value)


def test_load_jsonl_null_note_is_unlabeled(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"id": "e1", "dialogue": "hi", "note": null}\n')
    assert load_corpus(p, format="jsonl").encounters[0].note is None


def test_load_jsonl_column_remap(tmp_path):
    p = write(tmp_path / "c.jsonl", '{"k": "e1", "d": "hi", "n": "note"}\n')
    corpus = load_corpus(p, format="jsonl", columns={"id": "k", "dialogue": "d", "note": "n"})
    assert corpus.encounters[0] == Encounter("e1", "hi", "note")


# ---------------------------------------------------------------------------
# Save/load round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("format", ["csv", "jsonl"])
def test_save_load_round_trip(tmp_path, format):
    original = synth_corpus(6)
    p1 = tmp_path / f"one.{format}"
    p2 = tmp_path / f"two.{format}"
    save_corpus(original, p1, format=format)
    loaded = load_corpus(p1, format=format)
    assert loaded.encounters == original.encounters
    save_corpus(loaded, p2, format=format)
    assert p1.read_bytes() == p2.read_bytes()


def test_save_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_corpus(synth_corpus(2), tmp_path / "x", format="xml")


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
    with pytest.raises(CorpusTooSmall):
        split_corpus(synth_corpus(1), 0.5, seed=0)


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
    assert list(payload) == sorted(payload)
    assert payload["created_at"] is None


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
    "created_at": None,
    "entries": {"e1": "note"},
    "extra": {"stage1_empty_eval": "0"},
}


@pytest.mark.parametrize("key, value, fragment", [
    ("seed", "abc", "'seed' must be an integer, got str"),
    ("seed", True, "'seed' must be an integer, got bool"),
    ("seed", 1.5, "'seed' must be an integer, got float"),
    ("config_hash", 5, "'config_hash' must be a string, got int"),
    ("approach", None, "'approach' must be a string, got NoneType"),
    ("created_at", 20240101, "'created_at' must be a string or null, got int"),
    ("extra", [1], "'extra' must be an object, got list"),
    ("extra", {"k": 1}, "extra must map strings to strings"),
])
def test_load_predictions_rejects_mistyped_fields(tmp_path, key, value, fragment):
    p = write(tmp_path / "bad.json", json.dumps({**VALID_PREDICTIONS, key: value}))
    with pytest.raises(MalformedFile) as info:
        load_predictions(p)
    message = str(info.value)
    assert message.startswith(f"{p}: ") and fragment in message and "\n" not in message


def test_load_predictions_defaults_absent_created_at_and_extra(tmp_path):
    payload = {k: v for k, v in VALID_PREDICTIONS.items() if k not in ("created_at", "extra")}
    loaded = load_predictions(write(tmp_path / "p.json", json.dumps(payload)))
    assert loaded.created_at is None and loaded.extra == {}
    stamped = {**VALID_PREDICTIONS, "created_at": "2024-01-01T00:00:00Z"}
    assert load_predictions(write(tmp_path / "q.json", json.dumps(stamped))).created_at == (
        "2024-01-01T00:00:00Z"
    )
