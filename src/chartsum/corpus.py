"""Conversation/note corpora: CSV and JSONL ingestion, seeded splits, prediction files."""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from .errors import ChartsumError

CANONICAL_COLUMNS = ("id", "dialogue", "note")

# The three pipeline architectures; PredictionSet.approach is one of them.
APPROACH_TAGS = ("single", "section-wise", "multi-layer")


class CorpusError(ChartsumError):
    pass


class MissingColumn(CorpusError):
    def __init__(self, column: str, path: str):
        super().__init__(f"{path}: missing required column {column!r}")
        self.column = column


class DuplicateId(CorpusError):
    def __init__(self, encounter_id: str, row: int):
        super().__init__(f"row {row}: duplicate encounter id {encounter_id!r}")
        self.encounter_id = encounter_id
        self.row = row


class EmptyDialogue(CorpusError):
    def __init__(self, row: int):
        super().__init__(f"row {row}: dialogue is empty")
        self.row = row


class CorpusTooSmall(CorpusError):
    pass


class MalformedFile(CorpusError):
    pass


_NUMBER = (int, float)
_OPTIONAL_STR = (str, type(None))
_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    _NUMBER: "a number",
    dict: "an object",
    _OPTIONAL_STR: "a string or null",
}


def _typed(mapping: Mapping, key: str, kind, where: str = ""):
    """mapping[key], which must be an instance of kind (never a bool); where names mapping."""
    path = f"{where}.{key}" if where else key
    if key not in mapping:
        raise MalformedFile(f"missing key {path!r}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedFile(
            f"{path!r} must be {_KIND_NAMES[kind]}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class Encounter:
    """One conversation/note pair; `note` is None for unlabeled rows."""

    id: str
    dialogue: str
    note: str | None = None


@dataclass(frozen=True)
class Provenance:
    path: str
    format: str


@dataclass(frozen=True)
class Corpus:
    encounters: tuple[Encounter, ...]
    provenance: Provenance

    def __len__(self) -> int:
        return len(self.encounters)

    def __iter__(self):
        return iter(self.encounters)

    def ids(self) -> list[str]:
        return [e.id for e in self.encounters]

    def labeled(self) -> list[Encounter]:
        return [e for e in self.encounters if e.note is not None]


def _resolve_columns(columns: Mapping[str, str] | None) -> dict[str, str]:
    resolved = {name: name for name in CANONICAL_COLUMNS}
    if columns:
        for canonical, actual in columns.items():
            if canonical not in CANONICAL_COLUMNS:
                raise ValueError(f"unknown canonical column {canonical!r}")
            resolved[canonical] = actual
    return resolved


def _make_encounter(
    raw_id: str | None, dialogue: str | None, note: str | None, row: int, seen: dict[str, int]
) -> Encounter:
    if raw_id is None or raw_id == "":
        raise MalformedFile(f"row {row}: missing id")
    if raw_id in seen:
        raise DuplicateId(raw_id, row)
    seen[raw_id] = row
    if dialogue is None or dialogue.strip() == "":
        raise EmptyDialogue(row)
    return Encounter(id=raw_id, dialogue=dialogue, note=note if note else None)


def load_corpus(
    path: str | Path, format: str = "csv", columns: Mapping[str, str] | None = None
) -> Corpus:
    """Load encounters in file order. `columns` remaps canonical names to actual ones."""
    path = Path(path)
    cols = _resolve_columns(columns)
    if format == "csv":
        encounters = _load_csv(path, cols)
    elif format == "jsonl":
        encounters = _load_jsonl(path, cols)
    else:
        raise ValueError(f"unknown corpus format {format!r}")
    return Corpus(encounters=tuple(encounters), provenance=Provenance(str(path), format))


def _load_csv(path: Path, cols: dict[str, str]) -> list[Encounter]:
    encounters: list[Encounter] = []
    seen: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise MalformedFile(f"{path}: empty file, expected a header row")
        for required in ("id", "dialogue"):
            if cols[required] not in reader.fieldnames:
                raise MissingColumn(cols[required], str(path))
        has_note = cols["note"] in reader.fieldnames
        for row_num, row in enumerate(reader, start=1):
            note = row.get(cols["note"]) if has_note else None
            encounters.append(
                _make_encounter(row.get(cols["id"]), row.get(cols["dialogue"]), note, row_num, seen)
            )
    return encounters


def _load_jsonl(path: Path, cols: dict[str, str]) -> list[Encounter]:
    encounters: list[Encounter] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        row_num = 0
        for line in fh:
            if not line.strip():
                continue
            row_num += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedFile(f"{path}: row {row_num}: invalid JSON ({exc})") from exc
            if not isinstance(record, dict):
                raise MalformedFile(f"{path}: row {row_num}: expected a JSON object")
            if cols["id"] not in record:
                raise MissingColumn(cols["id"], str(path))
            if cols["dialogue"] not in record:
                raise MissingColumn(cols["dialogue"], str(path))
            fields = [record.get(cols[name]) for name in CANONICAL_COLUMNS]
            for name, value in zip(CANONICAL_COLUMNS, fields):
                # A missing or null note marks an unlabeled row.
                if not isinstance(value, str) and not (name == "note" and value is None):
                    raise MalformedFile(
                        f"{path}: row {row_num}: field {cols[name]!r} must be a string, "
                        f"got {type(value).__name__}"
                    )
            encounters.append(_make_encounter(*fields, row_num, seen))
    return encounters


def save_corpus(corpus: Corpus, path: str | Path, format: str = "csv") -> None:
    """Write a corpus back out; load(save(load(f))) equals load(f)."""
    path = Path(path)
    if format == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CANONICAL_COLUMNS)
            for e in corpus:
                writer.writerow([e.id, e.dialogue, e.note if e.note is not None else ""])
    elif format == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for e in corpus:
                record = {"id": e.id, "dialogue": e.dialogue}
                if e.note is not None:
                    record["note"] = e.note
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    else:
        raise ValueError(f"unknown corpus format {format!r}")


def split_corpus(corpus: Corpus, train_fraction: float, seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic disjoint split; train gets floor(train_fraction * n) encounters.

    Both halves keep the original file order.
    """
    n = len(corpus)
    if n < 2:
        raise CorpusTooSmall(f"need at least 2 encounters to split, have {n}")
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    # Epsilon guards against fractions like 67/87 rounding to just under an integer.
    n_train = math.floor(train_fraction * n + 1e-9)
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    train_idx = sorted(indices[:n_train])
    val_idx = sorted(indices[n_train:])
    return (
        Corpus(tuple(corpus.encounters[i] for i in train_idx), corpus.provenance),
        Corpus(tuple(corpus.encounters[i] for i in val_idx), corpus.provenance),
    )


@dataclass(frozen=True)
class PredictionSet:
    """Predicted note text per encounter id, plus the run's reproducibility metadata.

    `created_at` defaults to None so that repeated runs with identical inputs
    serialize to identical bytes; callers may stamp it explicitly.
    """

    approach: str
    entries: dict[str, str]
    config_hash: str = ""
    seed: int = 0
    created_at: str | None = None
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.approach not in APPROACH_TAGS:
            raise ValueError(f"unknown approach tag {self.approach!r}")


def save_predictions(predictions: PredictionSet, path: str | Path) -> None:
    payload = {
        "approach": predictions.approach,
        "seed": predictions.seed,
        "config_hash": predictions.config_hash,
        "created_at": predictions.created_at,
        "entries": predictions.entries,
        "extra": predictions.extra,
    }
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def load_predictions(path: str | Path) -> PredictionSet:
    """Read a save_predictions file; a missing or mistyped field raises MalformedFile."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedFile(f"{path}: not a valid prediction file ({exc})") from exc
    if not isinstance(payload, dict):
        raise MalformedFile(f"{path}: expected a JSON object")
    try:
        approach = _typed(payload, "approach", str)
        seed = _typed(payload, "seed", int)
        config_hash = _typed(payload, "config_hash", str)
        entries = _typed(payload, "entries", dict)
        # created_at and extra may be absent; they then take their defaults.
        optional = {"created_at": None, "extra": {}, **payload}
        created_at = _typed(optional, "created_at", _OPTIONAL_STR)
        extra = _typed(optional, "extra", dict)
    except MalformedFile as exc:
        raise MalformedFile(f"{path}: {exc}") from None
    for key, mapping in (("entries", entries), ("extra", extra)):
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()):
            raise MalformedFile(f"{path}: {key} must map strings to strings")
    try:
        return PredictionSet(
            approach=approach,
            entries=entries,
            config_hash=config_hash,
            seed=seed,
            created_at=created_at,
            extra=extra,
        )
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
