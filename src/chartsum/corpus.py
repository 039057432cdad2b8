"""Conversation/note corpora: CSV and JSONL ingestion, seeded splits, prediction files."""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from io import StringIO
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ChartsumError

CANONICAL_COLUMNS = ("id", "dialogue", "note")
# The one corpus-format rule: a file whose name ends so is JSONL, any other CSV.
JSONL_SUFFIXES = (".jsonl", ".ndjson")

# The three pipeline architectures; PredictionSet.approach is one of them.
APPROACH_TAGS = ("single", "section-wise", "multi-layer")

# Every input text is read as UTF-8 that may start with one byte-order mark, which
# is dropped; outputs are written as plain "utf-8", without one.
TEXT_ENCODING = "utf-8-sig"


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


NUMBER = (int, float)
_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    list: "a list",
    NUMBER: "a number",
    dict: "an object",
}


def typed(mapping: Mapping, key: str, kind, where: str = ""):
    """mapping[key], an instance of kind but not a bool or non-finite float; where names mapping."""
    path = f"{where}.{key}" if where else key
    if key not in mapping:
        raise MalformedFile(f"missing key {path!r}")
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedFile(
            f"{path!r} must be {_KIND_NAMES[kind]}, got {type(value).__name__}"
        )
    if isinstance(value, float) and not math.isfinite(value):
        raise MalformedFile(f"{path!r} must be a finite number, got {value}")
    return value


def decode_utf8(data: bytes, name: str | Path, error: type[ChartsumError] = MalformedFile) -> str:
    """`data` decoded strictly as UTF-8, less one leading byte-order mark; `name` names its
    source in the error raised."""
    try:
        # Decoded whole, so that an error names the byte's offset in `data`.
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{name}: not UTF-8 text ({exc})") from exc
    return text.removeprefix("\ufeff")


def parse_json(text: str, where: str | Path, what: str,
               error: type[ChartsumError] = MalformedFile):
    """The JSON value `text` holds; invalid or too deeply nested JSON raises `error`."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not a valid {what} ({exc})") from exc


def read_json(path: str | Path, what: str, error: type[ChartsumError] = MalformedFile):
    """The JSON value in the UTF-8 file at `path`, a `what`; a malformed file raises `error`."""
    return parse_json(decode_utf8(Path(path).read_bytes(), path, error), path, what, error)


# json's spellings of the floats that float.__repr__ writes as nan, inf and -inf.
_NON_FINITE_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value) -> str:
    """The one rendering of every JSON output: sorted keys, two-space indent, UTF-8 text.

    Equal to `json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2) + "\\n"`
    for any value built of str-keyed dicts, lists, tuples, strings, ints, floats, bools
    and None; any other type, or a key that is not a string, raises TypeError. json.dumps
    is not called: with `indent` it encodes in pure Python and lists one small string per
    token before joining them. Here each container is joined once from its items'
    finished texts, so rendering holds about two copies of the output at most.
    """

    def render(value, indent: str) -> str:
        # `indent` is a line feed and the current level's spaces. The commonest
        # types of chartsum's outputs are tested first.
        if isinstance(value, str):
            return encode_basestring(value)
        if isinstance(value, float):
            text = float.__repr__(value)
            return _NON_FINITE_SPELLINGS.get(text, text)
        inner = indent + "  "
        if isinstance(value, dict):
            if not value:
                return "{}"
            # encode_basestring raises TypeError for a key that is not a string.
            body = f",{inner}".join([f"{encode_basestring(key)}: {render(value[key], inner)}"
                                     for key in sorted(value)])
            return f"{{{inner}{body}{indent}}}"
        if isinstance(value, (list, tuple)):
            if not value:
                return "[]"
            body = f",{inner}".join([render(item, inner) for item in value])
            return f"[{inner}{body}{indent}]"
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    return render(value, "\n") + "\n"


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """The one rendering of every CSV output: `rows` with line feeds between them."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


@dataclass(frozen=True)
class Encounter:
    """One conversation/note pair; `note` is None for unlabeled rows."""

    id: str
    dialogue: str
    note: str | None = None


@dataclass(frozen=True)
class Corpus:
    encounters: tuple[Encounter, ...]

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


def load_corpus(path: str | Path, columns: Mapping[str, str] | None = None) -> Corpus:
    """Load encounters in file order. `columns` remaps canonical names to actual ones."""
    path = Path(path)
    cols = _resolve_columns(columns)
    load = _load_jsonl if path.name.endswith(JSONL_SUFFIXES) else _load_csv
    try:
        encounters = load(path, cols)
    except UnicodeDecodeError as exc:
        # The text layer names a position within its read chunk; decoding the
        # whole file again names the byte's offset in the file. The raise below is
        # reached only if the file changed in between.
        decode_utf8(path.read_bytes(), path)
        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        # For example a field over csv.field_size_limit() (128 KiB by default).
        raise MalformedFile(f"{path}: {exc}") from exc
    return Corpus(encounters=tuple(encounters))


def _load_csv(path: Path, cols: dict[str, str]) -> list[Encounter]:
    encounters: list[Encounter] = []
    seen: dict[str, int] = {}
    with open(path, newline="", encoding=TEXT_ENCODING) as fh:
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
    with open(path, encoding=TEXT_ENCODING) as fh:
        row_num = 0
        for line in fh:
            if not line.strip():
                continue
            row_num += 1
            record = parse_json(line, f"{path}: row {row_num}", "JSON row")
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


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the format its name calls for; load(save(load(f))) equals load(f)."""
    path = Path(path)
    if path.name.endswith(JSONL_SUFFIXES):
        with open(path, "w", encoding="utf-8") as fh:
            for e in corpus:
                record = {"id": e.id, "dialogue": e.dialogue}
                if e.note is not None:
                    record["note"] = e.note
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    else:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CANONICAL_COLUMNS)
            for e in corpus:
                writer.writerow([e.id, e.dialogue, e.note if e.note is not None else ""])


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
        Corpus(tuple(corpus.encounters[i] for i in train_idx)),
        Corpus(tuple(corpus.encounters[i] for i in val_idx)),
    )


@dataclass(frozen=True)
class PredictionSet:
    """Predicted note text per encounter id, plus the run's reproducibility metadata."""

    approach: str
    entries: dict[str, str]
    config_hash: str = ""
    seed: int = 0
    extra: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.approach not in APPROACH_TAGS:
            raise ValueError(f"unknown approach tag {self.approach!r}")


def predictions_text(predictions: PredictionSet) -> str:
    """The JSON text of a prediction file, as `load_predictions` reads it."""
    payload = {
        "approach": predictions.approach,
        "seed": predictions.seed,
        "config_hash": predictions.config_hash,
        "entries": predictions.entries,
        "extra": predictions.extra,
    }
    return json_text(payload)


def save_predictions(predictions: PredictionSet, path: str | Path) -> None:
    Path(path).write_text(predictions_text(predictions), encoding="utf-8")


def load_predictions(path: str | Path) -> PredictionSet:
    """Read a save_predictions file; a missing or mistyped field raises MalformedFile."""
    payload = read_json(path, "prediction file")
    if not isinstance(payload, dict):
        raise MalformedFile(f"{path}: expected a JSON object")
    # extra may be absent; it then takes its default. Keys not read here are
    # ignored, so prediction files with keys this version dropped still load.
    payload = {"extra": {}, **payload}
    kinds = {"approach": str, "seed": int, "config_hash": str, "entries": dict, "extra": dict}
    try:
        fields = {key: typed(payload, key, kind) for key, kind in kinds.items()}
    except MalformedFile as exc:
        raise MalformedFile(f"{path}: {exc}") from None
    for key in ("entries", "extra"):
        if not all(isinstance(k, str) and isinstance(v, str) for k, v in fields[key].items()):
            raise MalformedFile(f"{path}: {key} must map strings to strings")
    try:
        return PredictionSet(**fields)
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from exc
