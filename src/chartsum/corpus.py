"""Conversation/note corpora: CSV and JSONL ingestion, seeded splits, prediction files."""

from __future__ import annotations

import codecs
import csv
import json
import math
import random
from dataclasses import dataclass, field
from io import StringIO
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ChartsumError

CANONICAL_COLUMNS = ("id", "dialogue", "note")
# The format each name ending gives a file, compared case-insensitively (`named_format`).
_NAMED_FORMATS = {".json": "json", ".jsonl": "jsonl", ".ndjson": "jsonl"}

# The three pipeline architectures; PredictionSet.approach is one of them.
APPROACH_TAGS = ("single", "section-wise", "multi-layer")

# Every input text is read as UTF-8 that may start with one byte-order mark, which
# is dropped; outputs are written as plain "utf-8", without one.
TEXT_ENCODING = "utf-8-sig"


class MalformedFile(ChartsumError):
    """An input file that does not hold what its kind must: every malformed corpus,
    prediction file, report and checkpoint raises it."""


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


def decode_utf8(data: bytes, name: str | Path) -> str:
    """`data` decoded strictly as UTF-8, less one leading byte-order mark; `name` names its
    source in the error raised."""
    try:
        # Decoded whole, so that an error names the byte's offset in `data`.
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{name}: not UTF-8 text ({exc})") from exc
    return text.removeprefix("\ufeff")


def parse_json(text: str, where: str | Path, what: str):
    """The JSON value `text` holds; invalid or too deeply nested JSON raises MalformedFile."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedFile(f"{where}: not a valid {what} ({exc})") from exc


def read_json(path: str | Path, what: str):
    """The JSON value in the UTF-8 file at `path`, a `what`; a malformed file raises
    MalformedFile."""
    return parse_json(decode_utf8(Path(path).read_bytes(), path), path, what)


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


def named_format(path: str | Path) -> str | None:
    """The one file-format rule: "json" for a name ending `.json`, "jsonl" for one
    ending `.jsonl` or `.ndjson`, in any case, and None for any other name."""
    name = Path(path).name.lower()
    return next((form for suffix, form in _NAMED_FORMATS.items() if name.endswith(suffix)), None)


def _opens_with_brace(path: str | Path) -> bool:
    """Whether the file's first byte after an optional UTF-8 byte-order mark and JSON
    whitespace is `{`; only that prefix is read."""
    with open(path, "rb") as fh:
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        while (byte := fh.read(1)) and byte in b" \t\n\r":
            pass
    return byte == b"{"


def is_prediction_file(path: str | Path) -> bool:
    """The one rule for an input that may be a prediction file or a corpus (`score`'s):
    the format its name gives, JSON or JSONL, or else whether it opens with `{`."""
    form = named_format(path)
    if form is not None:
        return form == "json"
    return _opens_with_brace(path)


def check_column(name: str) -> str:
    """`name` if it is a canonical corpus column; ValueError otherwise."""
    if name not in CANONICAL_COLUMNS:
        raise ValueError(f"unknown canonical column {name!r} "
                         f"(expected one of {', '.join(CANONICAL_COLUMNS)})")
    return name


def load_corpus(path: str | Path, columns: Mapping[str, str] | None = None) -> Corpus:
    """Load encounters in file order. `columns` remaps canonical names to actual ones.

    The id and dialogue columns are required. So is the note column when
    `columns` names it; otherwise a file without one loads as unlabeled.
    """
    path = Path(path)
    cols = {name: name for name in CANONICAL_COLUMNS}
    cols.update((check_column(name), actual) for name, actual in (columns or {}).items())
    required = [cols["id"], cols["dialogue"]]
    if columns and "note" in columns:
        required.append(cols["note"])
    records = _jsonl_records if named_format(path) == "jsonl" else _csv_records
    try:
        return Corpus(encounters=tuple(_encounters(path, records(path, required), cols)))
    except MalformedFile as exc:
        if records is _csv_records and _opens_with_brace(path):
            raise MalformedFile(f"{exc} (read as CSV because its name does not end in "
                                f".jsonl or .ndjson, but it opens with '{{')") from exc
        raise


def _encounters(path: Path, rows: Iterator[tuple[int, dict]], cols: dict) -> Iterator[Encounter]:
    """The encounter of each (row number, record) of `rows`, records read from `path`."""
    seen: set[str] = set()
    try:
        for row, record in rows:
            yield _encounter(record, cols, f"{path}: row {row}", seen)
    except UnicodeDecodeError as exc:
        # The text layer names a position within its read chunk; decoding the
        # whole file again names the byte's offset in the file. The raise below is
        # reached only if the file changed in between.
        decode_utf8(path.read_bytes(), path)
        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from exc
    except csv.Error as exc:
        # For example a field over csv.field_size_limit() (128 KiB by default).
        raise MalformedFile(f"{path}: {exc}") from exc


def _csv_records(path: Path, required: list[str]) -> Iterator[tuple[int, dict]]:
    """(row number, row) of each CSV row after a header holding every `required` column."""
    with open(path, newline="", encoding=TEXT_ENCODING) as fh:
        # A short row's missing fields read as "", as an empty field does.
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None:
            raise MalformedFile(f"{path}: empty file, expected a header row")
        for column in required:
            if column not in reader.fieldnames:
                raise MalformedFile(f"{path}: missing required column {column!r}")
        yield from enumerate(reader, start=1)


def _jsonl_records(path: Path, required: list[str]) -> Iterator[tuple[int, dict]]:
    """(row number, object) of each non-blank JSONL line; a file with rows must hold
    each `required` column in at least one of them."""
    unheld = set(required)
    row = 0
    with open(path, encoding=TEXT_ENCODING) as fh:
        for line in fh:
            if not line.strip():
                continue
            row += 1
            record = parse_json(line, f"{path}: row {row}", "JSON row")
            if not isinstance(record, dict):
                raise MalformedFile(f"{path}: row {row}: expected a JSON object")
            unheld.difference_update(record)
            yield row, record
    if row and unheld:
        raise MalformedFile(f"{path}: no row holds the required column {min(unheld)!r}")


def _encounter(record: Mapping, cols: dict[str, str], where: str, seen: set[str]) -> Encounter:
    """The encounter of one row, by every row rule of both formats; `where` names the row."""
    for name in ("id", "dialogue"):
        if cols[name] not in record:
            raise MalformedFile(f"{where}: missing required column {cols[name]!r}")
    raw_id, dialogue, note = (record.get(cols[name]) for name in CANONICAL_COLUMNS)
    for name, value in zip(CANONICAL_COLUMNS, (raw_id, dialogue, note)):
        # A missing or null note marks an unlabeled row.
        if not isinstance(value, str) and not (name == "note" and value is None):
            raise MalformedFile(f"{where}: field {cols[name]!r} must be a string, "
                                f"got {type(value).__name__}")
    if raw_id == "":
        raise MalformedFile(f"{where}: missing id")
    if raw_id in seen:
        raise MalformedFile(f"{where}: duplicate encounter id {raw_id!r}")
    seen.add(raw_id)
    if dialogue.strip() == "":
        raise MalformedFile(f"{where}: dialogue is empty")
    return Encounter(id=raw_id, dialogue=dialogue, note=note or None)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus in the format its name calls for; load(save(load(f))) equals load(f)."""
    path = Path(path)
    if named_format(path) == "jsonl":
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
        raise ValueError(f"need at least 2 encounters to split, have {n}")
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
