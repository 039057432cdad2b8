"""End-to-end orchestration of the three summarization architectures.

The approaches differ only in which slots they fill. A slot is a training seed
and a target rule, which picks the slot's text out of a reference note. Every
source is an (input text, reference) pair; one loop, `_fill_slots`, fills a list
of slots one after another, each from the train sources to every input.
Approach "single" is one slot from dialogue to whole note. "section-wise" is one
slot per chart-note section the training notes hold, its outputs assembled into
a note. "multi-layer" is section-wise over the train and eval dialogues, then
one more slot from each stage-1 note to its reference. A summarizer maps text to
text. The oracle backend is no summarizer: it writes each input's own
reference's target. Oracle, identity and extractive exercise the same plumbing
without any training.
"""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain
from operator import methodcaller
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from .config import LsgConfig, ModelConfig, TrainConfig
from .corpus import (APPROACH_TAGS, NUMBER, Corpus, MalformedFile, PredictionSet, csv_text,
                     json_text, read_json, typed)
from .errors import ChartsumError
from .rouge import (
    AggregateScores,
    DocumentScores,
    RougeScore,
    corpus_rouge,
    rouge_n,
    tokenize,
    tokenize_lines,
)
from .sections import (
    SECTION_ORDER,
    ChartNote,
    Division,
    NoteSection,
    Section,
    UnknownSection,
    assemble_note,
    segment_note,
)

if TYPE_CHECKING:
    from .tinylsg import TinyModel, Vocab

BACKEND_KINDS = ("identity", "oracle", "extractive", "tiny-lsg")
# Backends whose output ignores the section slot: one instance serves every slot.
_SECTION_BLIND = ("identity", "extractive")
DIVISIONS = tuple(Division)
# The score each division is measured by; `report.json` names it.
DIVISION_METRIC = "rouge1_f1"

# Per-slot training seeds: section models use seed + canonical section index,
# the multi-layer second stage uses seed + this offset.
_STAGE2_SEED_OFFSET = len(SECTION_ORDER)


class MissingReference(ChartsumError):
    def __init__(self, encounter_id: str, path: str | Path | None = None):
        where = f"{path}: " if path is not None else ""
        super().__init__(f"{where}no reference note for encounter {encounter_id!r}")


# chartsum.tinylsg loads numpy, so it is imported only where a model is built
# or run.


def build_vocab(texts: Sequence[str]) -> Vocab:
    """`chartsum.tinylsg.build_vocab`, imported on call.

    A module global only for perfbench's binding; once perfbench traces the
    function inside chartsum.tinylsg (ROADMAP item 1), it becomes a local
    import in `train_tiny_lsg`.
    """
    from .tinylsg import build_vocab

    return build_vocab(texts)


def train(
    model: TinyModel,
    pairs: Sequence[tuple[str, str]],
    tc: TrainConfig,
    lsg: LsgConfig,
    log: Callable[[str], None] | None = None,
) -> tuple[TinyModel, list[float]]:
    """`chartsum.tinylsg.train`, imported on call.

    A module global only for perfbench's binding; once perfbench traces the
    function inside chartsum.tinylsg (ROADMAP item 1), it becomes a local
    import in `train_tiny_lsg`.
    """
    from .tinylsg import train

    return train(model, pairs, tc, lsg, log=log)


def summarize_ids(model: TinyModel, text: str, max_len: int, lsg: LsgConfig) -> list[int]:
    """`chartsum.tinylsg.train.summarize_ids`, imported on call.

    A module global only for perfbench's binding; once perfbench traces the
    function inside chartsum.tinylsg (ROADMAP item 1), it becomes a local
    import in `TinyLsgSummarizer.summarize`.
    """
    from .tinylsg.train import summarize_ids

    return summarize_ids(model, text, max_len, lsg)


class IdentitySummarizer:
    def summarize(self, text: str) -> str:
        return text


# A sentence ends at a run of whitespace after ".", "!" or "?". Each pattern
# starts with its literal end mark, so the regex engine skips ahead to the next
# mark in C instead of testing a lookbehind at every character.
_SENTENCE_ENDS = tuple((re.compile(re.escape(mark) + r"\s+"), mark + "\n") for mark in ".!?")


def split_sentences(text: str) -> list[tuple[str, list[str]]]:
    """Newline-then-punctuation sentence split, each sentence paired with its tokens.

    Every line boundary that `str.splitlines` knows becomes a line feed, and so
    does every whitespace run after a sentence end mark. The parts that hold
    tokens are those of cutting the text into lines and each line at its
    sentence ends, up to whitespace at their edges, which is stripped.
    Token-free parts are dropped. Every cut falls on whitespace or a line
    break, so the sentences' tokens together are exactly `tokenize(text)`, and
    one `tokenize_lines` pass over the cut text gives each part's `tokenize`.
    """
    cut = "\n".join(text.splitlines())
    for pattern, replacement in _SENTENCE_ENDS:
        cut = pattern.sub(replacement, cut)
    return [
        (part.strip(), tokens)
        for part, tokens in zip(cut.split("\n"), tokenize_lines(cut))
        if tokens
    ]


class ExtractiveSummarizer:
    """Picks the k sentences whose words are most frequent across the whole text.

    Sentence score = mean corpus frequency of its tokens; ties go to the
    earlier sentence; output keeps source order. Each instance keeps the
    summary of every text it has seen: the slot loop hands a section-blind
    backend's one shared instance every input once per slot, slot after slot,
    and so extracts each distinct input once. Instances are built per run.
    """

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._summaries: dict[str, str] = {}

    def summarize(self, text: str) -> str:
        summary = self._summaries.get(text)
        if summary is None:
            summary = self._summaries[text] = self._extract(text)
        return summary

    def _extract(self, text: str) -> str:
        sentences = split_sentences(text)
        if not sentences:
            return ""
        freq = Counter(chain.from_iterable(tokens for _, tokens in sentences))
        scored = []
        for idx, (sentence, tokens) in enumerate(sentences):
            scored.append((-sum(map(freq.__getitem__, tokens)) / len(tokens), idx, sentence))
        top = sorted(sorted(scored)[: self.k], key=lambda item: item[1])
        return " ".join(sentence for _, _, sentence in top)


class TinyLsgSummarizer:
    def __init__(self, model: TinyModel, lsg: LsgConfig, max_summary_tokens: int):
        self.model = model
        self.lsg = lsg
        self.max_summary_tokens = max_summary_tokens

    def summarize(self, text: str) -> str:
        return self.model.vocab.decode(
            summarize_ids(self.model, text, self.max_summary_tokens, self.lsg)
        )


@dataclass(frozen=True)
class BackendSpec:
    """Which summarizer fills a model slot, plus everything needed to train it."""

    kind: str = "tiny-lsg"
    extract_k: int = 3
    model: ModelConfig = field(default_factory=ModelConfig)
    lsg: LsgConfig = field(default_factory=LsgConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    max_summary_tokens: int = 128

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}")
        for name in ("extract_k", "max_summary_tokens"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class ApproachConfig:
    approach: str
    backend: BackendSpec
    stage2: BackendSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.approach not in APPROACH_TAGS:
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.approach == "multi-layer" and self.stage2 is None:
            raise ValueError("multi-layer runs need a stage2 backend")
        if self.approach != "multi-layer" and self.stage2 is not None:
            raise ValueError(f"only multi-layer runs take a stage2 backend, not {self.approach!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def config_hash(cfg) -> str:
    """SHA-256 of the canonical JSON form of a config: a dataclass, or a dict of JSON values."""
    fields = cfg if isinstance(cfg, dict) else asdict(cfg)
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def train_tiny_lsg(
    backend: BackendSpec,
    pairs: Sequence[tuple[str, str]],
    seed: int,
    log: Callable[[str], None] | None = None,
) -> tuple[TinyModel, list[float]]:
    """Build a vocabulary over `pairs`, then initialise and train a model with `seed`.

    Returns the trained model and its per-epoch mean losses. `log`, when given,
    receives a `vocabulary N tokens, P parameters` line, then one line per epoch.
    """
    from .tinylsg import init_model

    vocab = build_vocab([text for pair in pairs for text in pair])
    model = init_model(backend.model, vocab, seed=seed)
    if log is not None:
        log(f"vocabulary {vocab.size} tokens, {model.num_params} parameters")
    return train(model, pairs, replace(backend.train, seed=seed), backend.lsg, log=log)


# A slot: its training seed and its target rule, which picks the slot's text out
# of a reference and gives None when the reference holds no such text.
_Slot = tuple[int, Callable[[Any], str | None]]
# A source: an input text and its reference.
_Source = tuple[str, Any]


def _build_summarizer(backend: BackendSpec, pairs: Sequence[tuple[str, str]], seed: int):
    """A summarizer of `backend`; tiny-lsg trains on the (text, target) `pairs` with `seed`."""
    if backend.kind == "identity":
        return IdentitySummarizer()
    if backend.kind == "extractive":
        return ExtractiveSummarizer(backend.extract_k)
    trained, _ = train_tiny_lsg(backend, pairs, seed)
    return TinyLsgSummarizer(trained, backend.lsg, backend.max_summary_tokens)


def _fill_slots(backend: BackendSpec, slots: Iterable[_Slot], train_sources: Sequence[_Source],
                inputs: Sequence[_Source]) -> list[list[str]]:
    """Per slot, the text of every source of `inputs`, one slot at a time.

    The oracle writes the target of each input's own reference, "" where that
    reference holds none. A summarizer summarizes each input text. A tiny-lsg
    slot trains on the (text, target) pairs of the `train_sources` whose
    reference holds a target, and its model is dropped before the next slot's
    trains, so a run holds one trained model at a time. A section-blind backend
    fills every slot with one shared instance.
    """
    shared = _build_summarizer(backend, (), 0) if backend.kind in _SECTION_BLIND else None
    outputs = []
    for seed, target in slots:
        if backend.kind == "oracle":
            outputs.append([target(reference) or "" for _, reference in inputs])
            continue
        summarizer = shared or _build_summarizer(backend, [
            (text, goal) for text, reference in train_sources
            if (goal := target(reference)) is not None
        ], seed)
        outputs.append([summarizer.summarize(text) for text, _ in inputs])
        del summarizer
    return outputs


def _section_wise(backend: BackendSpec, seed: int, sources: Sequence[tuple[str, str | None]],
                  n_train: int, first_input: int) -> list[str]:
    """The section-wise note of every (dialogue, reference note) of `sources[first_input:]`.

    The first `n_train` sources are the train sources. Each reference note is
    segmented once; an unlabeled source has no sections. The slots are the
    known sections of the training references, in canonical order, so each
    slot has at least one training pair; a slot trains with `seed` plus its
    section's canonical index, and its target is its section's body. The
    slots' texts are assembled in slot order.
    """
    segmented = [(text, {} if note is None else segment_note(note).bodies())
                 for text, note in sources]
    sections = sorted(
        {section for _, bodies in segmented[:n_train] for section in bodies
         if isinstance(section, Section)},
        key=SECTION_ORDER.index,
    )
    if not sections:
        raise ChartsumError("no known sections found in any training reference")
    slots = [(seed + SECTION_ORDER.index(section), methodcaller("get", section))
             for section in sections]
    outputs = _fill_slots(backend, slots, segmented[:n_train], segmented[first_input:])
    return [
        assemble_note(ChartNote(sections=tuple(
            NoteSection(id=section, body=text) for section, text in zip(sections, texts) if text
        )))
        for texts in zip(*outputs)
    ]


def run_approach(train_corpus: Corpus, eval_corpus: Corpus, cfg: ApproachConfig) -> PredictionSet:
    """Train cfg.approach on train_corpus and summarize every eval_corpus encounter."""
    labeled = train_corpus.labeled()
    n_train = len(labeled)
    # The labeled train encounters, the only ones a model trains from, then the
    # eval ones, each as (dialogue, reference note or None).
    sources = [(e.dialogue, e.note) for e in (*labeled, *eval_corpus)]
    extra: dict[str, str] = {}
    if cfg.approach == "section-wise":
        texts = _section_wise(cfg.backend, cfg.seed, sources, n_train, n_train)
    else:
        # One whole-note slot over the dialogues (single), or over their
        # section-wise notes (multi-layer stage 2).
        backend, seed = cfg.backend, cfg.seed
        if cfg.approach == "multi-layer":
            stage1 = _section_wise(cfg.backend, cfg.seed, sources, n_train, 0)
            sources = [(text, note) for text, (_, note) in zip(stage1, sources)]
            backend, seed = cfg.stage2, cfg.seed + _STAGE2_SEED_OFFSET
            stage1_cfg = replace(cfg, approach="section-wise", stage2=None)
            extra = {
                "stage1_config_hash": config_hash(stage1_cfg),
                "stage1_empty_train": str(stage1[:n_train].count("")),
                "stage1_empty_eval": str(stage1[n_train:].count("")),
            }
        (texts,) = _fill_slots(
            backend, [(seed, lambda note: note)], sources[:n_train], sources[n_train:]
        )
    return PredictionSet(
        approach=cfg.approach,
        entries=dict(zip(eval_corpus.ids(), texts)),
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        extra=extra,
    )


@dataclass(frozen=True)
class RunReport:
    """Full-note aggregate plus the four-division breakdown for one prediction run."""

    approach: str
    scores: AggregateScores
    division_f1: dict[Division, float]
    division_average: float
    config_hash: str
    seed: int
    n_documents: int
    skipped_divisions: int
    unknown_sections: int


def _division_texts(note: ChartNote) -> tuple[dict[Division, str], int]:
    """Concatenated body text per division, plus how many sections were unknown."""
    buckets: dict[Division, list[str]] = {}
    unknown = 0
    for sec in note.sections:
        if isinstance(sec.id, UnknownSection):
            unknown += 1
            continue
        buckets.setdefault(sec.id.division, []).append(sec.body)
    return {div: "\n".join(parts) for div, parts in buckets.items()}, unknown


def _division_average(division_f1: Mapping[Division, float]) -> float:
    """The mean of the four division scores, summed in DIVISIONS order."""
    return sum(division_f1[div] for div in DIVISIONS) / len(DIVISIONS)


def pair_references(candidates: Mapping[str, str], references: Mapping[str, str | None],
                    path: str | Path | None = None) -> list[tuple[str, str, str]]:
    """(id, candidate, reference) per candidate in id order; a missing reference raises
    MissingReference, naming `path`, the references' file, when given."""
    pairs = []
    for eid in sorted(candidates):
        if references.get(eid) is None:
            raise MissingReference(eid, path)
        pairs.append((eid, candidates[eid], references[eid]))
    return pairs


def evaluate(predictions: PredictionSet, eval_corpus: Corpus) -> RunReport:
    """Score predictions against eval references, whole-note and per division."""
    pairs = pair_references(predictions.entries, {e.id: e.note for e in eval_corpus})
    scores = corpus_rouge(pairs)
    division_sums = {div: 0.0 for div in DIVISIONS}
    skipped = 0
    unknown = 0
    for _, candidate, reference in pairs:
        cand_texts, cand_unknown = _division_texts(segment_note(candidate))
        ref_texts, ref_unknown = _division_texts(segment_note(reference))
        unknown += cand_unknown + ref_unknown
        for div in DIVISIONS:
            if div not in cand_texts or div not in ref_texts:
                skipped += 1
                continue
            division_sums[div] += rouge_n(tokenize(cand_texts[div]), tokenize(ref_texts[div]), 1).f1
    division_f1 = {div: division_sums[div] / len(pairs) for div in DIVISIONS}
    return RunReport(
        approach=predictions.approach,
        scores=scores,
        division_f1=division_f1,
        division_average=_division_average(division_f1),
        config_hash=predictions.config_hash,
        seed=predictions.seed,
        n_documents=len(pairs),
        skipped_divisions=skipped,
        unknown_sections=unknown,
    )


def round4(value: float) -> str:
    """Half-up rounding to four decimals, e.g. 0.52675 → '0.5268'."""
    return str(Decimal(str(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


_SCORE_FIELDS = ("precision", "recall", "f1")
_METRICS = ("rouge1", "rouge2", "rougeL")
_DIVISION_COLUMNS = (*(div.value for div in DIVISIONS), "Average")


def _report_rows(runs: Sequence[RunReport]) -> list[list[str]]:
    """Per run: approach, each metric's F1, each division's F1, the division average."""
    return [
        [run.approach, *(round4(getattr(run.scores, m).f1) for m in _METRICS),
         *(round4(run.division_f1[div]) for div in DIVISIONS), round4(run.division_average)]
        for run in runs
    ]


def _display_width(text: str) -> int:
    """Terminal columns of `text`: combining marks take none, East Asian Wide and
    Fullwidth characters two, every other character one."""
    return sum(
        0 if unicodedata.combining(ch)
        else 2 if unicodedata.east_asian_width(ch) in ("W", "F")
        else 1
        for ch in text
    )


def render_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned columns as wide as their longest cell, under a dashed header rule.

    Widths are display widths (`_display_width`), so wide characters keep the
    columns of their row in line.
    """
    widths = [
        max(_display_width(header), *(_display_width(row[i]) for row in rows))
        for i, header in enumerate(headers)
    ]

    def line(cells: list[str]) -> str:
        padded = (cell + " " * (widths[i] - _display_width(cell)) for i, cell in enumerate(cells))
        return "  ".join(padded).rstrip()

    return "\n".join([line(headers), "  ".join("-" * width for width in widths),
                      *(line(row) for row in rows)])


def report(runs: Sequence[RunReport], format: str = "table") -> str:
    """Two comparison tables (full-note metrics; division breakdown), one row per run.

    "json" gives the loss-free `run_report_to_dict` list, the form `report.json` holds.
    """
    if not runs:
        raise ValueError("need at least one run to report")
    rows = _report_rows(runs)
    if format == "table":
        split = 1 + len(_METRICS)
        division = [row[:1] + row[split:] for row in rows]
        return (
            "Full-note scores (F1)\n\n"
            + render_table(["approach", *_METRICS], [row[:split] for row in rows])
            + f"\n\nDivision scores (metric: {DIVISION_METRIC})\n\n"
            + render_table(["approach", *_DIVISION_COLUMNS], division)
            + "\n"
        )
    if format == "csv":
        return csv_text([["approach", *_METRICS, *_DIVISION_COLUMNS], *rows])
    if format == "json":
        return json_text([run_report_to_dict(r) for r in runs])
    raise ValueError(f"unknown report format {format!r}")


def render_scores(scores: AggregateScores, format: str = "text") -> str:
    """Per-document F1 in id order, then each metric's aggregate, as `score` prints them.

    "json" gives `scores_to_dict`, the `scores` object `report.json` holds.
    """
    per_document = [
        [eid, *(round4(getattr(doc, m).f1) for m in _METRICS)]
        for eid, doc in scores.per_document.items()
    ]
    if format == "text":
        aggregate = [[m, *(round4(getattr(getattr(scores, m), f)) for f in _SCORE_FIELDS)]
                     for m in _METRICS]
        return (render_table(["id", *_METRICS], per_document) + "\n\n"
                + render_table(["aggregate", *_SCORE_FIELDS], aggregate) + "\n")
    if format == "csv":
        aggregate = ["AGGREGATE", *(round4(getattr(scores, m).f1) for m in _METRICS)]
        return csv_text([["id", *_METRICS], *per_document, aggregate])
    if format == "json":
        return json_text(scores_to_dict(scores))
    raise ValueError(f"unknown score format {format!r}")


def _metrics_to_dict(scores: AggregateScores | DocumentScores) -> dict[str, dict[str, float]]:
    return {
        metric: {name: getattr(getattr(scores, metric), name) for name in _SCORE_FIELDS}
        for metric in _METRICS
    }


def scores_to_dict(scores: AggregateScores) -> dict:
    """Loss-free JSON form of corpus ROUGE: each metric, then each document's."""
    return {
        **_metrics_to_dict(scores),
        "per_document": {
            doc_id: _metrics_to_dict(doc) for doc_id, doc in scores.per_document.items()
        },
    }


def run_report_to_dict(run: RunReport) -> dict:
    """Loss-free JSON form of a RunReport (floats unrounded)."""
    return {
        "approach": run.approach,
        "scores": scores_to_dict(run.scores),
        "division_f1": {div.value: run.division_f1[div] for div in DIVISIONS},
        "division_average": run.division_average,
        "division_metric": DIVISION_METRIC,
        "config_hash": run.config_hash,
        "seed": run.seed,
        "n_documents": run.n_documents,
        "skipped_divisions": run.skipped_divisions,
        "unknown_sections": run.unknown_sections,
    }


def run_report_from_dict(payload: Mapping) -> RunReport:
    """Inverse of run_report_to_dict.

    A missing or mistyped field, a score outside [0, 1], a division metric
    other than DIVISION_METRIC, or a field that no `evaluate` can write raises
    MalformedFile.
    """
    if not isinstance(payload, dict):
        raise MalformedFile(f"run report must be an object, got {type(payload).__name__}")

    def unit(parent: Mapping, key: str, where: str = "") -> float:
        value = typed(parent, key, NUMBER, where)
        if not 0 <= value <= 1:
            path = f"{where}.{key}" if where else key
            raise MalformedFile(f"{path!r} must be a score in [0, 1], got {value}")
        return value

    def count(key: str, minimum: int) -> int:
        value = typed(payload, key, int)
        if value < minimum:
            raise MalformedFile(f"{key!r} must be >= {minimum}, got {value}")
        return value

    def score(parent: Mapping, metric: str, where: str) -> RougeScore:
        fields = typed(parent, metric, dict, where)
        where = f"{where}.{metric}"
        return RougeScore(**{name: unit(fields, name, where) for name in _SCORE_FIELDS})

    def document(parent: Mapping, doc_id: str, where: str) -> DocumentScores:
        metrics = typed(parent, doc_id, dict, where)
        where = f"{where}.{doc_id}"
        return DocumentScores(**{metric: score(metrics, metric, where) for metric in _METRICS})

    approach = typed(payload, "approach", str)
    if approach not in APPROACH_TAGS:
        raise MalformedFile(
            f"'approach' must be one of {', '.join(map(repr, APPROACH_TAGS))}, got {approach!r}"
        )
    raw = typed(payload, "scores", dict)
    per_document = typed(raw, "per_document", dict, "scores")
    scores = AggregateScores(
        **{metric: score(raw, metric, "scores") for metric in _METRICS},
        per_document={
            doc_id: document(per_document, doc_id, "scores.per_document")
            for doc_id in per_document
        },
    )
    n_documents = count("n_documents", 1)
    if n_documents != len(per_document):
        raise MalformedFile(f"'n_documents' is {n_documents}, but 'scores.per_document' "
                            f"has {len(per_document)} entries")
    skipped_divisions = count("skipped_divisions", 0)
    if skipped_divisions > len(DIVISIONS) * n_documents:
        raise MalformedFile(f"'skipped_divisions' must be at most {len(DIVISIONS)} per document "
                            f"({len(DIVISIONS) * n_documents}), got {skipped_divisions}")
    raw_division_f1 = typed(payload, "division_f1", dict)
    division_f1 = {div: unit(raw_division_f1, div.value, "division_f1") for div in DIVISIONS}
    division_average = unit(payload, "division_average")
    mean = _division_average(division_f1)
    if division_average != mean:
        raise MalformedFile(
            f"'division_average' must be the mean of 'division_f1', {mean}, got {division_average}")
    metric = typed(payload, "division_metric", str)
    if metric != DIVISION_METRIC:
        raise MalformedFile(f"'division_metric' must be {DIVISION_METRIC!r}, got {metric!r}")
    return RunReport(
        approach=approach,
        scores=scores,
        division_f1=division_f1,
        division_average=division_average,
        config_hash=typed(payload, "config_hash", str),
        seed=typed(payload, "seed", int),
        n_documents=n_documents,
        skipped_divisions=skipped_divisions,
        unknown_sections=count("unknown_sections", 0),
    )


def load_run_reports(path: str | Path) -> list[RunReport]:
    """The runs of a `report(format="json")` file; a malformed file raises MalformedFile."""
    payload = read_json(path, "report file")
    if not isinstance(payload, list) or not payload:
        raise MalformedFile(f"{path}: expected a non-empty JSON list of run reports")
    runs = []
    for index, entry in enumerate(payload):
        try:
            runs.append(run_report_from_dict(entry))
        except MalformedFile as exc:
            raise MalformedFile(f"{path}: run {index}: {exc}") from None
    return runs
