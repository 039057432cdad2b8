"""End-to-end orchestration of the three summarization architectures.

Approach "single" trains one dialogue→note summarizer. Approach "section-wise"
trains one summarizer per chart-note section and assembles the outputs.
Approach "multi-layer" feeds the assembled section-wise output through a second
summarizer. Oracle/identity/extractive backends exercise the same plumbing
without any training.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from decimal import ROUND_HALF_UP, Decimal
from io import StringIO
from itertools import chain
from typing import Callable, Mapping, Sequence

from .corpus import APPROACH_TAGS, Corpus, MalformedFile, PredictionSet, _NUMBER, _typed
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
    division_of,
    segment_note,
)
from .tinylsg import (
    LsgConfig,
    ModelConfig,
    TinyModel,
    TrainConfig,
    build_vocab,
    init_model,
    train,
)
from .tinylsg.train import summarize_ids

BACKEND_KINDS = ("identity", "oracle", "extractive", "tiny-lsg")
# Backends whose output ignores the section slot: one instance serves every slot.
_SECTION_BLIND = ("identity", "extractive")
DIVISIONS = tuple(Division)

# Per-slot training seeds: section models use seed + canonical section index,
# the multi-layer second stage uses seed + this offset.
_STAGE2_SEED_OFFSET = len(SECTION_ORDER)


class PipelineError(ChartsumError):
    pass


class MissingReference(PipelineError):
    def __init__(self, encounter_id: str):
        super().__init__(f"no reference note for encounter {encounter_id!r}")
        self.encounter_id = encounter_id


class SectionNeverObserved(PipelineError):
    def __init__(self, section: Section):
        super().__init__(
            f"section {section.value} is configured but appears in no training reference"
        )
        self.section = section


class Summarizer(ABC):
    """Deterministic text → text map; encounter_id lets lookup backends find their row."""

    @abstractmethod
    def summarize(self, text: str, *, encounter_id: str | None = None) -> str:
        raise NotImplementedError


class IdentitySummarizer(Summarizer):
    def summarize(self, text: str, *, encounter_id: str | None = None) -> str:
        return text


class OracleSummarizer(Summarizer):
    """Returns the stored reference for the encounter, ignoring the input text."""

    def __init__(self, references: Mapping[str, str]):
        self._references = dict(references)

    def summarize(self, text: str, *, encounter_id: str | None = None) -> str:
        if encounter_id is None or encounter_id not in self._references:
            raise MissingReference(str(encounter_id))
        return self._references[encounter_id]


_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def split_sentences(text: str) -> list[tuple[str, list[str]]]:
    """Newline-then-punctuation sentence split, each sentence paired with its tokens.

    Token-free fragments are dropped. Every cut falls on whitespace or a line
    break, so the sentences' tokens together are exactly `tokenize(text)`. No
    part holds a line feed, so one `tokenize_lines` pass over the parts joined
    by line feeds gives each part's `tokenize`.
    """
    parts = [part for line in text.splitlines() for part in _SENTENCE_SPLIT.split(line)]
    return [
        (part.strip(), tokens)
        for part, tokens in zip(parts, tokenize_lines("\n".join(parts)))
        if tokens
    ]


class ExtractiveSummarizer(Summarizer):
    """Picks the k sentences whose words are most frequent across the whole text.

    Sentence score = mean corpus frequency of its tokens; ties go to the
    earlier sentence; output keeps source order. The most recent (text, summary)
    pair is kept, so a section-wise run, which hands one shared instance the
    same dialogue once per section slot, extracts each dialogue once.
    """

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._last: tuple[str, str] | None = None

    def summarize(self, text: str, *, encounter_id: str | None = None) -> str:
        if self._last is not None and self._last[0] == text:
            return self._last[1]
        summary = self._extract(text)
        self._last = (text, summary)
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


class TinyLsgSummarizer(Summarizer):
    def __init__(self, model: TinyModel, lsg: LsgConfig, max_summary_tokens: int):
        self.model = model
        self.lsg = lsg
        self.max_summary_tokens = max_summary_tokens

    def summarize(self, text: str, *, encounter_id: str | None = None) -> str:
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
    sections: tuple[Section, ...] | None = None
    stage2: BackendSpec | None = None
    seed: int = 0

    def __post_init__(self):
        if self.approach not in APPROACH_TAGS:
            raise ValueError(f"unknown approach {self.approach!r}")
        if self.approach == "multi-layer" and self.stage2 is None:
            raise ValueError("multi-layer runs need a stage2 backend")
        if self.sections is not None and len(self.sections) == 0:
            raise ValueError("section-wise runs need at least one section")


def config_hash(cfg) -> str:
    """SHA-256 of the canonical JSON form of a config dataclass."""
    canonical = json.dumps(
        asdict(cfg), sort_keys=True, separators=(",", ":"), default=lambda member: member.value
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _reference_lookup(*corpora: Corpus) -> dict[str, str]:
    refs: dict[str, str] = {}
    for corpus in corpora:
        for e in corpus:
            if e.note is not None:
                refs[e.id] = e.note
    return refs


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
    vocab = build_vocab([text for pair in pairs for text in pair])
    model = init_model(backend.model, vocab, seed=seed)
    if log is not None:
        log(f"vocabulary {vocab.size} tokens, {model.num_params} parameters")
    return train(model, pairs, replace(backend.train, seed=seed), backend.lsg, log=log)


def _build_summarizer(
    backend: BackendSpec,
    pairs: Sequence[tuple[str, str]],
    references: Mapping[str, str],
    seed: int,
) -> Summarizer:
    if backend.kind == "identity":
        return IdentitySummarizer()
    if backend.kind == "oracle":
        return OracleSummarizer(references)
    if backend.kind == "extractive":
        return ExtractiveSummarizer(backend.extract_k)
    trained, _ = train_tiny_lsg(backend, pairs, seed)
    return TinyLsgSummarizer(trained, backend.lsg, backend.max_summary_tokens)


def _labeled_pairs(corpus: Corpus) -> list[tuple[str, str, str]]:
    return [(e.id, e.dialogue, e.note) for e in corpus if e.note is not None]


def _run_single(train_corpus: Corpus, eval_corpus: Corpus, cfg: ApproachConfig) -> dict[str, str]:
    """One summarizer over full dialogue → full note."""
    pairs = [(dialogue, note) for _, dialogue, note in _labeled_pairs(train_corpus)]
    summarizer = _build_summarizer(
        cfg.backend, pairs, _reference_lookup(train_corpus, eval_corpus), cfg.seed
    )
    return {e.id: summarizer.summarize(e.dialogue, encounter_id=e.id) for e in eval_corpus}


def _configured_sections(cfg: ApproachConfig, segmented: Mapping[str, ChartNote]) -> list[Section]:
    """Explicit section list, or every known section observed in training references."""
    if cfg.sections is not None:
        return sorted(set(cfg.sections), key=SECTION_ORDER.index)
    observed = {
        sec.id
        for note in segmented.values()
        for sec in note.sections
        if isinstance(sec.id, Section)
    }
    if not observed:
        raise PipelineError("no known sections found in any training reference")
    return sorted(observed, key=SECTION_ORDER.index)


def _train_section_models(
    train_corpus: Corpus, eval_corpus: Corpus, cfg: ApproachConfig
) -> dict[Section, Summarizer]:
    """One summarizer per configured section; a section-blind backend fills every slot
    with one shared instance."""
    labeled = _labeled_pairs(train_corpus)
    segmented = {eid: segment_note(note) for eid, _, note in labeled}
    eval_segmented = {
        e.id: segment_note(e.note) for e in eval_corpus if e.note is not None
    }
    shared = (
        _build_summarizer(cfg.backend, (), {}, cfg.seed)
        if cfg.backend.kind in _SECTION_BLIND
        else None
    )
    models: dict[Section, Summarizer] = {}
    for section in _configured_sections(cfg, segmented):
        pairs = []
        for eid, dialogue, _ in labeled:
            body = segmented[eid].bodies().get(section)
            if body is not None:
                pairs.append((dialogue, body))
        if not pairs:
            raise SectionNeverObserved(section)
        if shared is not None:
            models[section] = shared
            continue
        references = {
            eid: note.bodies()[section]
            for eid, note in {**segmented, **eval_segmented}.items()
            if section in note.bodies()
        }
        seed = cfg.seed + SECTION_ORDER.index(section)
        models[section] = _build_summarizer(cfg.backend, pairs, references, seed)
    return models


def _run_section_wise(models: Mapping[Section, Summarizer], corpus: Corpus) -> dict[str, str]:
    """Per-section summarizer outputs, assembled in canonical order."""
    ordered = sorted(models, key=SECTION_ORDER.index)
    entries = {}
    for e in corpus:
        produced = []
        for section in ordered:
            text = models[section].summarize(e.dialogue, encounter_id=e.id)
            if text:
                produced.append(NoteSection(id=section, body=text))
        entries[e.id] = assemble_note(ChartNote(sections=tuple(produced)))
    return entries


def _run_multi_layer(
    train_corpus: Corpus, eval_corpus: Corpus, cfg: ApproachConfig
) -> tuple[dict[str, str], dict[str, str]]:
    """Section-wise stage 1, then a second summarizer over the assembled text.

    Returns the entries and the stage-1 facts recorded in PredictionSet.extra.
    """
    stage1_cfg = replace(cfg, approach="section-wise", stage2=None)
    models = _train_section_models(train_corpus, eval_corpus, stage1_cfg)
    stage1_train = _run_section_wise(models, train_corpus)
    stage1_eval = _run_section_wise(models, eval_corpus)
    stage2_pairs = [
        (stage1_train[eid], note) for eid, _, note in _labeled_pairs(train_corpus)
    ]
    stage2 = _build_summarizer(
        cfg.stage2,
        stage2_pairs,
        _reference_lookup(train_corpus, eval_corpus),
        cfg.seed + _STAGE2_SEED_OFFSET,
    )
    entries = {
        e.id: stage2.summarize(stage1_eval[e.id], encounter_id=e.id) for e in eval_corpus
    }
    extra = {
        "stage1_config_hash": config_hash(stage1_cfg),
        "stage1_empty_train": str(sum(1 for text in stage1_train.values() if not text)),
        "stage1_empty_eval": str(sum(1 for text in stage1_eval.values() if not text)),
    }
    return entries, extra


def run_approach(train_corpus: Corpus, eval_corpus: Corpus, cfg: ApproachConfig) -> PredictionSet:
    """Train cfg.approach on train_corpus and summarize every eval_corpus encounter."""
    extra: dict[str, str] = {}
    if cfg.approach == "single":
        entries = _run_single(train_corpus, eval_corpus, cfg)
    elif cfg.approach == "section-wise":
        models = _train_section_models(train_corpus, eval_corpus, cfg)
        entries = _run_section_wise(models, eval_corpus)
    else:
        entries, extra = _run_multi_layer(train_corpus, eval_corpus, cfg)
    return PredictionSet(
        approach=cfg.approach,
        entries=entries,
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
    division_metric: str = "rouge1_f1"


def _division_texts(note: ChartNote) -> tuple[dict[Division, str], int]:
    """Concatenated body text per division, plus how many sections were unknown."""
    buckets: dict[Division, list[str]] = {}
    unknown = 0
    for sec in note.sections:
        if isinstance(sec.id, UnknownSection):
            unknown += 1
            continue
        buckets.setdefault(division_of(sec.id), []).append(sec.body)
    return {div: "\n".join(parts) for div, parts in buckets.items()}, unknown


def evaluate(predictions: PredictionSet, eval_corpus: Corpus) -> RunReport:
    """Score predictions against eval references, whole-note and per division."""
    references = {e.id: e.note for e in eval_corpus}
    pairs = []
    for eid in sorted(predictions.entries):
        if references.get(eid) is None:
            raise MissingReference(eid)
        pairs.append((eid, predictions.entries[eid], references[eid]))
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
        division_average=sum(division_f1.values()) / len(DIVISIONS),
        config_hash=predictions.config_hash,
        seed=predictions.seed,
        n_documents=len(pairs),
        skipped_divisions=skipped,
        unknown_sections=unknown,
    )


def round4(value: float) -> str:
    """Half-up rounding to four decimals, e.g. 0.52675 → '0.5268'."""
    return str(Decimal(str(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_UP))


def _report_rows(runs: Sequence[RunReport]) -> list[dict[str, str]]:
    rows = []
    for run in runs:
        row = {
            "approach": run.approach,
            "rouge1": round4(run.scores.rouge1.f1),
            "rouge2": round4(run.scores.rouge2.f1),
            "rougeL": round4(run.scores.rougeL.f1),
        }
        for div in DIVISIONS:
            row[div.value] = round4(run.division_f1[div])
        row["Average"] = round4(run.division_average)
        rows.append(row)
    return rows


def _render_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(header), *(len(row[i]) for row in rows)) for i, header in enumerate(headers)
    ]
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def report(runs: Sequence[RunReport], format: str = "table") -> str:
    """Two comparison tables (full-note metrics; division breakdown), one row per run.

    "json" gives the loss-free `run_report_to_dict` list, the form `report.json` holds.
    """
    if not runs:
        raise ValueError("need at least one run to report")
    rows = _report_rows(runs)
    division_cols = [d.value for d in DIVISIONS] + ["Average"]
    if format == "table":
        full = _render_table(
            ["approach", "rouge1", "rouge2", "rougeL"],
            [[r["approach"], r["rouge1"], r["rouge2"], r["rougeL"]] for r in rows],
        )
        division = _render_table(
            ["approach"] + division_cols,
            [[r["approach"]] + [r[c] for c in division_cols] for r in rows],
        )
        metric = runs[0].division_metric
        return (
            "Full-note scores (F1)\n\n"
            + full
            + f"\n\nDivision scores (metric: {metric})\n\n"
            + division
            + "\n"
        )
    if format == "csv":
        buffer = StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        columns = ["approach", "rouge1", "rouge2", "rougeL"] + division_cols
        writer.writerow(columns)
        for r in rows:
            writer.writerow([r[c] for c in columns])
        return buffer.getvalue()
    if format == "json":
        return json.dumps([run_report_to_dict(r) for r in runs], sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown report format {format!r}")


_SCORE_FIELDS = ("precision", "recall", "f1")
_METRICS = ("rouge1", "rouge2", "rougeL")


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
        "division_metric": run.division_metric,
        "config_hash": run.config_hash,
        "seed": run.seed,
        "n_documents": run.n_documents,
        "skipped_divisions": run.skipped_divisions,
        "unknown_sections": run.unknown_sections,
    }


def run_report_from_dict(payload: Mapping) -> RunReport:
    """Inverse of run_report_to_dict; a missing or mistyped field raises MalformedFile."""
    if not isinstance(payload, dict):
        raise MalformedFile(f"run report must be an object, got {type(payload).__name__}")

    def score(parent: Mapping, metric: str, where: str) -> RougeScore:
        fields = _typed(parent, metric, dict, where)
        where = f"{where}.{metric}"
        return RougeScore(**{name: _typed(fields, name, _NUMBER, where) for name in _SCORE_FIELDS})

    def document(parent: Mapping, doc_id: str, where: str) -> DocumentScores:
        metrics = _typed(parent, doc_id, dict, where)
        where = f"{where}.{doc_id}"
        return DocumentScores(**{metric: score(metrics, metric, where) for metric in _METRICS})

    raw = _typed(payload, "scores", dict)
    per_document = _typed(raw, "per_document", dict, "scores")
    scores = AggregateScores(
        **{metric: score(raw, metric, "scores") for metric in _METRICS},
        per_document={
            doc_id: document(per_document, doc_id, "scores.per_document")
            for doc_id in per_document
        },
    )
    division_f1 = _typed(payload, "division_f1", dict)
    return RunReport(
        approach=_typed(payload, "approach", str),
        scores=scores,
        division_f1={
            div: _typed(division_f1, div.value, _NUMBER, "division_f1") for div in DIVISIONS
        },
        division_average=_typed(payload, "division_average", _NUMBER),
        division_metric=_typed(payload, "division_metric", str),
        config_hash=_typed(payload, "config_hash", str),
        seed=_typed(payload, "seed", int),
        n_documents=_typed(payload, "n_documents", int),
        skipped_divisions=_typed(payload, "skipped_divisions", int),
        unknown_sections=_typed(payload, "unknown_sections", int),
    )
