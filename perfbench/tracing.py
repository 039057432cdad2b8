"""Traced runs: spans around chartsum's public functions, installed from outside.

Every wrapper is put at each binding that callers use, because modules import
these functions by name: patching only the defining module would miss the
calls. The pipeline, for example, calls `train`, `summarize_ids`,
`segment_note`, `tokenize` and friends through its own module globals. Note
that `chartsum.tinylsg.train` resolves to the *function* (the package
re-exports it), so the training module is reached through `sys.modules`.

A span is [name, start, end, parent index]. Spans stay in memory until the
benchmark ends. A layer's self time is its spans' duration minus the duration
of their direct children.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import chartsum.cli as cli_mod
import chartsum.pipeline as pipeline_mod
import chartsum.rouge as rouge_mod
import chartsum.tinylsg.vocab as vocab_mod
from chartsum.sections import Section, segment_note
from chartsum.tinylsg import lsg_mask, mask_density

train_mod = sys.modules["chartsum.tinylsg.train"]


class Tracer:
    """Span and call-argument recorder for one traced operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, keep=None):
        """Wrap fn in a span; keep(args, kwargs, result) picks what to record per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if keep is not None:
                self.calls[name].append(keep(args, kwargs, result))
            return result

        return traced


def _keep_args(args, kwargs, result):
    return args


def _keep_generate(args, kwargs, result):
    _, src, max_len, lsg = args
    return len(src), len(result), max_len, lsg


def _keep_loss(args, kwargs, result):
    return len(args[1]), args[3]


def _keep_train(args, kwargs, result):
    model, pairs, tc, lsg = args[:4]
    return model.vocab, pairs, tc, lsg, result[1]


def _keep_summarize(args, kwargs, result):
    # Slot identity: a trained model is its own slot; extractive slots with the
    # same k are interchangeable, so repeating one of them is redundant work.
    summarizer, text = args[0], args[1]
    if isinstance(summarizer, pipeline_mod.ExtractiveSummarizer):
        return ("extractive", summarizer.k), text
    return id(summarizer), text


def _keep_lcs(args, kwargs, result):
    return len(args[0]) * len(args[1])


# (span name, module or class holding the binding, attribute, what to record).
# One row per binding: a function imported by name into several modules
# appears once per module, under one span name.
BINDINGS = (
    ("cli.main", cli_mod, "main", None),
    ("corpus.load_corpus", cli_mod, "load_corpus", _keep_args),
    ("corpus.save_predictions", cli_mod, "save_predictions", None),
    ("pipeline.run_approach", cli_mod, "run_approach", None),
    ("pipeline.evaluate", cli_mod, "evaluate", None),
    ("pipeline.summarize", pipeline_mod.ExtractiveSummarizer, "summarize", _keep_summarize),
    ("pipeline.summarize", pipeline_mod.TinyLsgSummarizer, "summarize", _keep_summarize),
    ("sections.segment_note", pipeline_mod, "segment_note", _keep_args),
    ("sections.assemble_note", pipeline_mod, "assemble_note", None),
    ("rouge.corpus_rouge", pipeline_mod, "corpus_rouge", None),
    ("rouge.rouge_n", pipeline_mod, "rouge_n", None),
    ("rouge.rouge_n", rouge_mod, "rouge_n", None),
    ("rouge.tokenize", pipeline_mod, "tokenize", None),
    ("rouge.tokenize", rouge_mod, "tokenize", None),
    ("rouge.tokenize", vocab_mod, "tokenize", None),
    ("rouge.lcs_length", rouge_mod, "lcs_length", _keep_lcs),
    ("tinylsg.vocab.build_vocab", pipeline_mod, "build_vocab", None),
    ("tinylsg.train.train", pipeline_mod, "train", _keep_train),
    ("tinylsg.train.summarize_ids", pipeline_mod, "summarize_ids", None),
    ("tinylsg.train.generate", train_mod, "generate", _keep_generate),
    ("tinylsg.model.loss_and_grads", train_mod, "loss_and_grads", _keep_loss),
)


@contextmanager
def installed(tracer: Tracer):
    """Patch every binding with a traced wrapper; restore the originals on exit."""
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr, _ in BINDINGS]
    try:
        for (name, owner, attr, keep), (_, _, original) in zip(BINDINGS, originals):
            setattr(owner, attr, tracer.wrap(name, original, keep))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _times(spans: list[list]) -> tuple[dict[str, float], dict[str, float], Counter]:
    """Total time, self time and span count per name."""
    total: dict[str, float] = defaultdict(float)
    children: dict[int, float] = defaultdict(float)
    count: Counter = Counter()
    for name, start, end, parent in spans:
        total[name] += end - start
        count[name] += 1
        if parent >= 0:
            children[parent] += end - start
    own: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        own[name] += end - start - children.get(index, 0.0)
    return total, own, count


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, out_dir: Path) -> tuple[list[tuple[str, float, str]], Counter]:
    """(name, value, unit) of each per-layer metric of one traced operation, and span counts.

    Times are totals over the operation's spans, except these self times:
    tinylsg.train_s, rouge.corpus_rouge_s, pipeline.run_approach_s,
    pipeline.evaluate_s, pipeline.summarize_s and cli.main_s.
    """
    total, own, count = _times(tracer.spans)
    calls = tracer.calls

    gen = calls["tinylsg.train.generate"]
    gen_tokens = sum(emitted for _, emitted, _, _ in gen)
    # A decode that stops at EOS runs one step more than it emits.
    gen_steps = sum(emitted + (emitted < cap) for _, emitted, cap, _ in gen)

    examples = steps = target_tokens = truncated = 0
    final_losses = []
    for vocab, pairs, tc, lsg, history in calls["tinylsg.train.train"]:
        examples += len(pairs)
        steps += tc.epochs * math.ceil(len(pairs) / tc.batch_size)
        for src, tgt in pairs:
            truncated += len(vocab.encode(src)) > lsg.max_input_tokens
            target_tokens += len(vocab.encode(tgt))
        final_losses.append(history[-1])

    # Encoder length = global-token prefix + (truncated) source, or one UNK if empty.
    encoder_lengths = [
        (max(1, lsg.num_global + n), lsg)
        for n, lsg in calls["tinylsg.model.loss_and_grads"] + [(n, lsg) for n, _, _, lsg in gen]
    ]
    densities = {key: mask_density(lsg_mask(*key)) for key in set(encoder_lengths)}

    lcs_cells = sum(calls["rouge.lcs_length"])
    segment_texts = [args[0] for args in calls["sections.segment_note"]]
    summarize = calls["pipeline.summarize"]
    loads = calls["corpus.load_corpus"]

    metrics = [
        ("tinylsg.model.loss_and_grads_s", total["tinylsg.model.loss_and_grads"], "s"),
        ("tinylsg.model.loss_and_grads_calls", count["tinylsg.model.loss_and_grads"], "count"),
        ("tinylsg.model.loss_and_grads_ms",
         1e3 * _ratio(total["tinylsg.model.loss_and_grads"],
                      count["tinylsg.model.loss_and_grads"]), "ms"),
        ("tinylsg.train.step_ms", 1e3 * _ratio(total["tinylsg.train.train"], steps), "ms"),
        ("tinylsg.train_s", own["tinylsg.train.train"], "s"),
        ("tinylsg.train.examples", examples, "count"),
        ("tinylsg.train.steps", steps, "count"),
        ("tinylsg.train.target_tokens", target_tokens, "count"),
        ("tinylsg.train.truncated_sources", truncated, "count"),
        ("tinylsg.train.final_loss_mean", _mean(final_losses), "nat/token"),
        ("tinylsg.generate_s", total["tinylsg.train.generate"], "s"),
        ("tinylsg.generate.calls", count["tinylsg.train.generate"], "count"),
        ("tinylsg.generate.tokens", gen_tokens, "count"),
        ("tinylsg.generate.ms_per_token",
         1e3 * _ratio(total["tinylsg.train.generate"], gen_steps), "ms"),
        ("tinylsg.generate.cap_hits", sum(emitted == cap for _, emitted, cap, _ in gen), "count"),
        ("tinylsg.generate.src_tokens", sum(n for n, _, _, _ in gen), "count"),
        ("tinylsg.masks.lsg_density_computed",
         _mean([densities[key] for key in encoder_lengths]), "ratio"),
        ("tinylsg.vocab.build_vocab_s", total["tinylsg.vocab.build_vocab"], "s"),
        ("rouge.lcs_s", total["rouge.lcs_length"], "s"),
        ("rouge.lcs_calls", count["rouge.lcs_length"], "count"),
        ("rouge.lcs_cells", lcs_cells, "count"),
        ("rouge.lcs_ns_per_cell", 1e9 * _ratio(total["rouge.lcs_length"], lcs_cells), "ns"),
        ("rouge.corpus_rouge_s", own["rouge.corpus_rouge"], "s"),
        ("rouge.rouge_n_s", total["rouge.rouge_n"], "s"),
        ("rouge.tokenize_s", total["rouge.tokenize"], "s"),
        ("rouge.tokenize_calls", count["rouge.tokenize"], "count"),
        ("sections.segment_note_s", total["sections.segment_note"], "s"),
        ("sections.segment_note_calls", count["sections.segment_note"], "count"),
        ("sections.segment_note_distinct_ratio",
         _ratio(len(set(segment_texts)), len(segment_texts)), "ratio"),
        ("sections.assemble_note_s", total["sections.assemble_note"], "s"),
        ("pipeline.run_approach_s", own["pipeline.run_approach"], "s"),
        ("pipeline.evaluate_s", own["pipeline.evaluate"], "s"),
        ("pipeline.summarize_s", own["pipeline.summarize"], "s"),
        ("pipeline.summarize_calls", count["pipeline.summarize"], "count"),
        ("pipeline.summarize_distinct_ratio", _ratio(len(set(summarize)), len(summarize)), "ratio"),
        ("corpus.load_s", total["corpus.load_corpus"], "s"),
        ("corpus.load_bytes", sum(Path(args[0]).stat().st_size for args in loads), "bytes"),
        ("corpus.save_predictions_s", total["corpus.save_predictions"], "s"),
        ("cli.main_s", own["cli.main"], "s"),
        ("cli.write_bytes", sum(p.stat().st_size for p in out_dir.iterdir()), "bytes"),
    ]
    return metrics, count


def expected_counts(train_notes: list[str], eval_notes: dict[str, str],
                    predictions: dict[str, str], approach: str, backend: str,
                    epochs: int) -> dict[str, int]:
    """Span counts one `chartsum run` must produce, derived from its inputs and outputs.

    Computed with the untraced functions. A refactor that routes a call around
    a wrapper makes the traced count differ from these.
    """
    n_eval = len(eval_notes)
    if approach == "single":
        slot_pairs = [len(train_notes)]
    else:
        per_note = [
            {sec.id for sec in segment_note(note).sections if isinstance(sec.id, Section)}
            for note in train_notes
        ]
        slot_pairs = [
            sum(section in ids for ids in per_note) for section in set().union(*per_note)
        ]
    slots = len(slot_pairs)
    tiny = backend == "tiny-lsg"
    tokenize = rouge_mod.tokenize
    # ROUGE-L skips the LCS when either side has no tokens.
    lcs_pairs = sum(
        bool(tokenize(text)) and bool(tokenize(eval_notes[eid]))
        for eid, text in predictions.items()
    )
    return {
        "cli.main": 1,
        "corpus.load_corpus": 2,
        "corpus.save_predictions": 1,
        "pipeline.run_approach": 1,
        "pipeline.evaluate": 1,
        "rouge.corpus_rouge": 1,
        "rouge.lcs_length": lcs_pairs,
        "pipeline.summarize": n_eval * slots,
        "tinylsg.train.train": slots if tiny else 0,
        "tinylsg.vocab.build_vocab": slots if tiny else 0,
        "tinylsg.train.generate": n_eval * slots if tiny else 0,
        "tinylsg.train.summarize_ids": n_eval * slots if tiny else 0,
        "tinylsg.model.loss_and_grads": epochs * sum(slot_pairs) if tiny else 0,
        # Section-wise segments every train and eval reference once; evaluate
        # segments each candidate and reference.
        "sections.segment_note": 2 * n_eval
        + (len(train_notes) + n_eval if approach == "section-wise" else 0),
        "sections.assemble_note": n_eval if approach == "section-wise" else 0,
    }
