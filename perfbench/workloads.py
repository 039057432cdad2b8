"""Seeded synthetic corpora and the `chartsum run` flags of each benchmark workload.

The generator does not import chartsum: a change to the package must not
change the benchmark's inputs. Token counts follow chartsum's tokenizer
(lowercased runs of letters and digits); every word here is plain lowercase
ASCII, so one word is one token.

Lengths are stratified: for n documents the target lengths are n evenly spaced
points of the workload's range, shuffled by the seed. Every seed therefore
gets the same multiset of dialogue and note lengths; only the words and their
order change.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

# Five canonical sections spanning all four scoring divisions.
SECTIONS = (
    ("CHIEF COMPLAINT", "cc", 0.10),
    ("HISTORY OF PRESENT ILLNESS", "hpi", 0.30),
    ("PHYSICAL EXAM", "pe", 0.20),
    ("RESULTS", "results", 0.15),
    ("ASSESSMENT AND PLAN", "ap", 0.25),
)
HEADER_TOKENS = sum(len(header.split()) for header, _, _ in SECTIONS)
MAX_INPUT = 512  # the `chartsum run --max-input` default, passed explicitly

# No word below is, or combines into, a section-header alias, so a body line
# is never mistaken for a header by the note segmenter.
_PARTS = ["knee", "ankle", "wrist", "shoulder", "elbow", "hip", "neck", "lower back", "foot"]
_SIDES = ["left", "right", "both"]
_SYMPTOMS = ["pain", "swelling", "stiffness", "soreness", "numbness", "aching", "tingling"]
_DURATIONS = ["two", "three", "four", "five", "six", "seven", "ten", "twelve"]
_UNITS = ["days", "weeks", "months"]
_QUALITY = ["sharp", "dull", "burning", "throbbing", "constant", "intermittent", "mild"]
_TRIGGERS = ["stairs", "running", "lifting", "typing", "sleeping", "walking", "kneeling"]
_FINDINGS = ["tender", "swollen", "warm", "stable", "bruised", "intact", "guarded"]
_TESTS = ["xray", "mri", "ultrasound", "blood count", "uric acid", "sed rate"]
_OUTCOMES = ["normal", "unremarkable", "negative", "mildly degenerative", "slightly elevated"]
_TREATMENTS = [
    "rest and ice", "gentle stretching", "light duty", "ibuprofen with food",
    "a brace at night", "physical therapy", "elevation after work",
]
_FOLLOWUP = ["two weeks", "one month", "six weeks", "three months"]
_FILLER = [
    "thanks that sounds manageable", "okay i can do that", "let me write that down",
    "how has your sleep been lately", "any other questions before we finish",
    "i will send the summary to your portal", "the nurse will come in shortly",
    "my daughter drove me here today", "traffic was heavy this morning",
    "we can talk about that next visit", "that makes sense to me",
    "please call the office if anything changes", "i was worried about it",
]


def _sentence(kind: str, rng: random.Random) -> str:
    c = rng.choice
    if kind == "cc":
        return f"{c(_SIDES)} {c(_PARTS)} {c(_SYMPTOMS)}"
    if kind == "hpi":
        return c([
            f"the {c(_QUALITY)} {c(_SYMPTOMS)} started {c(_DURATIONS)} {c(_UNITS)} ago",
            f"it gets worse with {c(_TRIGGERS)} and better with rest",
            f"the {c(_PARTS)} {c(_SYMPTOMS)} wakes the patient at night",
            f"no prior injury to the {c(_SIDES)} {c(_PARTS)} was reported",
        ])
    if kind == "pe":
        return c([
            f"the {c(_SIDES)} {c(_PARTS)} is {c(_FINDINGS)} to touch",
            f"range of motion is limited by {c(_DURATIONS)} degrees",
            f"strength and sensation are {c(_FINDINGS)} on that side",
        ])
    if kind == "results":
        return c([
            f"the {c(_TESTS)} came back {c(_OUTCOMES)}",
            f"a repeat {c(_TESTS)} was {c(_OUTCOMES)} as well",
        ])
    if kind == "ap":
        return c([
            f"likely {c(_QUALITY)} strain of the {c(_PARTS)}",
            f"start {c(_TREATMENTS)} for {c(_DURATIONS)} {c(_UNITS)}",
            f"follow up in {c(_FOLLOWUP)} or sooner if worse",
        ])
    return c(_FILLER)


def _sentences(kind: str, n_tokens: int, rng: random.Random) -> list[list[str]]:
    """Sentences (as word lists) of one kind totalling exactly n_tokens words."""
    out: list[list[str]] = []
    total = 0
    while total < n_tokens:
        words = _sentence(kind, rng).split()[: n_tokens - total]
        out.append(words)
        total += len(words)
    return out


def _stratified(lo: int, hi: int, n: int, rng: random.Random) -> list[int]:
    values = [lo + round((hi - lo) * (i + 0.5) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def _document(dialogue_tokens: int, note_tokens: int, rng: random.Random) -> tuple[str, str]:
    """One dialogue whose lines carry every note sentence verbatim, plus filler lines."""
    body_tokens = note_tokens - HEADER_TOKENS
    sizes = [max(2, round(body_tokens * weight)) for _, _, weight in SECTIONS]
    sizes[1] += body_tokens - sum(sizes)  # HPI absorbs rounding so the note is exact
    note_parts: list[str] = []
    content: list[list[str]] = []
    for (header, kind, _), size in zip(SECTIONS, sizes):
        sentences = _sentences(kind, size, rng)
        note_parts.extend([header, "", ". ".join(" ".join(s) for s in sentences) + ".", ""])
        content.extend(sentences)
    # Each dialogue line costs one extra token for its speaker tag.
    filler_tokens = dialogue_tokens - sum(len(s) + 1 for s in content)
    if filler_tokens < 2:
        raise ValueError(
            f"dialogue of {dialogue_tokens} tokens cannot hold a {note_tokens}-token note"
        )
    filler = []
    while filler_tokens >= 2:
        words = _sentence("filler", rng).split()[: filler_tokens - 1]
        filler.append(words)
        filler_tokens -= len(words) + 1
    if filler_tokens:
        filler[-1].append("today")
    # Filler lands at random points; note content keeps section order.
    lines = list(zip(sorted(rng.random() for _ in content), content))
    lines += zip(sorted(rng.random() for _ in filler), filler)
    lines.sort(key=lambda item: item[0])
    dialogue = "\n".join(
        f"{rng.choice(('doctor', 'patient'))}: {' '.join(words)}." for _, words in lines
    )
    return dialogue, "\n".join(note_parts)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    approach: str
    backend: str
    n_train: int
    n_eval: int
    dialogue_tokens: tuple[int, int]
    note_tokens: tuple[int, int]
    epochs: int = 1
    # Further `chartsum run` flags; the benchmark never passes --jobs.
    flags: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wise-short",
            why="section-wise tiny-lsg on short dialogues: many small per-slot train steps "
                "and short decodes, so Python dispatch dominates and block-sparse attention "
                "has nothing to skip",
            approach="section-wise",
            backend="tiny-lsg",
            n_train=30,
            n_eval=10,
            dialogue_tokens=(60, 90),
            note_tokens=(36, 52),
            epochs=3,
            flags=("--lr", "2e-3", "--batch-size", "2", "--max-summary-tokens", "64"),
        ),
        Workload(
            name="single-long",
            why="single tiny-lsg on 400-560 token dialogues (some cut at --max-input 512): "
                "encoder attention at n~513 and long-prefix decoding dominate, scoring is "
                "negligible",
            approach="single",
            backend="tiny-lsg",
            n_train=12,
            n_eval=4,
            dialogue_tokens=(400, 560),
            note_tokens=(100, 150),
            epochs=2,
            flags=("--lr", "2e-3", "--batch-size", "4", "--max-summary-tokens", "128"),
        ),
        Workload(
            name="score-bulk",
            why="section-wise extractive over 400 long-note eval docs: no model, so LCS, "
                "note segmentation, tokenizing and corpus I/O dominate",
            approach="section-wise",
            backend="extractive",
            n_train=20,
            n_eval=400,
            dialogue_tokens=(600, 800),
            note_tokens=(250, 500),
        ),
    )
}


def _write_csv(path: Path, rows: list[tuple[str, str, str]]) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("id", "dialogue", "note"))
        writer.writerows(rows)
    return path.stat().st_size


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write train.csv and eval.csv for the workload; return their shape statistics."""
    rng = random.Random(f"{workload.name}:{seed}")
    stats: dict = {}
    for split, n in (("train", workload.n_train), ("eval", workload.n_eval)):
        dialogue_lengths = _stratified(*workload.dialogue_tokens, n, rng)
        note_lengths = _stratified(*workload.note_tokens, n, rng)
        rows = []
        for i, (d_len, n_len) in enumerate(zip(dialogue_lengths, note_lengths)):
            dialogue, note = _document(d_len, n_len, rng)
            rows.append((f"{split}-{i:04d}", dialogue, note))
        size = _write_csv(out_dir / f"{split}.csv", rows)
        stats[split] = {
            "docs": n,
            "bytes": size,
            "dialogue_tokens_mean": sum(dialogue_lengths) / n,
            "dialogue_tokens_max": max(dialogue_lengths),
            "note_tokens_mean": sum(note_lengths) / n,
            "note_tokens_max": max(note_lengths),
            "share_over_max_input": sum(d > MAX_INPUT for d in dialogue_lengths) / n,
        }
    return stats
