"""Exact ROUGE-1/2/L scoring with deterministic tokenization and corpus aggregation.

The longest-common-subsequence step is the bit-parallel algorithm of Allison &
Dix (1986) in the formulation of Hyyrö (2004), "Bit-parallel LCS-length
computation revisited": one Python int holds a whole DP row as a bit vector,
so each token of one side costs a handful of big-int operations instead of a
row of DP cells.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ChartsumError


class EmptyEvaluation(ChartsumError):
    """Raised when corpus-level scoring receives no candidate/reference pairs."""


# The definition of a token: a maximal run of Unicode letters and digits.
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)

# On ASCII text a token is a run of [a-z0-9] after lowering, so mapping every
# other ASCII character to a space (keeping line feeds for `tokenize_lines`)
# and splitting on whitespace yields exactly the regex's tokens.
_ASCII_SEPARATORS = str.maketrans(
    {chr(c): " " for c in range(128) if not chr(c).isalnum() and chr(c) != "\n"}
)


def lcs_backend() -> str:
    """Name of the LCS kernel, recorded by benchmark runs."""
    return "bit-parallel"


def tokenize(text: str) -> list[str]:
    """Lowercase `text` and split on any run of non-alphanumeric characters.

    Digits are kept; there is no stemming and no stopword removal. ASCII text
    takes a translate-and-split path that yields the same tokens as the regex.
    """
    lowered = text.lower()
    if lowered.isascii():
        return lowered.translate(_ASCII_SEPARATORS).split()
    return _TOKEN_RE.findall(lowered)


def tokenize_lines(text: str) -> list[list[str]]:
    """`[tokenize(line) for line in text.split("\\n")]` in one pass over the text.

    Lowering the whole text equals lowering each line: a line feed is neither
    cased nor case-ignorable, so it bounds the context of a Greek final sigma.
    """
    lowered = text.lower()
    if lowered.isascii():
        return [line.split() for line in lowered.translate(_ASCII_SEPARATORS).split("\n")]
    return [_TOKEN_RE.findall(line) for line in lowered.split("\n")]


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "RougeScore":
        denom = precision + recall
        f1 = 2.0 * precision * recall / denom if denom > 0.0 else 0.0
        return cls(precision, recall, f1)

    @classmethod
    def zero(cls) -> "RougeScore":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class DocumentScores:
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore


@dataclass(frozen=True)
class AggregateScores:
    """Corpus means (component-wise over documents) plus the per-document detail."""

    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    per_document: dict[str, DocumentScores]


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    """Multiset of the n-grams of `tokens`; a unigram is keyed by the token itself."""
    if n == 1:
        return Counter(tokens)
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """Clipped n-gram multiset overlap between two token sequences.

    A sequence of k tokens holds k - n + 1 n-grams. The overlap sums, over the
    distinct n-grams of the side with fewer of them, the smaller of the two
    counts.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cand_total = len(candidate) - n + 1
    ref_total = len(reference) - n + 1
    if cand_total <= 0 or ref_total <= 0:
        return RougeScore.zero()
    fewer = _ngram_counts(candidate, n)
    more = _ngram_counts(reference, n)
    if len(fewer) > len(more):
        fewer, more = more, fewer
    get = more.get
    overlap = 0
    for gram, count in fewer.items():
        other = get(gram)
        if other:
            overlap += count if count < other else other
    return RougeScore.from_pr(overlap / cand_total, overlap / ref_total)


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common subsequence of two token sequences.

    After each token of the longer side, bit i of `v` is 0 exactly where the
    DP row over the shorter side steps up at position i, so the LCS length is
    the number of zero bits. Tokens of the longer side that never occur in the
    shorter one leave `v` unchanged.
    """
    if len(a) > len(b):
        a, b = b, a  # the bit vector spans the shorter side
    if not a:
        return 0
    masks: dict = {}
    for i, token in enumerate(a):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for token in b:
        match = masks.get(token)
        if match:
            u = v & match
            v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """LCS-based score over whole token sequences (sentence-agnostic)."""
    if not candidate or not reference:
        return RougeScore.zero()
    length = lcs_length(candidate, reference)
    return RougeScore.from_pr(length / len(candidate), length / len(reference))


def score_pair(candidate_text: str, reference_text: str) -> DocumentScores:
    """Tokenize two texts and score ROUGE-1, ROUGE-2, and ROUGE-L."""
    cand = tokenize(candidate_text)
    ref = tokenize(reference_text)
    return DocumentScores(
        rouge1=rouge_n(cand, ref, 1),
        rouge2=rouge_n(cand, ref, 2),
        rougeL=rouge_l(cand, ref),
    )


def _mean_scores(scores: Iterable[RougeScore]) -> RougeScore:
    scores = list(scores)
    k = len(scores)
    return RougeScore(
        precision=sum(s.precision for s in scores) / k,
        recall=sum(s.recall for s in scores) / k,
        f1=sum(s.f1 for s in scores) / k,
    )


def corpus_rouge(pairs: Sequence[tuple[str, str, str]]) -> AggregateScores:
    """Score (id, candidate text, reference text) triples and average per document.

    Corpus values are unweighted arithmetic means of the per-document scores,
    independent of pair order.
    """
    if not pairs:
        raise EmptyEvaluation("no candidate/reference pairs to score")
    per_document: dict[str, DocumentScores] = {}
    for doc_id, cand_text, ref_text in pairs:
        per_document[doc_id] = score_pair(cand_text, ref_text)
    docs = [per_document[doc_id] for doc_id in sorted(per_document)]
    return AggregateScores(
        rouge1=_mean_scores(d.rouge1 for d in docs),
        rouge2=_mean_scores(d.rouge2 for d in docs),
        rougeL=_mean_scores(d.rougeL for d in docs),
        per_document=per_document,
    )
