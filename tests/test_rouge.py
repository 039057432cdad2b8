"""Overlap-metric tests against brute-force reference implementations."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartsum.rouge import (
    _TOKEN_RE,
    _ngram_counts,
    AggregateScores,
    DocumentScores,
    EmptyEvaluation,
    RougeScore,
    corpus_rouge,
    lcs_backend,
    lcs_length,
    rouge_l,
    rouge_n,
    score_pair,
    tokenize,
    tokenize_lines,
)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def brute_lcs(a, b):
    """Longest common subsequence by enumerating every subsequence of a."""
    best = 0
    for r in range(len(a), 0, -1):
        if r <= best:
            break
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(x in it for x in sub):
                best = r
                break
    return best


def dp_lcs(a, b):
    """Longest-common-subsequence length by the rolling-row dynamic program."""
    a = list(a)
    b = list(b)
    if not a or not b:
        return 0
    if len(b) > len(a):
        a, b = b, a  # keep the DP row on the shorter side
    m = len(b)
    row = [0] * (m + 1)
    for x in a:
        prev = 0
        for j in range(1, m + 1):
            cur = row[j]
            if x == b[j - 1]:
                row[j] = prev + 1
            elif row[j - 1] > cur:
                row[j] = row[j - 1]
            prev = cur
    return row[m]


KERNELS = {"bit-parallel": lcs_length, "dp": dp_lcs}


def brute_clipped_ngram_overlap(cand, ref, n):
    """Count candidate n-grams matchable against ref n-grams, with removal."""
    cand_ngrams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
    ref_ngrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
    matched = 0
    pool = list(ref_ngrams)
    for g in cand_ngrams:
        if g in pool:
            pool.remove(g)
            matched += 1
    return matched, len(cand_ngrams), len(ref_ngrams)


def brute_rouge_n(cand, ref, n):
    overlap, n_cand, n_ref = brute_clipped_ngram_overlap(cand, ref, n)
    if n_cand == 0 or n_ref == 0:
        return 0.0, 0.0
    return overlap / n_cand, overlap / n_ref


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

def test_tokenize_lowercases_and_splits_on_nonword():
    assert tokenize("The cat, the CAT!") == ["the", "cat", "the", "cat"]


def test_tokenize_splits_on_underscore_keeps_digits():
    assert tokenize("a_b c3 d") == ["a", "b", "c3", "d"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("  ... !!") == []


def test_tokenize_keeps_stopwords_and_plurals():
    assert tokenize("the cats sat") == ["the", "cats", "sat"]


def ref_tokenize(text):
    """The definition of a token: the regex over the lowered text."""
    return _TOKEN_RE.findall(text.lower())


ORACLE = settings(max_examples=300, deadline=None, derandomize=True)

# Every ASCII character, so each entry of the translate table is exercised.
ascii_text = st.text(st.characters(max_codepoint=127), max_size=80)
# Characters where Unicode and ASCII rules part: İ lowers to two characters,
# Σ lowers by context (ς at a word end), the Kelvin sign lowers to ASCII "k",
# "_" is a word character but no token character, ² and full-width digits are
# digits outside ASCII, and \x1c, \x85 and the no-break space are whitespace
# or line breaks to Python but not all of them to str.split("\n").
mixed_text = st.text(
    st.sampled_from([
        "a", "B", "7", " ", ".", "\n", "İ", "Σ", "ς", "\u212a", "_", "²",
        "\uff10", "\uff19", "\x1c", "\x85", "\xa0",
    ]),
    max_size=80,
)


@ORACLE
@given(text=st.one_of(ascii_text, mixed_text))
def test_tokenize_matches_regex(text):
    assert tokenize(text) == ref_tokenize(text)


@ORACLE
@given(text=st.one_of(ascii_text, mixed_text))
def test_tokenize_lines_matches_tokenize_per_line(text):
    assert tokenize_lines(text) == [tokenize(line) for line in text.split("\n")]


def test_tokenize_fast_path_edge_cases():
    assert tokenize("a_b\tc\x1cd\x7fe-f") == ["a", "b", "c", "d", "e", "f"]
    # The Kelvin sign lowers to ASCII "k"; the full-width digit is a token.
    assert tokenize("\u212aB \uff11x") == ["kb", "\uff11x"]
    assert tokenize("ΑΣ Σ") == ["ας", "σ"]
    assert tokenize_lines("a b\n\nC_d\n") == [["a", "b"], [], ["c", "d"], []]
    assert tokenize_lines("ΑΣ\nΑΣ") == [["ας"], ["ας"]]
    assert tokenize_lines("") == [[]]


# ---------------------------------------------------------------------------
# Frozen worked fixtures
# ---------------------------------------------------------------------------

CAND = "the cat sat on the mat"
REF = "the cat lay on the mat"
CAND_T = tokenize(CAND)
REF_T = tokenize(REF)


def test_fixture_rouge1_exact():
    s = rouge_n(CAND_T, REF_T, 1)
    assert s.precision == 5 / 6
    assert s.recall == 5 / 6
    assert s.f1 == 5 / 6


def test_fixture_rouge2_exact():
    s = rouge_n(CAND_T, REF_T, 2)
    assert s.precision == 3 / 5
    assert s.recall == 3 / 5


def test_fixture_rougel_exact():
    s = rouge_l(CAND_T, REF_T)
    assert s.precision == 5 / 6
    assert s.recall == 5 / 6


def test_identical_sequences_score_one():
    for s in (rouge_n(CAND_T, CAND_T, 1), rouge_n(CAND_T, CAND_T, 2), rouge_l(CAND_T, CAND_T)):
        assert s.precision == 1.0 and s.recall == 1.0 and s.f1 == 1.0


def test_empty_candidate_scores_zero():
    for s in (rouge_n([], REF_T, 1), rouge_n([], REF_T, 2), rouge_l([], REF_T)):
        assert s.precision == 0.0 and s.recall == 0.0 and s.f1 == 0.0


def test_lcs_length_interleaved_fixture():
    assert lcs_length(["a", "b", "c", "d", "e"], ["a", "c", "e"]) == 3


def test_rouge_l_prefix_half_of_reference():
    ref = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    s = rouge_l(ref[:3], ref)
    assert s.precision == 1.0
    assert s.recall == 0.5
    assert s.f1 == 2 * 1.0 * 0.5 / 1.5


def test_corpus_rouge_two_pair_mean_is_half():
    perfect = ("hit", "same words here", "same words here")
    disjoint = ("miss", "zebra yak", "newt gull")
    agg = corpus_rouge([perfect, disjoint])
    assert agg.rouge1.f1 == 0.5
    assert agg.rouge2.f1 == 0.5
    assert agg.rougeL.f1 == 0.5


def test_rouge_n_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        rouge_n(CAND_T, REF_T, 0)


def test_f1_harmonic_mean():
    s = RougeScore.from_pr(0.5, 1.0)
    assert s.f1 == pytest.approx(2 * 0.5 * 1.0 / 1.5)
    assert RougeScore.from_pr(0.0, 0.0).f1 == 0.0


# ---------------------------------------------------------------------------
# LCS: bit-parallel kernel and DP oracle vs brute force, then against each other
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_lcs_kernel_matches_brute_force(kernel):
    rng = random.Random(7)
    for _ in range(200):
        a = [rng.randrange(4) for _ in range(rng.randrange(9))]
        b = [rng.randrange(4) for _ in range(rng.randrange(9))]
        assert kernel(a, b) == brute_lcs(a, b)


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_lcs_kernel_edges(kernel):
    assert kernel([], []) == 0
    assert kernel([1, 2, 3], []) == 0
    assert kernel([], [1]) == 0
    assert kernel([1, 2, 3], [1, 2, 3]) == 3
    assert kernel([1, 2, 3], [3, 2, 1]) == 1


@st.composite
def lcs_pairs(draw):
    """Two token lists of 0-300 tokens over a shared alphabet of 1-50 tokens."""
    alphabet = [f"t{i}" for i in range(draw(st.integers(1, 50)))]
    sides = []
    for _ in range(2):
        n = draw(st.integers(0, 300))
        sides.append(draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n)))
    return sides


@settings(max_examples=200, deadline=None)
@given(pair=lcs_pairs())
def test_bit_parallel_lcs_matches_dp(pair):
    # Masks over up to 300 positions span several machine words, so carries
    # must propagate across word boundaries.
    a, b = pair
    expected = dp_lcs(a, b)
    assert lcs_length(a, b) == expected
    assert lcs_length(b, a) == expected


@pytest.mark.parametrize("alphabet", [3, 40])
def test_bit_parallel_lcs_matches_dp_on_note_length_sequences(alphabet):
    # Scored notes run to several hundred tokens, past the property test's sizes.
    rng = random.Random(alphabet)
    a = [rng.randrange(alphabet) for _ in range(1200)]
    b = [rng.randrange(alphabet) for _ in range(700)]
    expected = dp_lcs(a, b)
    assert lcs_length(a, b) == expected
    assert lcs_length(b, a) == expected


def test_lcs_length_on_token_lists():
    assert lcs_length(["a", "b", "c"], ["a", "c"]) == 2
    assert lcs_length([], ["a"]) == 0
    assert lcs_backend() == "bit-parallel"


# ---------------------------------------------------------------------------
# Randomized agreement with brute-force scoring
# ---------------------------------------------------------------------------

def random_tokens(rng, max_len=8, alphabet=("pa", "re", "mo")):
    return [rng.choice(alphabet) for _ in range(rng.randrange(max_len + 1))]


def test_rouge_n_matches_brute_force_randomized():
    # Alphabets of different sizes make either side the one with fewer
    # distinct n-grams, and make counts clip on both sides.
    rng = random.Random(3)
    alphabets = (("pa",), ("pa", "re"), ("pa", "re", "mo"), ("pa", "re", "mo", "ti", "su", "ka"))
    for _ in range(300):
        cand = random_tokens(rng, 40, rng.choice(alphabets))
        ref = random_tokens(rng, 40, rng.choice(alphabets))
        for n in (1, 2, 3, 4):
            got = rouge_n(cand, ref, n)
            p, r = brute_rouge_n(cand, ref, n)
            f1 = 2 * p * r / (p + r) if p + r > 0 else 0.0
            assert (got.precision, got.recall, got.f1) == (p, r, f1)


def test_rouge_l_matches_brute_force_randomized():
    rng = random.Random(5)
    for _ in range(300):
        cand, ref = random_tokens(rng), random_tokens(rng)
        got = rouge_l(cand, ref)
        length = brute_lcs(cand, ref)
        p = length / len(cand) if cand else 0.0
        r = length / len(ref) if ref else 0.0
        if not cand or not ref:
            p = r = 0.0
        assert got.precision == p and got.recall == r


def ref_ngram_counts(tokens, n):
    """n-gram counts keyed by tuple, except that a unigram is keyed by its token."""
    grams = [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]
    return Counter(gram[0] for gram in grams) if n == 1 else Counter(grams)


@ORACLE
@given(tokens=st.lists(st.sampled_from(["pa", "re", "mo"]), max_size=12), n=st.integers(1, 4))
def test_ngram_counts_match_slice_reference(tokens, n):
    got = _ngram_counts(tokens, n)
    assert got == ref_ngram_counts(tokens, n)
    assert sum(got.values()) == max(len(tokens) - n + 1, 0)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

token_lists = st.lists(st.sampled_from(["pa", "re", "mo", "ti"]), max_size=12)


@settings(max_examples=150, deadline=None)
@given(a=token_lists, b=token_lists)
def test_precision_recall_duality(a, b):
    for n in (1, 2):
        ab, ba = rouge_n(a, b, n), rouge_n(b, a, n)
        assert ab.precision == ba.recall
        assert ab.recall == ba.precision
    ab, ba = rouge_l(a, b), rouge_l(b, a)
    assert ab.precision == ba.recall
    assert ab.recall == ba.precision


@settings(max_examples=150, deadline=None)
@given(a=token_lists, b=token_lists)
def test_scores_bounded(a, b):
    for s in (rouge_n(a, b, 1), rouge_n(a, b, 2), rouge_l(a, b)):
        assert 0.0 <= s.precision <= 1.0
        assert 0.0 <= s.recall <= 1.0
        assert 0.0 <= s.f1 <= max(s.precision, s.recall) + 1e-12


@settings(max_examples=150, deadline=None)
@given(a=token_lists, b=token_lists, extra=st.sampled_from(["pa", "re", "mo", "ti"]))
def test_recall_monotone_in_candidate_growth(a, b, extra):
    """Appending a reference token to the candidate never lowers R1 recall."""
    base = rouge_n(a, b, 1).recall
    if extra in b:
        grown = rouge_n(a + [extra], b, 1).recall
        assert grown >= base


def test_score_pair_bundles_three_metrics():
    d = score_pair(CAND, REF)
    assert isinstance(d, DocumentScores)
    assert d.rouge1.precision == 5 / 6
    assert d.rouge2.precision == 3 / 5
    assert d.rougeL.precision == 5 / 6


# ---------------------------------------------------------------------------
# Corpus aggregation
# ---------------------------------------------------------------------------

def test_corpus_rouge_empty_raises():
    with pytest.raises(EmptyEvaluation):
        corpus_rouge([])


def test_corpus_rouge_means_and_order_invariance():
    triples = [("a", CAND, REF), ("b", CAND, CAND), ("c", "", REF)]
    agg = corpus_rouge(triples)
    assert isinstance(agg, AggregateScores)
    assert len(agg.per_document) == 3
    assert agg.rouge1.precision == (5 / 6 + 1.0 + 0.0) / 3
    assert agg.rougeL.recall == (5 / 6 + 1.0 + 0.0) / 3
    shuffled = corpus_rouge(list(reversed(triples)))
    assert shuffled == agg


def test_corpus_rouge_per_document_keyed_by_id():
    agg = corpus_rouge([("x", CAND, REF)])
    assert set(agg.per_document) == {"x"}
    assert agg.per_document["x"].rouge2.precision == 3 / 5
