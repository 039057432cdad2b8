"""Pipeline tests: summarizer backends, the three approaches, scoring, reports."""

from __future__ import annotations

import csv
import gc
import json
import re
import weakref
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartsum.corpus import Corpus, Encounter, PredictionSet
from chartsum.errors import ChartsumError
from chartsum.pipeline import (
    DIVISION_METRIC,
    DIVISIONS,
    ApproachConfig,
    BackendSpec,
    ExtractiveSummarizer,
    IdentitySummarizer,
    MissingReference,
    RunReport,
    _STAGE2_SEED_OFFSET,
    config_hash,
    evaluate,
    pair_references,
    render_scores,
    report,
    round4,
    run_approach,
    run_report_from_dict,
    run_report_to_dict,
    scores_to_dict,
    split_sentences,
    train_tiny_lsg,
)
from chartsum.rouge import rouge_n, tokenize
from chartsum.sections import (
    SECTION_ORDER,
    ChartNote,
    Division,
    NoteSection,
    Section,
    assemble_note,
    segment_note,
)
from chartsum.tinylsg import LsgConfig, ModelConfig, TrainConfig
from synthdata import synth_corpus

ORACLE = BackendSpec(kind="oracle")
IDENTITY = BackendSpec(kind="identity")
EXTRACTIVE = BackendSpec(kind="extractive", extract_k=6)


def eval_refs(corpus):
    return {e.id: e.note for e in corpus}


# ---------------------------------------------------------------------------
# Sentence splitting and baseline summarizers
# ---------------------------------------------------------------------------

def test_split_sentences_newlines_and_punctuation():
    text = "first one. second one!\nthird here? fourth\n\n...\n"
    assert split_sentences(text) == [
        ("first one.", ["first", "one"]),
        ("second one!", ["second", "one"]),
        ("third here?", ["third", "here"]),
        ("fourth", ["fourth"]),
    ]


def test_split_sentences_drops_tokenless_fragments():
    assert split_sentences("!!! ???\n") == []
    assert split_sentences("") == []


def test_identity_summarizer():
    assert IdentitySummarizer().summarize("hello there") == "hello there"


EXTRACT_TEXT = "apple banana. apple cherry. apple apple. date cherry. banana date."
# token frequencies: apple 4, banana 2, cherry 2, date 2
# sentence mean scores: 3, 3, 4, 2, 2


def test_extractive_picks_top_k_in_source_order():
    assert (
        ExtractiveSummarizer(k=3).summarize(EXTRACT_TEXT)
        == "apple banana. apple cherry. apple apple."
    )
    assert ExtractiveSummarizer(k=1).summarize(EXTRACT_TEXT) == "apple apple."


def test_extractive_ties_prefer_earlier_sentence():
    got = ExtractiveSummarizer(k=4).summarize(EXTRACT_TEXT)
    assert got == "apple banana. apple cherry. apple apple. date cherry."


def test_extractive_k_larger_than_input_keeps_everything():
    got = ExtractiveSummarizer(k=50).summarize(EXTRACT_TEXT)
    assert got == EXTRACT_TEXT.replace("\n", " ")


def test_extractive_empty_and_validation():
    assert ExtractiveSummarizer(k=2).summarize("") == ""
    assert ExtractiveSummarizer(k=2).summarize("...!") == ""
    with pytest.raises(ValueError):
        ExtractiveSummarizer(k=0)


_REF_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def ref_split_sentences(text):
    """Sentences tokenized one part at a time."""
    sentences = []
    for line in text.splitlines():
        for part in _REF_SENTENCE_SPLIT.split(line):
            tokens = tokenize(part)
            if tokens:
                sentences.append((part.strip(), tokens))
    return sentences


def ref_extractive(text, k):
    """Two-pass extractive summary: one tokenize pass over the whole text for the
    frequencies, another per sentence for the scores."""
    sentences = []
    for line in text.splitlines():
        for part in _REF_SENTENCE_SPLIT.split(line):
            part = part.strip()
            if part and tokenize(part):
                sentences.append(part)
    if not sentences:
        return ""
    freq = Counter(tokenize(text))
    scored = []
    for idx, sentence in enumerate(sentences):
        tokens = tokenize(sentence)
        scored.append((-sum(freq[t] for t in tokens) / len(tokens), idx, sentence))
    top = sorted(sorted(scored)[:k], key=lambda item: item[1])
    return " ".join(sentence for _, _, sentence in top)


# Few distinct words so that sentence scores tie often; underscores and digits
# inside words; every line break str.splitlines knows; token-free fragments.
_EXTRACT_PIECES = st.sampled_from([
    "pain", "Pain", "knee", "x_ray", "bp_120", "a1c", "7", "2024", "ΑΣ", "İstanbul",
    ".", "!", "?", "...", "--", "_", "__", " ", "  ", "\t", ". ", "! ", "? ",
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
    "\u2028", "\u2029", "\xa0",
])


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_EXTRACT_PIECES, max_size=60), k=st.integers(1, 5))
def test_extractive_matches_two_pass_reference(pieces, k):
    text = "".join(pieces)
    assert ExtractiveSummarizer(k=k).summarize(text) == ref_extractive(text, k)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pieces=st.lists(_EXTRACT_PIECES, max_size=60))
def test_split_sentences_matches_per_part_reference(pieces):
    text = "".join(pieces)
    assert split_sentences(text) == ref_split_sentences(text)


def test_split_sentences_final_sigma_at_part_ends():
    # Lowering the joined parts must see a line feed after each part, as the
    # per-part loop sees the end of the string.
    text = "ΑΣ. ΟΔΟΣ!\u2028ΣΑ ς_Σ"
    assert split_sentences(text) == ref_split_sentences(text)
    assert [tokens for _, tokens in split_sentences(text)] == [["ας"], ["οδος"], ["σα", "ς", "σ"]]


def test_extractive_matches_reference_on_tied_scores_and_line_breaks():
    text = "pain knee.\r\nknee pain!\x0cpain_knee 12\x85... __ \u2028knee? pain"
    for k in range(1, 6):
        assert ExtractiveSummarizer(k=k).summarize(text) == ref_extractive(text, k)


# Texts a shared instance may be handed: empty, token-free, fixed sentences and
# arbitrary piece sequences.
_MEMO_TEXTS = (
    st.sampled_from(["", "...", " -- \n", EXTRACT_TEXT, "pain knee. knee pain!", "knee pain"])
    | st.lists(_EXTRACT_PIECES, max_size=30).map("".join)
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), k=st.integers(1, 5))
def test_shared_extractive_matches_a_fresh_instance_per_call(data, k):
    shared = ExtractiveSummarizer(k=k)
    seen = []
    for _ in range(data.draw(st.integers(1, 12))):
        step = data.draw(st.sampled_from(("new", "again", "earlier", "equal copy")) if seen
                         else st.just("new"))
        if step == "new":
            text = data.draw(_MEMO_TEXTS)
        elif step == "again":
            text = seen[-1]
        else:
            text = data.draw(st.sampled_from(seen))
            if step == "equal copy":
                # an equal str that is (for two or more characters) another object
                text = "".join(list(text))
        seen.append(text)
        assert shared.summarize(text) == ExtractiveSummarizer(k=k).summarize(text)


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

def test_backend_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        BackendSpec(kind="quantum")


@pytest.mark.parametrize("value", [0, -2])
@pytest.mark.parametrize("name", ["extract_k", "max_summary_tokens"])
def test_backend_spec_rejects_a_count_below_one(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        BackendSpec(**{name: value})


def test_run_approach_accepts_an_unlabeled_eval_corpus():
    eval_c = Corpus(encounters=tuple(
        Encounter(id=e.id, dialogue=e.dialogue) for e in synth_corpus(3, start=6)
    ))
    preds = run_approach(synth_corpus(6), eval_c, ApproachConfig("section-wise", EXTRACTIVE))
    assert sorted(preds.entries) == ["synth-006", "synth-007", "synth-008"]


def test_approach_config_validation():
    with pytest.raises(ValueError):
        ApproachConfig(approach="bogus", backend=ORACLE)
    with pytest.raises(ValueError):
        ApproachConfig(approach="multi-layer", backend=ORACLE)  # stage2 required
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        ApproachConfig(approach="single", backend=ORACLE, seed=-1)


@pytest.mark.parametrize("approach", ["single", "section-wise"])
def test_approach_config_rejects_a_stage2_outside_multi_layer(approach):
    # An ignored stage2 would change config_hash and nothing else.
    message = f"^only multi-layer runs take a stage2 backend, not '{approach}'$"
    with pytest.raises(ValueError, match=message):
        ApproachConfig(approach=approach, backend=ORACLE, stage2=IDENTITY)


def test_config_hash_stable_and_sensitive():
    cfg = ApproachConfig(approach="single", backend=BackendSpec(kind="tiny-lsg"), seed=3)
    assert config_hash(cfg) == config_hash(cfg)
    assert len(config_hash(cfg)) == 64
    assert config_hash(cfg) != config_hash(replace(cfg, seed=4))
    # nested dataclass fields feed the hash too
    deeper = replace(cfg, backend=replace(cfg.backend, train=TrainConfig(epochs=21)))
    assert config_hash(cfg) != config_hash(deeper)


# ---------------------------------------------------------------------------
# Approach 1: one model, whole note
# ---------------------------------------------------------------------------

def test_approach1_oracle_reproduces_references():
    train_c, eval_c = synth_corpus(6), synth_corpus(3, start=6)
    cfg = ApproachConfig(approach="single", backend=ORACLE)
    preds = run_approach(train_c, eval_c, cfg)
    assert preds.approach == "single"
    assert preds.entries == eval_refs(eval_c)
    run = evaluate(preds, eval_c)
    assert run.scores.rouge1.f1 == 1.0
    assert run.scores.rouge2.f1 == 1.0
    assert run.scores.rougeL.f1 == 1.0
    assert all(run.division_f1[d] == 1.0 for d in DIVISIONS)
    assert run.division_average == 1.0
    assert run.skipped_divisions == 0


def test_approach1_identity_echoes_dialogues():
    train_c, eval_c = synth_corpus(3), synth_corpus(2, start=3)
    preds = run_approach(train_c, eval_c, ApproachConfig(approach="single", backend=IDENTITY))
    assert preds.entries == {e.id: e.dialogue for e in eval_c}


def test_approach1_tiny_lsg_trains_and_is_deterministic():
    train_c, eval_c = synth_corpus(3), synth_corpus(2, start=3)
    backend = BackendSpec(
        kind="tiny-lsg",
        model=ModelConfig(d_model=8, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=16),
        lsg=LsgConfig(block_size=4, sparsity_stride=2, num_global=1, max_input_tokens=64),
        train=TrainConfig(initial_lr=1e-3, epochs=2, batch_size=2),
        max_summary_tokens=8,
    )
    cfg = ApproachConfig(approach="single", backend=backend, seed=5)
    p1 = run_approach(train_c, eval_c, cfg)
    p2 = run_approach(train_c, eval_c, cfg)
    assert p1 == p2
    assert set(p1.entries) == set(eval_c.ids())
    assert all(isinstance(v, str) for v in p1.entries.values())
    assert p1.seed == 5 and p1.config_hash == config_hash(cfg)


MEMO_PAIRS = [
    ("patient reports left knee pain for two days", "left knee pain"),
    ("patient reports right elbow soreness since monday", "right elbow soreness"),
    ("swelling in the left ankle after running", "left ankle swelling"),
    ("sharp pain in the lower back when lifting", "lower back pain"),
    ("mild headache for three days with nausea", "headache with nausea"),
    ("dry cough and sore throat since tuesday", "cough and sore throat"),
    ("itchy rash on the right forearm", "right forearm rash"),
    ("burning with urination for one day", "burning with urination"),
]


def test_approach1_tiny_lsg_memorizes_references_when_eval_is_train():
    corpus = Corpus(
        encounters=tuple(
            Encounter(id=f"m-{i}", dialogue=src, note=tgt)
            for i, (src, tgt) in enumerate(MEMO_PAIRS)
        ),
    )
    backend = BackendSpec(
        kind="tiny-lsg",
        model=ModelConfig(d_model=32, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=64),
        lsg=LsgConfig(block_size=4, sparsity_stride=2, num_global=1, max_input_tokens=64),
        train=TrainConfig(initial_lr=8e-3, epochs=300, batch_size=4),
        max_summary_tokens=16,
    )
    cfg = ApproachConfig(approach="single", backend=backend, seed=0)
    preds = run_approach(corpus, corpus, cfg)
    assert preds.entries == {e.id: e.note for e in corpus}
    assert evaluate(preds, corpus).scores.rouge1.f1 == 1.0


# ---------------------------------------------------------------------------
# Approach 2: per-section models
# ---------------------------------------------------------------------------

def test_approach2_oracle_rebuilds_references_byte_for_byte():
    train_c, eval_c = synth_corpus(6), synth_corpus(3, start=6)
    cfg = ApproachConfig(approach="section-wise", backend=ORACLE)
    preds = run_approach(train_c, eval_c, cfg)
    assert preds.approach == "section-wise"
    # synthetic notes use canonical headers in canonical order, so assembly is exact
    assert preds.entries == eval_refs(eval_c)
    run = evaluate(preds, eval_c)
    assert run.scores.rouge1.f1 == 1.0 and run.division_average == 1.0


def test_approach2_oracle_sections_match_reference_segmentation():
    train_c, eval_c = synth_corpus(5), synth_corpus(2, start=5)
    preds = run_approach(train_c, eval_c, ApproachConfig(approach="section-wise", backend=ORACLE))
    for e in eval_c:
        got = segment_note(preds.entries[e.id])
        want = segment_note(e.note)
        assert [(s.id, s.body) for s in got.sections] == [(s.id, s.body) for s in want.sections]


def test_approach2_oracle_keeps_every_body_of_a_repeated_section():
    # The second PLAN body is part of the slot's reference, so oracle returns it too.
    def encounter(eid, plan):
        note = (f"CHIEF COMPLAINT\n\nknee pain\n\nPLAN\n\n{plan[0]}\n\n"
                f"RESULTS\n\nclean xray\n\nPLAN\n\n{plan[1]}\n")
        return Encounter(id=eid, dialogue="knee pain talk", note=note)

    train_c = Corpus(encounters=(encounter("t0", ("rest", "ice nightly")),))
    eval_c = Corpus(encounters=(encounter("e0", ("stretch daily", "recheck in two weeks")),))
    preds = run_approach(train_c, eval_c, ApproachConfig(approach="section-wise", backend=ORACLE))
    plan = segment_note(preds.entries["e0"]).bodies()[Section.PLAN]
    assert plan == "stretch daily\n\nrecheck in two weeks"
    run = evaluate(preds, eval_c)
    assert run.division_f1[Division.ASSESSMENT_AND_PLAN] == 1.0


def test_approach2_identity_puts_dialogue_in_every_observed_section():
    train_c, eval_c = synth_corpus(3), synth_corpus(2, start=3)
    preds = run_approach(train_c, eval_c, ApproachConfig(approach="section-wise", backend=IDENTITY))
    expected_sections = [Section.CC, Section.HPI, Section.PE, Section.RESULTS,
                         Section.ASSESSMENT_AND_PLAN]
    for e in eval_c:
        note = segment_note(preds.entries[e.id])
        assert [s.id for s in note.sections] == expected_sections
        assert all(s.body == e.dialogue for s in note.sections)


def test_approach2_no_sections_at_all_raises():
    enc = tuple(
        Encounter(id=f"p{i}", dialogue="talk talk", note="plain text, no headers")
        for i in range(2)
    )
    flat = Corpus(encounters=enc)
    cfg = ApproachConfig(approach="section-wise", backend=ORACLE)
    with pytest.raises(ChartsumError, match="no known sections found in any training reference"):
        run_approach(flat, flat, cfg)


def test_approach2_adding_a_section_leaves_others_untouched():
    # Each slot trains with seed + its canonical section index, so the other
    # slots' output does not depend on whether the training notes hold CC.
    train_c, eval_c = synth_corpus(4), synth_corpus(2, start=4)
    without_cc = Corpus(encounters=tuple(
        replace(e, note=strip_section(e.note, Section.CC)) for e in train_c
    ))
    for backend in (TINY, ORACLE):
        cfg = ApproachConfig(approach="section-wise", backend=backend, seed=5)
        full = run_approach(train_c, eval_c, cfg)
        fewer = run_approach(without_cc, eval_c, cfg)
        for eid in eval_c.ids():
            expected = segment_note(full.entries[eid]).bodies()
            expected.pop(Section.CC, None)
            assert expected and segment_note(fewer.entries[eid]).bodies() == expected


def division_bodies(text):
    buckets = {}
    for sec in segment_note(text).sections:
        if isinstance(sec.id, Section):
            buckets.setdefault(sec.id.division, []).append(sec.body)
    return {div: "\n".join(parts) for div, parts in buckets.items()}


def test_approach2_extractive_full_recall_when_dialogue_embeds_sections():
    # synthetic dialogues quote each note section verbatim; with k large enough
    # to keep every dialogue sentence, extraction cannot lose a reference token
    train_c, eval_c = synth_corpus(4), synth_corpus(3, start=4)
    keep_all = BackendSpec(kind="extractive", extract_k=50)
    preds = run_approach(
        train_c, eval_c, ApproachConfig(approach="section-wise", backend=keep_all)
    )
    for e in eval_c:
        cand_texts = division_bodies(preds.entries[e.id])
        ref_texts = division_bodies(e.note)
        assert set(ref_texts) <= set(cand_texts)
        for div, ref_text in ref_texts.items():
            score = rouge_n(tokenize(cand_texts[div]), tokenize(ref_text), 1)
            assert score.recall == 1.0


def fresh_summarizer(backend):
    if backend.kind == "extractive":
        return ExtractiveSummarizer(backend.extract_k)
    assert backend.kind == "identity"
    return IdentitySummarizer()


def observed_sections(corpus):
    found = {
        sec.id
        for e in corpus.labeled()
        for sec in segment_note(e.note).sections
        if isinstance(sec.id, Section)
    }
    return sorted(found, key=SECTION_ORDER.index)


def ref_section_wise(train_corpus, corpus, backend):
    """Section-wise entries with a fresh section-blind summarizer for every slot and
    dialogue, so no summary is ever reused."""
    entries = {}
    for e in corpus:
        produced = []
        for section in observed_sections(train_corpus):
            text = fresh_summarizer(backend).summarize(e.dialogue)
            if text:
                produced.append(NoteSection(id=section, body=text))
        entries[e.id] = assemble_note(ChartNote(sections=tuple(produced)))
    return entries


def ref_multi_layer(train_corpus, eval_corpus, backend, stage2):
    """Entries and stage-1 empty counts of a multi-layer run built from the reference."""
    stage1_train = ref_section_wise(train_corpus, train_corpus.labeled(), backend)
    stage1_eval = ref_section_wise(train_corpus, eval_corpus, backend)
    entries = {eid: fresh_summarizer(stage2).summarize(text) for eid, text in stage1_eval.items()}
    empty = {
        "stage1_empty_train": str(sum(not text for text in stage1_train.values())),
        "stage1_empty_eval": str(sum(not text for text in stage1_eval.values())),
    }
    return entries, empty


def repeat_corpus():
    """Eval encounters whose dialogues repeat back to back and interleaved, plus an
    empty and a token-free dialogue."""
    dialogues = [e.dialogue for e in synth_corpus(2, start=20)]
    texts = [dialogues[0], dialogues[0], dialogues[1], dialogues[0], "", "...", "", dialogues[1]]
    encounters = tuple(Encounter(id=f"r{i}", dialogue=text) for i, text in enumerate(texts))
    return Corpus(encounters=encounters)


SECTION_BLIND = [BackendSpec(kind="extractive", extract_k=k) for k in range(1, 6)] + [IDENTITY]


def _backend_id(backend):
    return f"extractive-k{backend.extract_k}" if backend.kind == "extractive" else backend.kind


@pytest.mark.parametrize("backend", SECTION_BLIND, ids=_backend_id)
def test_approach2_section_blind_backend_matches_per_slot_reference(backend):
    train_c = synth_corpus(4)
    for eval_c in (synth_corpus(3, start=4), repeat_corpus()):
        preds = run_approach(train_c, eval_c, ApproachConfig(approach="section-wise", backend=backend))
        assert preds.entries == ref_section_wise(train_c, eval_c, backend)


@pytest.mark.parametrize("stage2", [IDENTITY, BackendSpec(kind="extractive", extract_k=2)],
                         ids=_backend_id)
@pytest.mark.parametrize("backend", SECTION_BLIND, ids=_backend_id)
def test_approach3_section_blind_stage1_matches_per_slot_reference(backend, stage2):
    train_c = synth_corpus(4)
    for eval_c in (synth_corpus(3, start=4), repeat_corpus()):
        cfg = ApproachConfig(approach="multi-layer", backend=backend, stage2=stage2)
        preds = run_approach(train_c, eval_c, cfg)
        entries, empty = ref_multi_layer(train_c, eval_c, backend, stage2)
        assert preds.entries == entries
        assert {key: preds.extra[key] for key in empty} == empty


@pytest.fixture
def extraction_calls(monkeypatch):
    """Texts passed to `split_sentences` and to `ExtractiveSummarizer.summarize`."""
    calls = {"split_sentences": [], "summarize": []}
    summarize = ExtractiveSummarizer.summarize

    def counting_split(text):
        calls["split_sentences"].append(text)
        return split_sentences(text)

    def counting_summarize(self, text, **kwargs):
        calls["summarize"].append(text)
        return summarize(self, text, **kwargs)

    monkeypatch.setattr("chartsum.pipeline.split_sentences", counting_split)
    monkeypatch.setattr(ExtractiveSummarizer, "summarize", counting_summarize)
    return calls


def distinct_dialogues(*corpora):
    """Each distinct dialogue of `corpora` once, in first-seen order."""
    return list(dict.fromkeys(e.dialogue for corpus in corpora for e in corpus))


def test_approach2_extractive_extracts_each_dialogue_once(extraction_calls):
    train_c = synth_corpus(4)
    slots = len(observed_sections(train_c))
    assert slots == 5
    for eval_c in (synth_corpus(3, start=4), repeat_corpus()):
        for calls in extraction_calls.values():
            calls.clear()
        run_approach(train_c, eval_c, ApproachConfig(approach="section-wise", backend=EXTRACTIVE))
        assert len(extraction_calls["summarize"]) == len(eval_c) * slots
        assert extraction_calls["split_sentences"] == distinct_dialogues(eval_c)


def test_approach3_extractive_stage1_extracts_each_dialogue_once(extraction_calls):
    train_c = synth_corpus(4)
    slots = len(observed_sections(train_c))
    for eval_c in (synth_corpus(3, start=4), repeat_corpus()):
        for calls in extraction_calls.values():
            calls.clear()
        cfg = ApproachConfig(approach="multi-layer", backend=EXTRACTIVE, stage2=IDENTITY)
        run_approach(train_c, eval_c, cfg)
        assert len(extraction_calls["summarize"]) == (len(train_c) + len(eval_c)) * slots
        assert extraction_calls["split_sentences"] == distinct_dialogues(train_c, eval_c)


def test_approach3_stage1_summarizes_no_unlabeled_train_dialogue(extraction_calls):
    """Stage 1 runs over the labeled train dialogues and the eval ones, and counts
    empty stage-1 notes over the labeled train dialogues only."""
    labeled = synth_corpus(4)
    # An empty unlabeled dialogue would make an empty stage-1 note if it were summarized.
    unlabeled = [replace(e, id=f"u-{e.id}", note=None) for e in synth_corpus(2, start=10)]
    unlabeled.append(Encounter(id="u-empty", dialogue=""))
    mixed = [e for pair in zip(labeled, unlabeled) for e in pair] + list(labeled)[len(unlabeled):]
    train_c = Corpus(encounters=tuple(mixed))
    eval_c = synth_corpus(2, start=4)
    cfg = ApproachConfig(approach="multi-layer", backend=EXTRACTIVE, stage2=IDENTITY)
    preds = run_approach(train_c, eval_c, cfg)
    unlabeled_dialogues = {e.dialogue for e in unlabeled}
    assert len(unlabeled_dialogues) == 3
    assert not unlabeled_dialogues & set(extraction_calls["summarize"])
    assert extraction_calls["split_sentences"] == distinct_dialogues(labeled, eval_c)
    entries, empty = ref_multi_layer(train_c, eval_c, EXTRACTIVE, IDENTITY)
    assert preds.entries == entries
    assert {key: preds.extra[key] for key in empty} == empty
    assert preds.extra["stage1_empty_train"] == "0"


TINY = BackendSpec(
    kind="tiny-lsg",
    model=ModelConfig(d_model=8, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=16),
    lsg=LsgConfig(block_size=4, sparsity_stride=2, num_global=1, max_input_tokens=64),
    train=TrainConfig(initial_lr=1e-3, epochs=1, batch_size=2),
    max_summary_tokens=4,
)


@pytest.mark.parametrize("approach", ["section-wise", "multi-layer"])
def test_tiny_lsg_slots_train_with_no_earlier_model_alive(monkeypatch, approach):
    """Each slot's model is dropped before the next slot trains: a run holds one at a time."""
    trained, alive_at_start = [], []

    def tracked_train_tiny_lsg(*args, **kwargs):
        gc.collect()
        alive_at_start.append(sum(ref() is not None for ref in trained))
        model, history = train_tiny_lsg(*args, **kwargs)
        trained.append(weakref.ref(model))
        return model, history

    monkeypatch.setattr("chartsum.pipeline.train_tiny_lsg", tracked_train_tiny_lsg)
    train_c, eval_c = synth_corpus(4), synth_corpus(2, start=4)
    stage2 = TINY if approach == "multi-layer" else None
    preds = run_approach(train_c, eval_c, ApproachConfig(approach, TINY, stage2=stage2))
    assert sorted(preds.entries) == eval_c.ids()
    slots = len(observed_sections(train_c)) + (stage2 is not None)
    assert alive_at_start == [0] * slots


# ---------------------------------------------------------------------------
# Approach 3: section-wise stage feeding a second model
# ---------------------------------------------------------------------------

def test_approach3_identity_stage2_equals_approach2():
    train_c, eval_c = synth_corpus(5), synth_corpus(3, start=5)
    cfg3 = ApproachConfig(approach="multi-layer", backend=ORACLE, stage2=IDENTITY, seed=2)
    cfg2 = ApproachConfig(approach="section-wise", backend=ORACLE, seed=2)
    p3 = run_approach(train_c, eval_c, cfg3)
    p2 = run_approach(train_c, eval_c, cfg2)
    assert p3.approach == "multi-layer"
    assert p3.entries == p2.entries
    assert p3.extra["stage1_config_hash"] == p2.config_hash
    assert p3.extra["stage1_empty_train"] == "0"
    assert p3.extra["stage1_empty_eval"] == "0"


def test_approach3_tiny_lsg_stage2_equals_a_single_run_over_stage1_notes():
    # Stage 2 is one more slot: a single run whose dialogues are the stage-1
    # notes, with the stage-2 backend and the stage-2 seed.
    train_c, eval_c = synth_corpus(4), synth_corpus(2, start=4)
    cfg = ApproachConfig(approach="multi-layer", backend=TINY, stage2=TINY, seed=3)
    multi = run_approach(train_c, eval_c, cfg)

    stage1_cfg = ApproachConfig(approach="section-wise", backend=TINY, seed=3)
    stage1_train = run_approach(train_c, train_c, stage1_cfg).entries
    stage1_eval = run_approach(train_c, eval_c, stage1_cfg).entries

    def with_stage1_dialogues(corpus, stage1):
        return Corpus(encounters=tuple(replace(e, dialogue=stage1[e.id]) for e in corpus))

    single_cfg = ApproachConfig(approach="single", backend=TINY, seed=3 + _STAGE2_SEED_OFFSET)
    single = run_approach(
        with_stage1_dialogues(train_c, stage1_train),
        with_stage1_dialogues(eval_c, stage1_eval),
        single_cfg,
    )
    assert multi.entries == single.entries


def test_approach3_oracle_stage2_scores_perfectly():
    train_c, eval_c = synth_corpus(5), synth_corpus(3, start=5)
    cfg = ApproachConfig(approach="multi-layer", backend=EXTRACTIVE, stage2=ORACLE)
    run = evaluate(run_approach(train_c, eval_c, cfg), eval_c)
    assert run.scores.rouge1.f1 == 1.0
    assert run.division_average == 1.0


def test_run_approach_dispatches_by_name():
    train_c, eval_c = synth_corpus(3), synth_corpus(2, start=3)
    single = run_approach(train_c, eval_c, ApproachConfig(approach="single", backend=ORACLE))
    wise = run_approach(train_c, eval_c, ApproachConfig(approach="section-wise", backend=ORACLE))
    multi = run_approach(
        train_c, eval_c,
        ApproachConfig(approach="multi-layer", backend=ORACLE, stage2=IDENTITY),
    )
    assert (single.approach, wise.approach, multi.approach) == (
        "single", "section-wise", "multi-layer",
    )


# ---------------------------------------------------------------------------
# Oracle and training targets: each source reads its own reference
# ---------------------------------------------------------------------------

def without_section(corpus, eid, section):
    """`corpus` with `section` taken out of encounter `eid`'s note."""
    return Corpus(encounters=tuple(
        replace(e, note=strip_section(e.note, section)) if e.id == eid else e for e in corpus
    ))


@pytest.fixture
def trained_pairs(monkeypatch):
    """The training pairs of every tiny-lsg slot a run trains, in training order."""
    calls = []

    def recording_train_tiny_lsg(backend, pairs, seed, log=None):
        calls.append(list(pairs))
        return train_tiny_lsg(backend, pairs, seed, log)

    monkeypatch.setattr("chartsum.pipeline.train_tiny_lsg", recording_train_tiny_lsg)
    return calls


@pytest.mark.parametrize("stage2", [None, IDENTITY, ORACLE],
                         ids=["section-wise", "multi-layer-identity", "multi-layer-oracle"])
def test_oracle_writes_an_eval_note_that_lacks_a_trained_section_as_it_is(stage2):
    # Failed while the oracle looked slots up by id: MissingReference('synth-004').
    train_c = synth_corpus(4)
    eval_c = without_section(synth_corpus(2, start=4), "synth-004", Section.RESULTS)
    approach = "section-wise" if stage2 is None else "multi-layer"
    preds = run_approach(train_c, eval_c, ApproachConfig(approach, ORACLE, stage2=stage2))
    assert Section.RESULTS not in segment_note(preds.entries["synth-004"]).bodies()
    assert preds.entries == eval_refs(eval_c)
    assert evaluate(preds, eval_c).scores.rouge1.f1 == 1.0


def test_multi_layer_oracle_stage1_writes_a_train_note_that_lacks_a_section_as_it_is(
        trained_pairs):
    # Failed while the oracle looked slots up by id: MissingReference('synth-001').
    train_c = without_section(synth_corpus(4), "synth-001", Section.RESULTS)
    eval_c = synth_corpus(2, start=4)
    preds = run_approach(train_c, eval_c, ApproachConfig("multi-layer", ORACLE, stage2=TINY))
    # Stage 2 trains from each train note's stage-1 note, here the note itself.
    assert trained_pairs == [[(e.note, e.note) for e in train_c]]
    assert preds.extra["stage1_empty_train"] == "0"


@pytest.mark.parametrize("approach", ["single", "section-wise", "multi-layer"])
def test_oracle_reads_the_eval_reference_of_an_id_a_train_encounter_shares(approach):
    # Section-wise and multi-layer gave the train encounter's RESULTS body while
    # the oracle looked slots up by id.
    train_c = synth_corpus(4)
    shared = replace(synth_corpus(1, start=4).encounters[0], id="synth-000")
    eval_c = without_section(Corpus(encounters=(shared,)), "synth-000", Section.RESULTS)
    stage2 = IDENTITY if approach == "multi-layer" else None
    preds = run_approach(train_c, eval_c, ApproachConfig(approach, ORACLE, stage2=stage2))
    assert Section.RESULTS not in segment_note(preds.entries["synth-000"]).bodies()
    assert preds.entries == eval_refs(eval_c)


def test_a_present_section_with_an_empty_body_trains_as_an_empty_target(trained_pairs):
    train_c = synth_corpus(3)
    emptied = train_c.encounters[1]
    body = segment_note(emptied.note).bodies()[Section.RESULTS]
    train_c = Corpus(encounters=tuple(
        replace(e, note=e.note.replace(body, "")) if e is emptied else e for e in train_c
    ))
    run_approach(train_c, synth_corpus(1, start=3), ApproachConfig("section-wise", TINY))
    results_slot = trained_pairs[observed_sections(train_c).index(Section.RESULTS)]
    assert results_slot == [(e.dialogue, segment_note(e.note).bodies()[Section.RESULTS])
                            for e in train_c]
    assert results_slot[1] == (emptied.dialogue, "")


@pytest.mark.parametrize("approach", ["single", "section-wise", "multi-layer"])
def test_oracle_writes_an_empty_text_for_an_unlabeled_eval_row(approach):
    # `evaluate` then reports the missing reference; the CLI rejects the row
    # before training.
    train_c = synth_corpus(3)
    labeled = synth_corpus(1, start=3).encounters[0]
    eval_c = Corpus(encounters=(labeled, Encounter(id="u", dialogue="no note for this talk")))
    stage2 = ORACLE if approach == "multi-layer" else None
    preds = run_approach(train_c, eval_c, ApproachConfig(approach, ORACLE, stage2=stage2))
    assert preds.entries == {labeled.id: labeled.note, "u": ""}
    with pytest.raises(MissingReference, match="no reference note for encounter 'u'"):
        evaluate(preds, eval_c)


# ---------------------------------------------------------------------------
# evaluate()
# ---------------------------------------------------------------------------

def strip_section(note_text, section):
    note = segment_note(note_text)
    kept = tuple(s for s in note.sections if s.id is not section)
    from chartsum.sections import assemble_note

    return assemble_note(replace(note, sections=kept))


def test_evaluate_missing_division_scores_zero():
    eval_c = synth_corpus(1)
    e = eval_c.encounters[0]
    candidate = strip_section(e.note, Section.PE)  # drop the whole Exam division
    preds = PredictionSet(approach="single", entries={e.id: candidate})
    run = evaluate(preds, eval_c)
    assert run.division_f1[Division.EXAM] == 0.0
    assert run.division_f1[Division.SUBJECTIVE] == 1.0
    assert run.division_average == 0.75
    assert run.skipped_divisions == 1
    assert run.n_documents == 1


def test_evaluate_averages_divisions_over_documents():
    eval_c = synth_corpus(2)
    first, second = eval_c.encounters
    preds = PredictionSet(
        approach="single",
        entries={first.id: first.note, second.id: "plain text with no headers at all"},
    )
    run = evaluate(preds, eval_c)
    for div in DIVISIONS:
        assert run.division_f1[div] == 0.5  # (1.0 + skipped-as-0) / 2
    assert run.division_average == 0.5
    assert run.skipped_divisions == 4


def test_evaluate_two_document_divisions_match_hand_means():
    shared = (
        "CHIEF COMPLAINT\n\nknee pain\n\n"
        "PHYSICAL EXAM\n\nno swelling\n\n"
        "RESULTS\n\nxray negative\n\n"
        "PLAN\n\n"
    )
    ref_plan, cand_plan = "the cat lay on the mat", "the cat sat on the mat"
    corpus = Corpus(
        encounters=(
            Encounter(id="d1", dialogue="talk", note=shared + ref_plan),
            Encounter(id="d2", dialogue="talk", note=shared + "rest and ice"),
        ),
    )
    preds = PredictionSet(
        approach="single",
        entries={"d1": shared + cand_plan, "d2": shared + "rest and ice"},
    )
    run = evaluate(preds, corpus)
    plan_d1 = rouge_n(tokenize(cand_plan), tokenize(ref_plan), 1).f1
    expected = {
        Division.SUBJECTIVE: 1.0,
        Division.EXAM: 1.0,
        Division.RESULTS: 1.0,
        Division.ASSESSMENT_AND_PLAN: (plan_d1 + 1.0) / 2,
    }
    assert run.division_f1 == expected
    assert run.division_average == sum(expected.values()) / 4
    assert run.skipped_divisions == 0 and run.unknown_sections == 0


def test_evaluate_counts_unknown_sections():
    eval_c = synth_corpus(1)
    e = eval_c.encounters[0]
    candidate = e.note + "SOCIAL HISTORY\n\nnever smoked\n"
    preds = PredictionSet(approach="single", entries={e.id: candidate})
    run = evaluate(preds, eval_c)
    assert run.unknown_sections == 1
    assert run.division_average == 1.0  # unknown text is excluded from divisions


def test_evaluate_missing_reference_raises():
    eval_c = synth_corpus(2)
    preds = PredictionSet(approach="single", entries={"ghost-999": "text"})
    with pytest.raises(MissingReference):
        evaluate(preds, eval_c)
    unlabeled = Corpus(encounters=(Encounter(id="u1", dialogue="hi"),))
    with pytest.raises(MissingReference):
        evaluate(PredictionSet(approach="single", entries={"u1": "text"}), unlabeled)


def test_pair_references_sorts_candidates_and_names_the_first_missing_reference():
    candidates = {"b": "cand b", "a": "cand a"}
    assert pair_references(candidates, {"a": "ref a", "b": "ref b", "c": "ref c"}) == [
        ("a", "cand a", "ref a"), ("b", "cand b", "ref b"),
    ]
    for references in ({"a": "ref a"}, {"a": "ref a", "b": None}):
        with pytest.raises(MissingReference, match="no reference note for encounter 'b'"):
            pair_references(candidates, references)


def test_evaluate_carries_run_metadata():
    eval_c = synth_corpus(2)
    preds = PredictionSet(
        approach="single", entries=eval_refs(eval_c), config_hash="deadbeef", seed=9
    )
    run = evaluate(preds, eval_c)
    assert run.config_hash == "deadbeef"
    assert run.seed == 9
    assert run_report_to_dict(run)["division_metric"] == DIVISION_METRIC == "rouge1_f1"


# ---------------------------------------------------------------------------
# round4 and report rendering
# ---------------------------------------------------------------------------

def test_round4_half_up():
    assert round4(0.52675) == "0.5268"
    assert round4(0.5) == "0.5000"
    assert round4(1.0) == "1.0000"
    assert round4(0.12344999) == "0.1234"
    assert round4(0.00005) == "0.0001"


def sample_runs():
    train_c, eval_c = synth_corpus(4), synth_corpus(3, start=4)
    runs = []
    for cfg in (
        ApproachConfig(approach="single", backend=EXTRACTIVE),
        ApproachConfig(approach="section-wise", backend=ORACLE),
        ApproachConfig(approach="multi-layer", backend=ORACLE, stage2=IDENTITY),
    ):
        runs.append(evaluate(run_approach(train_c, eval_c, cfg), eval_c))
    return runs


def test_report_table_contains_rounded_values_for_all_runs():
    runs = sample_runs()
    text = report(runs)
    assert "Full-note scores (F1)" in text
    assert "Division scores (metric: rouge1_f1)" in text
    lines = text.splitlines()
    for run in runs:
        full_row = next(
            ln.split() for ln in lines if ln.startswith(run.approach) and len(ln.split()) == 4
        )
        assert full_row == [
            run.approach,
            round4(run.scores.rouge1.f1),
            round4(run.scores.rouge2.f1),
            round4(run.scores.rougeL.f1),
        ]
        div_row = next(
            ln.split() for ln in lines if ln.startswith(run.approach) and len(ln.split()) == 6
        )
        assert div_row == [run.approach] + [round4(run.division_f1[d]) for d in DIVISIONS] + [
            round4(run.division_average)
        ]


def test_report_csv_round_trips_through_csv_reader():
    runs = sample_runs()
    rows = list(csv.reader(report(runs, format="csv").splitlines()))
    assert rows[0] == [
        "approach", "rouge1", "rouge2", "rougeL",
        "Subjective", "Exam", "Results", "AssessmentAndPlan", "Average",
    ]
    assert len(rows) == 1 + len(runs)
    for row, run in zip(rows[1:], runs):
        assert row[0] == run.approach
        assert row[1] == round4(run.scores.rouge1.f1)
        assert row[8] == round4(run.division_average)


def test_report_json_parses_with_metadata():
    runs = sample_runs()
    text = report(runs, format="json")
    assert text == json.dumps([run_report_to_dict(r) for r in runs], sort_keys=True, indent=2) + "\n"
    payload = json.loads(text)
    assert [run_report_from_dict(item) for item in payload] == runs
    for item, run in zip(payload, runs):
        assert item["scores"] == scores_to_dict(run.scores)
        assert item["config_hash"] == run.config_hash
        assert item["n_documents"] == run.n_documents
        assert item["division_metric"] == DIVISION_METRIC


def test_report_rejects_empty_and_unknown_format():
    with pytest.raises(ValueError):
        report([])
    with pytest.raises(ValueError):
        report(sample_runs()[:1], format="yaml")
    with pytest.raises(ValueError):
        render_scores(sample_runs()[0].scores, format="table")


def test_run_report_dict_round_trip():
    run = sample_runs()[1]
    payload = json.loads(json.dumps(run_report_to_dict(run)))
    assert run_report_from_dict(payload) == run
