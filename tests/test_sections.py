"""Note segmentation, header normalization, and reassembly tests."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartsum import sections
from chartsum.sections import (
    ALIAS_TABLE,
    SECTION_ORDER,
    ChartNote,
    Division,
    NoteSection,
    Section,
    UnknownSection,
    assemble_note,
    canonical_header,
    canonical_key,
    is_header_line,
    normalize_header,
    segment_note,
)
from synthdata import SAFE_WORDS, random_body, synth_note


# ---------------------------------------------------------------------------
# canonical_key
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  Chief   Complaint : ", "CHIEF COMPLAINT"),
        ("HPI", "HPI"),
        ("a/p", "A/P"),
        ("**Plan**", "PLAN"),
        ("", ""),
        ("  :: ", ""),
    ],
)
def test_canonical_key(raw, expected):
    assert canonical_key(raw) == expected


def test_canonical_key_idempotent():
    for raw in ["  Review Of Systems:", "LABS", "a & p", "physical exam"]:
        once = canonical_key(raw)
        assert canonical_key(once) == once


# ---------------------------------------------------------------------------
# Alias table
# ---------------------------------------------------------------------------

# What the packaged alias file of earlier versions parsed to, key for key.
EXPECTED_ALIAS_TABLE = {
    "CHIEF COMPLAINT": Section.CC, "CC": Section.CC, "REASON FOR VISIT": Section.CC,
    "HISTORY OF PRESENT ILLNESS": Section.HPI, "HPI": Section.HPI,
    "INTERVAL HISTORY": Section.HPI,
    "REVIEW OF SYSTEMS": Section.ROS, "REVIEW OF SYSTEM": Section.ROS, "ROS": Section.ROS,
    "MEDICATIONS": Section.MEDICATIONS, "MEDICATION": Section.MEDICATIONS,
    "CURRENT MEDICATIONS": Section.MEDICATIONS, "MEDS": Section.MEDICATIONS,
    "ALLERGIES": Section.ALLERGIES, "ALLERGY": Section.ALLERGIES,
    "DRUG ALLERGIES": Section.ALLERGIES,
    "PHYSICAL EXAM": Section.PE, "PHYSICAL EXAMINATION": Section.PE, "PE": Section.PE,
    "EXAM": Section.PE, "EXAMINATION": Section.PE,
    "RESULTS": Section.RESULTS, "LAB RESULTS": Section.RESULTS, "LABS": Section.RESULTS,
    "DIAGNOSTIC RESULTS": Section.RESULTS, "IMAGING": Section.RESULTS,
    "ASSESSMENT": Section.ASSESSMENT, "IMPRESSION": Section.ASSESSMENT,
    "PLAN": Section.PLAN, "TREATMENT PLAN": Section.PLAN,
    "ASSESSMENT AND PLAN": Section.ASSESSMENT_AND_PLAN,
    "ASSESSMENT & PLAN": Section.ASSESSMENT_AND_PLAN,
    "ASSESSMENT PLAN": Section.ASSESSMENT_AND_PLAN, "A&P": Section.ASSESSMENT_AND_PLAN,
    "A/P": Section.ASSESSMENT_AND_PLAN, "IMPRESSION AND PLAN": Section.ASSESSMENT_AND_PLAN,
}


def test_default_alias_table_covers_common_aliases():
    assert len(EXPECTED_ALIAS_TABLE) == 36
    assert dict(ALIAS_TABLE) == EXPECTED_ALIAS_TABLE


def test_no_canonical_key_names_two_sections():
    keys = [canonical_key(alias) for section in Section for alias in section.aliases]
    assert len(keys) == len(set(keys)) == len(ALIAS_TABLE)


def test_every_canonical_header_resolves_to_its_section():
    for section in Section:
        assert normalize_header(section.header) is section
        assert is_header_line(section.header)


def test_normalize_header_case_insensitive_and_unknown():
    assert normalize_header("chief complaint") is Section.CC
    assert normalize_header("Meds:") is Section.MEDICATIONS
    got = normalize_header("SOCIAL HISTORY")
    assert got == UnknownSection("SOCIAL HISTORY")


# ---------------------------------------------------------------------------
# Header detection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "line",
    [
        "CHIEF COMPLAINT",
        "chief complaint",  # alias match is case-insensitive
        "PLAN:",
        "HOSPITAL COURSE",  # shape rule: all caps, <= 6 words
        "FOLLOW UP:",
        "A1C TREND",  # digits allowed as long as no lowercase
    ],
)
def test_header_lines_accepted(line):
    assert is_header_line(line)


@pytest.mark.parametrize(
    "line",
    [
        "",
        "   ",
        "Patient doing well.",
        "BP 120/80 on exam today we saw them walk",  # > 6 words
        "FOLLOW Up:",  # contains lowercase, not an alias
        "123 456:",  # no uppercase letter at all
        "chief complaint was noted",  # alias plus trailing words, lowercase
    ],
)
def test_header_lines_rejected(line):
    assert not is_header_line(line)


def test_lowercase_alias_with_trailing_words_stays_in_body():
    text = "CHIEF COMPLAINT\nchief complaint was noted on arrival.\nresolved today."
    note = segment_note(text)
    assert [s.id for s in note.sections] == [Section.CC]
    assert note.sections[0].body == "chief complaint was noted on arrival.\nresolved today."


def ref_is_header_line(line):
    """Header test on the whole line: canonical key lookup, then the shape rule."""
    text = line.strip()
    if not text:
        return False
    if canonical_key(text) in ALIAS_TABLE:
        return True
    if text.endswith(":"):
        text = text[:-1].rstrip()
    if not text or len(text.split()) > 6:
        return False
    return any(ch.isupper() for ch in text) and not any(ch.islower() for ch in text)


# Words that make or break a header: alias words, shape-rule words, lowercase
# words, digits, punctuation-only words and non-ASCII letters whose case
# mappings are special (İ lowers to two characters, ß uppers to "SS", Σ has
# two lowercase forms, ǅ is titlecase: neither upper nor lower).
_HEADER_WORDS = st.sampled_from([
    "HPI", "PLAN", "plan", "Exam", "A/P", "CHIEF", "complaint", "OF", "a", "120/80", "7",
    "-", ":", "**", "İ", "ß", "SS", "Σ", "σς", "ǅ", "İSTANBUL", "STRAßE", "ǅOKER",
])
_ALIAS_KEYS = sorted(ALIAS_TABLE)
_CASINGS = st.sampled_from([str.upper, str.lower, str.title, str.swapcase, str])
_GAPS = st.text(st.sampled_from(" \t\xa0"), min_size=1, max_size=3)
_EDGES = st.sampled_from(["", " ", "\xa0", "\t", ":", "*", "**", "#", "(", ")", "...", "- "])


@st.composite
def header_like_lines(draw):
    """0-9 words, at times around an alias key, in any casing, with edge
    punctuation, whitespace runs and an optional colon."""
    words = draw(st.lists(_HEADER_WORDS, max_size=9))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(words)))
        words[at:at] = draw(st.sampled_from(_ALIAS_KEYS)).split()
        del words[9:]
    words = [draw(_CASINGS)(word) for word in words]
    line = "".join(word + draw(_GAPS) for word in words).rstrip(" \t\xa0") if words else ""
    colon = draw(st.sampled_from(["", ":", " :", "::"]))
    return draw(_EDGES) + line + draw(_EDGES) + colon + draw(_EDGES)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(line=header_like_lines())
def test_is_header_line_matches_whole_line_reference(line):
    assert is_header_line(line) == ref_is_header_line(line)


def test_every_alias_key_in_any_casing_is_a_header():
    # Lowercase keys fail the shape rule, so only the alias lookup accepts
    # them: this holds only if the lookup takes as many words as the longest key.
    for key, section in ALIAS_TABLE.items():
        for line in (key.lower(), f" **{key.title()}** :", key.replace(" ", "\xa0\t").swapcase()):
            assert is_header_line(line) and ref_is_header_line(line), line
            assert normalize_header(line) is section, line


@pytest.mark.parametrize("line", [
    "chief complaint of the knee",  # alias key plus words, lowercase
    "CHIEF COMPLAINT OF THE LEFT KNEE",  # alias key plus words, 7 words
    "ASSESSMENT AND PLAN OF CARE",  # longest alias plus one word, shape rule holds
    "** a / p **",
    "ǅ HPX",  # titlecase is not lowercase
    "ǅ",  # no uppercase letter
    "STRAßE",  # ß is lowercase
    "İ",
    "\xa0PLAN\xa0:",
])
def test_is_header_line_matches_whole_line_reference_on_edge_cases(line):
    assert is_header_line(line) == ref_is_header_line(line)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(lines=st.lists(header_like_lines() | st.sampled_from(["", "  ", "knee pain today."]),
                      max_size=12),
       newline=st.sampled_from(["\n", "\r\n", "\u2028"]))
def test_segment_note_matches_whole_line_reference(lines, newline):
    text = newline.join(lines)
    with mock.patch.object(sections, "is_header_line", ref_is_header_line):
        expected = segment_note(text)
    assert segment_note(text) == expected


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------

def test_segment_basic_note():
    text = "CHIEF COMPLAINT\n\nknee pain\n\nPLAN:\n\nrest and ice\nrecheck soon\n"
    note = segment_note(text)
    assert note.preamble == ""
    assert [s.id for s in note.sections] == [Section.CC, Section.PLAN]
    cc, plan = note.sections
    assert cc.body == "knee pain"
    assert cc.header == "CHIEF COMPLAINT"
    assert plan.body == "rest and ice\nrecheck soon"
    assert plan.header == "PLAN:"


def test_segment_preamble_and_unknown_header():
    text = "seen in clinic\n\nSOCIAL HISTORY\n\nnever smoked\n"
    note = segment_note(text)
    assert note.preamble == "seen in clinic"
    assert note.sections[0].id == UnknownSection("SOCIAL HISTORY")
    assert note.sections[0].body == "never smoked"


def test_segment_trims_blank_edges_keeps_interior():
    text = "HPI\n\n\nfirst line\n\nsecond line\n\n\n"
    note = segment_note(text)
    assert note.sections[0].body == "first line\n\nsecond line"


def test_segment_empty_body_section():
    note = segment_note("ALLERGIES\n\nMEDICATIONS\n\naspirin\n")
    assert [s.id for s in note.sections] == [Section.ALLERGIES, Section.MEDICATIONS]
    assert note.sections[0].body == ""
    assert note.sections[1].body == "aspirin"


def test_segment_duplicate_sections_kept_bodies_joins_them():
    text = "PLAN\n\nfirst\n\nPLAN\n\nsecond\n"
    note = segment_note(text)
    assert len(note.sections) == 2
    assert note.bodies()[Section.PLAN] == "first\n\nsecond"
    # In note order across other sections; an empty body adds nothing.
    note = segment_note("PLAN\n\nfirst\nline\n\nRESULTS\n\nxray\n\nPLAN\n\nPLAN\nthird\n")
    assert note.bodies() == {Section.PLAN: "first\nline\n\nthird", Section.RESULTS: "xray"}
    assert segment_note("PLAN\n\nPLAN\n").bodies() == {Section.PLAN: ""}


def test_segment_empty_text():
    note = segment_note("")
    assert note == ChartNote(sections=(), preamble="")


def test_segment_coverage_every_line_lands_somewhere():
    text = synth_note(4)
    note = segment_note(text)
    source_nonblank = [ln for ln in text.splitlines() if ln.strip()]
    kept = []
    if note.preamble:
        kept.extend(note.preamble.splitlines())
    for sec in note.sections:
        kept.append(sec.header)
        kept.extend(ln for ln in sec.body.splitlines() if ln.strip())
    assert kept == source_nonblank


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def test_assemble_canonical_headers():
    note = ChartNote(
        sections=(
            NoteSection(Section.CC, "knee pain", header="cc:"),
            NoteSection(Section.PLAN, "rest", header="Plan"),
        )
    )
    assert assemble_note(note) == "CHIEF COMPLAINT\n\nknee pain\n\nPLAN\n\nrest\n"


def test_assemble_includes_preamble_first():
    note = ChartNote(
        sections=(NoteSection(Section.CC, "pain"),), preamble="seen in clinic"
    )
    assert assemble_note(note) == "seen in clinic\n\nCHIEF COMPLAINT\n\npain\n"


def test_assemble_keeps_source_order():
    note = ChartNote(
        sections=(
            NoteSection(UnknownSection("COURSE"), "stable"),
            NoteSection(Section.PLAN, "rest"),
            NoteSection(Section.CC, "pain"),
        )
    )
    out = assemble_note(note)
    assert out.index("COURSE") < out.index("PLAN") < out.index("CHIEF COMPLAINT")


def test_canonical_header_for_unknown_uses_raw():
    assert canonical_header(UnknownSection("COURSE")) == "COURSE"
    assert canonical_header(Section.PE) == Section.PE.header == "PHYSICAL EXAM"


# ---------------------------------------------------------------------------
# Round trip: assemble then segment recovers the same sections
# ---------------------------------------------------------------------------

def _random_note(rng: random.Random) -> ChartNote:
    sections = rng.sample(list(Section), rng.randint(1, len(Section)))
    return ChartNote(
        sections=tuple(NoteSection(sec, random_body(rng)) for sec in sections),
        preamble="",
    )


def test_assemble_segment_round_trip_randomized():
    rng = random.Random(42)
    for _ in range(100):
        note = _random_note(rng)
        recovered = segment_note(assemble_note(note))
        assert [(s.id, s.body) for s in recovered.sections] == [
            (s.id, s.body) for s in note.sections
        ]
        assert recovered.preamble == ""


@settings(max_examples=100, deadline=None)
@given(
    ids=st.lists(st.sampled_from(list(Section)), min_size=1, max_size=5, unique=True),
    seeds=st.integers(0, 2**20),
)
def test_assemble_segment_round_trip_property(ids, seeds):
    rng = random.Random(seeds)
    note = ChartNote(sections=tuple(NoteSection(sec, random_body(rng)) for sec in ids))
    recovered = segment_note(assemble_note(note))
    assert [(s.id, s.body) for s in recovered.sections] == [(s.id, s.body) for s in note.sections]


def test_safe_words_never_form_headers():
    for w in SAFE_WORDS:
        assert not is_header_line(w)


# ---------------------------------------------------------------------------
# The section table
# ---------------------------------------------------------------------------

def test_division_totality_and_assignments():
    expected = {
        Section.CC: Division.SUBJECTIVE,
        Section.HPI: Division.SUBJECTIVE,
        Section.ROS: Division.SUBJECTIVE,
        Section.MEDICATIONS: Division.SUBJECTIVE,
        Section.ALLERGIES: Division.SUBJECTIVE,
        Section.PE: Division.EXAM,
        Section.RESULTS: Division.RESULTS,
        Section.ASSESSMENT: Division.ASSESSMENT_AND_PLAN,
        Section.PLAN: Division.ASSESSMENT_AND_PLAN,
        Section.ASSESSMENT_AND_PLAN: Division.ASSESSMENT_AND_PLAN,
    }
    for section in Section:
        assert section.division is expected[section]


def test_section_order_covers_every_section_once():
    assert sorted(SECTION_ORDER, key=lambda s: s.value) == sorted(
        Section, key=lambda s: s.value
    )
    assert len(set(SECTION_ORDER)) == len(SECTION_ORDER)


def test_section_table_in_canonical_order():
    """Order fixes slot order and slot seeds; each section keeps its value, header and division."""
    assert SECTION_ORDER == tuple(Section)
    assert [(s.value, s.header, s.division) for s in SECTION_ORDER] == [
        ("CC", "CHIEF COMPLAINT", Division.SUBJECTIVE),
        ("HPI", "HISTORY OF PRESENT ILLNESS", Division.SUBJECTIVE),
        ("ROS", "REVIEW OF SYSTEMS", Division.SUBJECTIVE),
        ("MEDICATIONS", "MEDICATIONS", Division.SUBJECTIVE),
        ("ALLERGIES", "ALLERGIES", Division.SUBJECTIVE),
        ("PE", "PHYSICAL EXAM", Division.EXAM),
        ("RESULTS", "RESULTS", Division.RESULTS),
        ("ASSESSMENT", "ASSESSMENT", Division.ASSESSMENT_AND_PLAN),
        ("PLAN", "PLAN", Division.ASSESSMENT_AND_PLAN),
        ("ASSESSMENT_AND_PLAN", "ASSESSMENT AND PLAN", Division.ASSESSMENT_AND_PLAN),
    ]
    assert all(Section(s.value) is Section[s.value] is s for s in Section)
    assert not hasattr(UnknownSection("COURSE"), "division")
