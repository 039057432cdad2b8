"""Chart-note sections: the known-section table, segmentation and reassembly.

`Section` is the one table of known sections: its members are in canonical order
(`SECTION_ORDER`, which fixes slot order and slot seeds), and each carries the
`Division` it is scored in and the header spellings (aliases) that name it, the
first of which is the header `assemble_note` writes. A header with no alias
becomes an `UnknownSection`, which keeps its raw text and has no division.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Mapping, Union


class Division(Enum):
    SUBJECTIVE = "Subjective"
    EXAM = "Exam"
    RESULTS = "Results"
    ASSESSMENT_AND_PLAN = "AssessmentAndPlan"


class Section(Enum):
    """A known section: its value (its name), scoring division and aliases.

    `aliases` are the header spellings that name the section; the first is its
    display `header`.
    """

    division: Division
    aliases: tuple[str, ...]
    header: str

    def __new__(cls, value: str, division: Division, *aliases: str) -> Section:
        member = object.__new__(cls)
        member._value_ = value
        member.division = division
        member.aliases = aliases
        member.header = aliases[0]
        return member

    CC = "CC", Division.SUBJECTIVE, "CHIEF COMPLAINT", "CC", "REASON FOR VISIT"
    HPI = "HPI", Division.SUBJECTIVE, "HISTORY OF PRESENT ILLNESS", "HPI", "INTERVAL HISTORY"
    ROS = "ROS", Division.SUBJECTIVE, "REVIEW OF SYSTEMS", "REVIEW OF SYSTEM", "ROS"
    MEDICATIONS = ("MEDICATIONS", Division.SUBJECTIVE,
                   "MEDICATIONS", "MEDICATION", "CURRENT MEDICATIONS", "MEDS")
    ALLERGIES = "ALLERGIES", Division.SUBJECTIVE, "ALLERGIES", "ALLERGY", "DRUG ALLERGIES"
    PE = "PE", Division.EXAM, "PHYSICAL EXAM", "PHYSICAL EXAMINATION", "PE", "EXAM", "EXAMINATION"
    RESULTS = ("RESULTS", Division.RESULTS,
               "RESULTS", "LAB RESULTS", "LABS", "DIAGNOSTIC RESULTS", "IMAGING")
    ASSESSMENT = "ASSESSMENT", Division.ASSESSMENT_AND_PLAN, "ASSESSMENT", "IMPRESSION"
    PLAN = "PLAN", Division.ASSESSMENT_AND_PLAN, "PLAN", "TREATMENT PLAN"
    ASSESSMENT_AND_PLAN = ("ASSESSMENT_AND_PLAN", Division.ASSESSMENT_AND_PLAN,
                           "ASSESSMENT AND PLAN", "ASSESSMENT & PLAN", "ASSESSMENT PLAN", "A&P",
                           "A/P", "IMPRESSION AND PLAN")


SECTION_ORDER: tuple[Section, ...] = tuple(Section)


@dataclass(frozen=True)
class UnknownSection:
    """Header line that matched the shape rule but no alias; keeps the verbatim text."""

    raw: str


SectionId = Union[Section, UnknownSection]


@dataclass(frozen=True)
class NoteSection:
    """One segmented section: its id, trimmed body, and the source header line."""

    id: SectionId
    body: str
    header: str | None = None


@dataclass(frozen=True)
class ChartNote:
    sections: tuple[NoteSection, ...] = ()
    preamble: str = ""

    def bodies(self) -> dict[SectionId, str]:
        """Body per id. A repeated section's bodies are joined in note order by a
        blank line; an empty body adds nothing."""
        out: dict[SectionId, str] = {}
        for sec in self.sections:
            earlier = out.get(sec.id)
            out[sec.id] = (
                sec.body if earlier is None else "\n\n".join(filter(None, (earlier, sec.body)))
            )
        return out


# Characters that `canonical_key` strips from both ends of a header.
_EDGE_CHARS = string.punctuation + string.whitespace

# The shape rule's limit on the words of a header line.
_MAX_SHAPE_WORDS = 6


def canonical_key(raw: str) -> str:
    """Trim, strip edge punctuation, collapse inner whitespace, uppercase."""
    stripped = raw.strip().strip(_EDGE_CHARS)
    return " ".join(stripped.split()).upper()


# Canonical key → the section it names, over every section's aliases.
ALIAS_TABLE: Mapping[str, Section] = MappingProxyType(
    {canonical_key(alias): section for section in Section for alias in section.aliases}
)

# Words in the longest key of ALIAS_TABLE.
_MAX_ALIAS_WORDS = max(len(key.split()) for key in ALIAS_TABLE)


def normalize_header(raw: str) -> SectionId:
    """Resolve a header string to a Section via canonical-key lookup; miss → UnknownSection."""
    section = ALIAS_TABLE.get(canonical_key(raw))
    return section if section is not None else UnknownSection(raw)


def is_header_line(line: str) -> bool:
    """True iff the line's canonical form is an alias key or the line fits the header shape.

    Shape rule: at most 6 words, at least one uppercase letter, no lowercase
    letters, optionally terminated by a colon.

    Both tests split off at most one word more than they can accept, so a long
    body line is rejected without splitting it whole. Uppercasing adds and
    removes no whitespace, so a canonical key has as many words as the
    stripped text it comes from.
    """
    text = line.strip()
    if not text:
        return False
    words = text.strip(_EDGE_CHARS).split(None, _MAX_ALIAS_WORDS)
    if len(words) <= _MAX_ALIAS_WORDS and " ".join(words).upper() in ALIAS_TABLE:
        return True
    if text.endswith(":"):
        text = text[:-1].rstrip()
    if not text or len(text.split(None, _MAX_SHAPE_WORDS)) > _MAX_SHAPE_WORDS:
        return False
    return any(map(str.isupper, text)) and not any(map(str.islower, text))


def _trim_blank_edges(lines: list[str]) -> list[str]:
    start, end = 0, len(lines)
    while start < end and not lines[start].strip():
        start += 1
    while end > start and not lines[end - 1].strip():
        end -= 1
    return lines[start:end]


def segment_note(text: str) -> ChartNote:
    """Split note text into (section, body) runs; text before the first header is preamble."""
    preamble_lines: list[str] = []
    sections: list[NoteSection] = []
    current_header: str | None = None
    current_body: list[str] = []

    def flush() -> None:
        if current_header is None:
            return
        body = "\n".join(_trim_blank_edges(current_body))
        sections.append(
            NoteSection(id=normalize_header(current_header), body=body, header=current_header)
        )

    for line in text.splitlines():
        if is_header_line(line):
            flush()
            current_header = line.strip()
            current_body = []
        elif current_header is None:
            preamble_lines.append(line)
        else:
            current_body.append(line)
    flush()
    preamble = "\n".join(_trim_blank_edges(preamble_lines))
    return ChartNote(sections=tuple(sections), preamble=preamble)


def canonical_header(section: SectionId) -> str:
    return section.raw if isinstance(section, UnknownSection) else section.header


def assemble_note(note: ChartNote) -> str:
    """Render sections in their given order as canonical header / blank line / body / blank line."""
    parts: list[str] = []
    if note.preamble:
        parts.extend([note.preamble, ""])
    for sec in note.sections:
        parts.extend([canonical_header(sec.id), "", sec.body, ""])
    return "\n".join(parts)

