"""Chart-note segmentation: header recognition, alias normalization, reassembly."""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Union

from .corpus import decode_utf8
from .errors import ChartsumError


class Section(Enum):
    CC = "CC"
    HPI = "HPI"
    ROS = "ROS"
    MEDICATIONS = "MEDICATIONS"
    ALLERGIES = "ALLERGIES"
    PE = "PE"
    RESULTS = "RESULTS"
    ASSESSMENT = "ASSESSMENT"
    PLAN = "PLAN"
    ASSESSMENT_AND_PLAN = "ASSESSMENT_AND_PLAN"


@dataclass(frozen=True)
class UnknownSection:
    """Header line that matched the shape rule but no alias; keeps the verbatim text."""

    raw: str


SectionId = Union[Section, UnknownSection]

# Display headers emitted by assemble_note; each one must resolve back to its
# Section through the default alias table.
CANONICAL_HEADERS: dict[Section, str] = {
    Section.CC: "CHIEF COMPLAINT",
    Section.HPI: "HISTORY OF PRESENT ILLNESS",
    Section.ROS: "REVIEW OF SYSTEMS",
    Section.MEDICATIONS: "MEDICATIONS",
    Section.ALLERGIES: "ALLERGIES",
    Section.PE: "PHYSICAL EXAM",
    Section.RESULTS: "RESULTS",
    Section.ASSESSMENT: "ASSESSMENT",
    Section.PLAN: "PLAN",
    Section.ASSESSMENT_AND_PLAN: "ASSESSMENT AND PLAN",
}

SECTION_ORDER: tuple[Section, ...] = (
    Section.CC,
    Section.HPI,
    Section.ROS,
    Section.MEDICATIONS,
    Section.ALLERGIES,
    Section.PE,
    Section.RESULTS,
    Section.ASSESSMENT,
    Section.PLAN,
    Section.ASSESSMENT_AND_PLAN,
)


class Division(Enum):
    SUBJECTIVE = "Subjective"
    EXAM = "Exam"
    RESULTS = "Results"
    ASSESSMENT_AND_PLAN = "AssessmentAndPlan"


_DIVISION_OF: dict[Section, Division] = {
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


class SectionError(ChartsumError):
    pass


class UnmappedSection(SectionError):
    def __init__(self, section: SectionId):
        super().__init__(f"no division for section {section!r}")
        self.section = section


class AliasTableError(SectionError):
    pass


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


def load_alias_table(path: str | Path) -> dict[str, Section]:
    """Parse an "alias -> SECTION" file into a canonical-key lookup table."""
    table: dict[str, Section] = {}
    text = decode_utf8(Path(path).read_bytes(), path, AliasTableError)
    for line_num, line in enumerate(text.splitlines(), start=1):
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        alias, sep, target = entry.partition("->")
        if not sep:
            raise AliasTableError(f"line {line_num}: expected 'alias -> SECTION', got {entry!r}")
        key = canonical_key(alias)
        if not key:
            raise AliasTableError(f"line {line_num}: empty alias")
        try:
            section = Section[target.strip()]
        except KeyError:
            raise AliasTableError(f"line {line_num}: unknown section {target.strip()!r}") from None
        if key in table and table[key] is not section:
            raise AliasTableError(
                f"line {line_num}: alias {key!r} maps to both {table[key].value} and {section.value}"
            )
        table[key] = section
    return table


@functools.cache
def default_alias_table() -> Mapping[str, Section]:
    """The packaged alias table, parsed on first use and shared read-only."""
    with resources.as_file(resources.files("chartsum.data") / "section_aliases.txt") as path:
        return MappingProxyType(load_alias_table(path))


def normalize_header(raw: str) -> SectionId:
    """Resolve a header string to a Section via canonical-key lookup; miss → UnknownSection."""
    section = default_alias_table().get(canonical_key(raw))
    return section if section is not None else UnknownSection(raw)


@functools.cache
def _max_alias_words() -> int:
    """Words in the longest key of the default alias table."""
    return max((len(key.split()) for key in default_alias_table()), default=0)


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
    cap = _max_alias_words()
    words = text.strip(_EDGE_CHARS).split(None, cap)
    if len(words) <= cap and " ".join(words).upper() in default_alias_table():
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
    return section.raw if isinstance(section, UnknownSection) else CANONICAL_HEADERS[section]


def assemble_note(note: ChartNote) -> str:
    """Render sections in their given order as canonical header / blank line / body / blank line."""
    parts: list[str] = []
    if note.preamble:
        parts.extend([note.preamble, ""])
    for sec in note.sections:
        parts.extend([canonical_header(sec.id), "", sec.body, ""])
    return "\n".join(parts)


def division_of(section: SectionId) -> Division:
    """Map a known section to its scoring division; UnknownSection has none."""
    if isinstance(section, UnknownSection):
        raise UnmappedSection(section)
    return _DIVISION_OF[section]
