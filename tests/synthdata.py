"""Synthetic encounter corpora shared across test modules.

Notes carry five canonical sections spanning all four divisions; dialogues
embed each section's sentences verbatim (lowercased) so extraction-style
summarizers can recover them. Body vocabulary deliberately avoids any word
combination that canonicalizes to a section-header alias.
"""

from __future__ import annotations

import random

from chartsum.corpus import Corpus, Encounter

_COMPLAINTS = ["knee pain", "elbow soreness", "wrist stiffness", "ankle swelling", "hip ache"]
_DURATIONS = ["two", "three", "four", "five", "six", "seven", "eight", "nine"]
_EXAM_FINDINGS = ["tender", "swollen", "warm", "stable", "bruised"]
_IMAGING = ["clean", "unremarkable", "negative", "mildly degenerative"]
_ADVICE = ["rest and ice", "gentle stretching", "light duty", "elevation at night"]

SECTION_HEADERS = (
    "CHIEF COMPLAINT",
    "HISTORY OF PRESENT ILLNESS",
    "PHYSICAL EXAM",
    "RESULTS",
    "ASSESSMENT AND PLAN",
)


def synth_fields(i: int) -> dict[str, str]:
    return {
        "cc": _COMPLAINTS[i % len(_COMPLAINTS)],
        "hpi": (
            f"{_COMPLAINTS[i % len(_COMPLAINTS)]} started "
            f"{_DURATIONS[i % len(_DURATIONS)]} days ago and feels worse at night"
        ),
        "pe": (
            f"joint looks {_EXAM_FINDINGS[i % len(_EXAM_FINDINGS)]} with "
            f"{_DURATIONS[(i + 3) % len(_DURATIONS)]} point motion limits"
        ),
        "results": f"imaging came back {_IMAGING[i % len(_IMAGING)]} today",
        "ap": (
            f"try {_ADVICE[i % len(_ADVICE)]} for "
            f"{_DURATIONS[(i + 1) % len(_DURATIONS)]} days then recheck"
        ),
    }


def synth_note(i: int) -> str:
    f = synth_fields(i)
    bodies = [f["cc"], f["hpi"], f["pe"], f["results"], f["ap"]]
    parts = []
    for header, body in zip(SECTION_HEADERS, bodies):
        parts.extend([header, "", body, ""])
    return "\n".join(parts)


def synth_dialogue(i: int) -> str:
    f = synth_fields(i)
    return "\n".join(
        [
            f"doctor: hello again, what brings you in? patient: {f['cc']}.",
            f"patient: the {f['hpi']}.",
            f"doctor: on my exam the {f['pe']}.",
            f"doctor: your {f['results']}.",
            f"doctor: please {f['ap']}.",
            "patient: thanks, that sounds manageable.",
        ]
    )


def synth_corpus(n: int, start: int = 0, label: str = "synth") -> Corpus:
    encounters = tuple(
        Encounter(id=f"{label}-{i:03d}", dialogue=synth_dialogue(i), note=synth_note(i))
        for i in range(start, start + n)
    )
    return Corpus(encounters=encounters)


# Words safe for random note bodies: no combination canonicalizes to a header alias.
SAFE_WORDS = [
    "aching", "mild", "swelling", "since", "tuesday", "left", "right", "worse",
    "better", "nightly", "stiff", "sore", "gradual", "sharp", "dull", "morning",
    "two", "weeks", "improving", "tender",
]


def random_body(rng: random.Random, max_lines: int = 3) -> str:
    lines = []
    for _ in range(rng.randint(1, max_lines)):
        lines.append(" ".join(rng.choices(SAFE_WORDS, k=rng.randint(2, 6))))
    return "\n".join(lines)
