"""The line-coverage allowlist still applies: each entry names one line of its file.

Running the suite under the line collector takes minutes; `python tests/linecov.py`
does it.
"""

from __future__ import annotations

from linecov import ALLOWED, ROOT, Allowed, misplaced


def test_every_allowed_line_occurs_exactly_once():
    assert misplaced(ALLOWED, ROOT) == []


def test_misplaced_flags_what_it_should(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "def f(x):\n    if x:\n        return 1\n    return 1\n\n\ndef g():\n    return 1\n",
        encoding="utf-8")
    allowed = [
        Allowed("src/m.py", "        return 1", "good"),
        Allowed("src/m.py", "    return 1", "twice"),
        Allowed("src/m.py", "return 1", "no line is only its stripped text"),
        Allowed("src/m.py", "    if x:", ""),
        Allowed("src/gone.py", "    return 1", "no such file"),
    ]
    assert misplaced(allowed, tmp_path) == [
        "src/m.py: line '    return 1' occurs 2 times",
        "src/m.py: line 'return 1' occurs 0 times",
        "src/m.py: line '    if x:' gives no reason",
        "src/gone.py: no such file",
    ]
