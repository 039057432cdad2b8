"""Line coverage of the package by the test suite, against a committed allowlist.

    python tests/linecov.py

runs the whole suite (every test under `testpaths`, as Tier-1 does) with a
standard-library line collector limited to `src/chartsum`, then prints every
function-body line of the package that did not run. A function's lines are the
ones its code object maps instructions to (`code.co_lines()`), less its `def`
line, so docstrings, comments and blank lines never count. It exits 1 if an
unrun line is not in ALLOWED, or if the suite failed. Tier-1 runs only
`misplaced`, the cheap check that every entry still names one line
(tests/test_linecov.py).
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
import time
import types
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chartsum"


@dataclass(frozen=True)
class Allowed:
    file: str  # relative to the repository root
    line: str  # the whole line as written, indentation included; it occurs once in `file`
    reason: str  # why no test runs it


ALLOWED = (
    Allowed("src/chartsum/cli.py", "            return ()",
            "non-glibc C library: the tests run on glibc"),
    Allowed("src/chartsum/cli.py",
            "    except (AttributeError, ValueError, OSError):  # no confstr, or not a glibc name",
            "non-glibc C library: the tests run on glibc"),
    Allowed("src/chartsum/cli.py", "        return ()",
            "non-glibc C library: the tests run on glibc"),
    Allowed("src/chartsum/cli.py", "        code = errno.EACCES",
            "an unwritable path: the tests run as root, who may write anywhere"),
    Allowed("src/chartsum/corpus.py",
            '        raise MalformedFile(f"{path}: not UTF-8 text ({exc})") from exc',
            "the file changed between its read and its second decode"),
)


def misplaced(allowed, root: Path) -> list[str]:
    """Why each entry of `allowed` would not name one line under `root`; [] if all do."""
    problems = []
    for entry in allowed:
        path = root / entry.file
        if not path.is_file():
            problems.append(f"{entry.file}: no such file")
            continue
        count = path.read_text(encoding="utf-8").splitlines().count(entry.line)
        if count != 1:
            problems.append(f"{entry.file}: line {entry.line!r} occurs {count} times")
        if not entry.reason:
            problems.append(f"{entry.file}: line {entry.line!r} gives no reason")
    return problems


def function_lines(code) -> set[int]:
    """The lines of every function within `code` (a module's code object), less
    each function's `def` line; a module or class body's own lines are not counted."""
    lines = set()
    if code.co_flags & inspect.CO_NEWLOCALS:  # a function, lambda or comprehension
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        lines.discard(code.co_firstlineno)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= function_lines(const)
    return lines


class Collector:
    """Records (file, line) of each line run in a file under `directory`, in this
    thread and in threads started while it is on; a pytest plugin that reports them."""

    def __init__(self, directory: Path):
        self.prefix = str(directory) + os.sep
        self.seen: set[tuple[str, int]] = set()
        self._wanted: dict[str, bool] = {}
        self._previous = None

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        wanted = self._wanted.get(name)
        if wanted is None:
            wanted = self._wanted[name] = os.path.realpath(name).startswith(self.prefix)
        return self._local if wanted else None

    def start(self) -> None:
        self._previous = (sys.gettrace(), threading.gettrace())
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def unrun(self) -> dict[Path, list[int]]:
        """The function lines of each package file that did not run, by file."""
        ran: dict[str, set[int]] = {}
        for name, line in self.seen:
            ran.setdefault(os.path.realpath(name), set()).add(line)
        missing = {}
        for path in sorted(Path(self.prefix).rglob("*.py")):
            code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
            lines = sorted(function_lines(code) - ran.get(str(path.resolve()), set()))
            if lines:
                missing[path] = lines
        return missing

    def pytest_terminal_summary(self, terminalreporter):
        self.stop()
        text, self.unallowed = report(self.unrun(), ALLOWED)
        terminalreporter.write_sep("-", "line coverage of src/chartsum")
        terminalreporter.write(text)


def report(missing: dict[Path, list[int]], allowed) -> tuple[str, int]:
    """Two lines per unrun line, the second giving its allowlist reason or `NOT ALLOWED`,
    and a total; and the count of unrun lines that are not allowed."""
    reasons = {(ROOT / entry.file, entry.line): entry.reason for entry in allowed}
    out = []
    unallowed = 0
    for path, lines in missing.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            reason = reasons.get((path, text[line - 1]))
            unallowed += reason is None
            verdict = f"allowed: {reason}" if reason else "NOT ALLOWED"
            out.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}\n"
                       f"    {verdict}\n")
    total = sum(map(len, missing.values()))
    out.append(f"{total} function lines did not run; {unallowed} of them are not allowed\n")
    return "".join(out), unallowed


def main() -> int:
    problems = misplaced(ALLOWED, ROOT)
    if problems:
        print("\n".join(problems))
        return 1
    started = time.perf_counter()
    collector = Collector(PACKAGE)
    # On before pytest imports anything, so import-time function lines count as run.
    collector.start()
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider"], plugins=[collector])
    finally:
        collector.stop()
    print(f"line coverage run took {time.perf_counter() - started:.1f} s")
    if code != 0:
        print(f"the suite failed (pytest exit code {code})")
        return 1
    return 1 if collector.unallowed else 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
