"""The mutant registry still applies: each old text occurs once, each test exists.

Running the mutants themselves takes minutes; `python tests/mutants.py` does it.
"""

from __future__ import annotations

from mutants import MUTANTS, ROOT, Mutant, misplaced


def test_every_mutant_applies_exactly_once():
    assert misplaced(MUTANTS, ROOT) == []


def test_misplaced_flags_what_it_should(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\ny = 1\nz = 2\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(
        "def test_x():\n    pass\n# def test_commented():\n", encoding="utf-8")
    test = "tests/test_m.py::test_x"

    def mutant(name, old, new="w = 3\n", file="src/m.py", tests=(test,)):
        return Mutant(name=name, file=file, old=old, new=new, tests=tests, breaks="")

    mutants = [
        mutant("good", "z = 2\n"),
        mutant("twice", "= 1\n"),
        mutant("absent", "q = 9\n"),
        mutant("same", "x = 1\n", new="x = 1\n"),
        mutant("no-file", "x = 1\n", file="src/gone.py"),
        mutant("no-tests", "x = 1\n", tests=()),
        mutant("bad-test", "x = 1\n", tests=("tests/test_m.py::test_commented",
                                             "tests/test_gone.py::test_x")),
        mutant("good", "y = 1\n"),
    ]
    assert misplaced(mutants, tmp_path) == [
        "twice: old text occurs 2 times in src/m.py",
        "absent: old text occurs 0 times in src/m.py",
        "same: old and new texts are equal",
        "no-file: no file src/gone.py",
        "no-tests: names no test",
        "bad-test: no test tests/test_m.py::test_commented",
        "bad-test: no test tests/test_gone.py::test_x",
        "good: name used twice",
    ]
