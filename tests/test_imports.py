"""Every name a package module imports is read in that module or listed in its `__all__`."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chartsum"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (other than `from __future__`) that are never read."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_flags_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from .pipeline import report, run_report_to_dict\n"
        "from .tinylsg import grad_check\n"
        "__all__ = ['grad_check']\n"
        "def f():\n"
        "    import ctypes\n"
        "    return ctypes.CDLL, report\n"
    )
    assert unused_imports(source) == ["os (line 2)", "run_report_to_dict (line 4)",
                                      "system (line 3)"]
