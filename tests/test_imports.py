"""Import hygiene of the package.

Every name a package module imports is read in that module or listed in its
`__all__`, every module-level private name is read somewhere in the
package, and every module-level public function, class and constant is named
in the package, perfbench or README.md outside its own definition and beyond
a bare re-export. numpy and `chartsum.tinylsg` load only for commands that
train or decode. The functions perfbench/tracing.py wraps stay bound where it
wraps them.
Input files are decoded and parsed as JSON in one place each, and indented
JSON output is rendered in one place. Every `from chartsum... import` that
README.md shows imports. The package is Python source only: it ships no data
file and reads none through `importlib.resources`. Every exception class the
package defines is raised by name somewhere in it.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from chartsum.cli import main
from chartsum.corpus import save_corpus
from synthdata import synth_corpus, synth_note

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chartsum"
PERFBENCH = PACKAGE.parents[1] / "perfbench"
README = PACKAGE.parents[1] / "README.md"


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


def _bound_names(node: ast.stmt) -> list[str]:
    """Names a module-level def, class or assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name`s that no code in `sources` reads outside their own definition.

    A read is a name load in the defining module, or, in any module, an
    import of the name or an attribute access by that name.
    """
    defined = []  # (module, name, line, index of the defining statement)
    local_reads: dict[str, list[tuple[str, int]]] = {}
    foreign_reads: set[str] = set()
    for module, source in sources.items():
        for index, statement in enumerate(ast.parse(source).body):
            defined.extend((module, name, statement.lineno, index)
                           for name in _bound_names(statement)
                           if name.startswith("_") and not name.startswith("__"))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    local_reads.setdefault(node.id, []).append((module, index))
                elif isinstance(node, ast.Attribute):
                    foreign_reads.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    foreign_reads.update(alias.name for alias in node.names)
    return sorted(
        f"{module}: {name} (line {line})"
        for module, name, line, index in defined
        if name not in foreign_reads and not any(
            where == module and at != index for where, at in local_reads.get(name, ()))
    )


def test_every_private_name_is_read():
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_private_name_check_flags_what_it_should():
    sources = {
        "a.py": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "def _imported():\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "class _Dead:\n"
            "    pass\n"
            "__all__ = ['public']\n"
            "def public():\n"
            "    return _USED\n"
        ),
        "b.py": (
            "from .a import _imported\n"
            "from . import a\n"
            "_ALSO, _LOCAL = 3, 4\n"
            "def f():\n"
            "    return _imported(), a._by_attribute, _USED, _LOCAL\n"
        ),
    }
    assert dead_private_names(sources) == [
        "a.py: _Dead (line 9)", "a.py: _UNUSED (line 2)", "a.py: _recursive (line 3)",
        "b.py: _ALSO (line 3)",
    ]


_WORD = re.compile(r"[A-Za-z_]\w*")


def unnamed_public_names(package: dict[str, str], elsewhere: str) -> list[str]:
    """Module-level public functions, classes and constants of `package` that nothing
    else names.

    A name is named when it is a word of `elsewhere`, or of any module of
    `package` outside the lines of its own definition. The imports and the
    `__all__` of an `__init__.py` do not count: a bare re-export is not a use.
    What only tests name, such as a reference oracle, is reported: it belongs
    in tests/.
    """
    named_elsewhere = set(_WORD.findall(elsewhere))
    words, defined = {}, []
    for module, source in package.items():
        lines = [set(_WORD.findall(line)) for line in source.splitlines()]
        for node in ast.parse(source).body:
            names = _bound_names(node)
            if module.endswith("__init__.py") and (
                    isinstance(node, (ast.Import, ast.ImportFrom)) or "__all__" in names):
                for at in range(node.lineno - 1, node.end_lineno):
                    lines[at] = set()
            defined.extend((module, name, node.lineno, node.end_lineno) for name in names
                           if not name.startswith("_") and name not in named_elsewhere)
        words[module] = lines
    found = []
    for module, name, first, last in defined:
        outside = (line for where, lines in words.items()
                   for at, line in enumerate(lines, 1)
                   if where != module or not first <= at <= last)
        if not any(name in line for line in outside):
            found.append(f"{module}: {name} (line {first})")
    return sorted(found)


def test_every_public_name_is_named_outside_its_definition():
    package = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    elsewhere = [path.read_text(encoding="utf-8") for path in sorted(PERFBENCH.rglob("*.py"))]
    elsewhere.append(README.read_text(encoding="utf-8"))
    assert unnamed_public_names(package, "\n".join(elsewhere)) == []


def test_unnamed_public_name_check_flags_what_it_should():
    package = {
        "masks.py": (
            "def lsg_mask(n):\n"
            "    return n\n"
            "def mask_to_bias(mask):\n"
            "    '''The additive form of a mask, as `mask_to_bias` names it.'''\n"
            "    return mask_to_bias(mask)\n"
            "def _private():\n"
            "    def nested():\n"
            "        pass\n"
            "class Layout:\n"
            "    def method(self):\n"
            "        pass\n"
            "class Dead:\n"
            "    pass\n"
            "x = Layout()\n"
            "PAD_ID = 0\n"
            "BOS_ID: int = 1\n"
            "RESERVED, _HIDDEN = (\n"
            "    'RESERVED', 2)\n"
            "__version__ = '1'\n"
        ),
        "model.py": (
            "from .masks import lsg_mask, BOS_ID\n"
            "def traced():\n"
            "    pass\n"
            "def documented():\n"
            "    pass\n"
            "async def served():\n"
            "    pass\n"
        ),
        "__init__.py": (
            "from .masks import (\n"
            "    Layout,\n"
            "    PAD_ID,\n"
            ")\n"
            "import masks\n"
            "__all__ = [\n"
            "    'Layout', 'PAD_ID', 'x']\n"
            "EXPORTED = Layout\n"
        ),
    }
    elsewhere = "TRACED = ('traced',)\nSee `documented` and EXPORTED.\n"
    assert unnamed_public_names(package, elsewhere) == [
        "masks.py: Dead (line 12)", "masks.py: PAD_ID (line 15)",
        "masks.py: RESERVED (line 17)", "masks.py: mask_to_bias (line 3)",
        "masks.py: x (line 14)", "model.py: served (line 6)",
    ]


# ---------------------------------------------------------------------------
# numpy loads only where the model runs
# ---------------------------------------------------------------------------

HEAVY = ("numpy", "chartsum.tinylsg")


def _imported_modules(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Dotted names an import statement in a top-level `chartsum` module may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level == 0:
        return [node.module]
    if node.module is None:  # from . import name
        return [f"chartsum.{alias.name}" for alias in node.names]
    return [f"chartsum.{node.module}"]


def heavy_module_level_imports(source: str) -> list[str]:
    """Imports of numpy or chartsum.tinylsg that run when the module loads.

    Statements inside functions and classes, and under `if TYPE_CHECKING:`,
    run later or never, so they are not reported.
    """
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending.extend(node.orelse)
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler, ast.With)):
            pending.extend(child for child in ast.iter_child_nodes(node)
                           if isinstance(child, (ast.stmt, ast.ExceptHandler)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            name == heavy or name.startswith(heavy + ".")
            for name in _imported_modules(node) for heavy in HEAVY
        ):
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {text}" for line, text in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_top_level_module_imports_no_numpy_at_load(path):
    assert heavy_module_level_imports(path.read_text(encoding="utf-8")) == []


def test_heavy_import_check_flags_what_it_should():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "from .tinylsg.train import generate\n"
        "from . import config, tinylsg\n"
        "try:\n"
        "    import numpy.linalg\n"
        "except ImportError:\n"
        "    from chartsum.tinylsg import train\n"
        "from .config import LsgConfig\n"
        "import numbers\n"
        "if TYPE_CHECKING:\n"
        "    from .tinylsg import TinyModel\n"
        "def f():\n"
        "    import numpy\n"
    )
    assert heavy_module_level_imports(source) == [
        "line 2: import numpy as np",
        "line 3: from .tinylsg.train import generate",
        "line 4: from . import config, tinylsg",
        "line 6: import numpy.linalg",
        "line 8: from chartsum.tinylsg import train",
    ]


# Runs in a fresh interpreter: `import chartsum.cli`, then `main(argv)` when an
# argv is given; prints the exit code and which of HEAVY were loaded.
_PROBE = """
import json, sys
from chartsum.cli import main
code = main(json.loads(sys.argv[1])) if len(sys.argv) > 1 else None
print(json.dumps([code, [name for name in {heavy!r} if name in sys.modules]]))
""".format(heavy=HEAVY)


def _fresh(cwd: Path, argv: list[str] | None = None) -> tuple[int | None, list[str]]:
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    args = [sys.executable, "-c", _PROBE] + ([] if argv is None else [json.dumps(argv)])
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, loaded


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports")
    save_corpus(synth_corpus(6), path / "corpus.csv")
    save_corpus(synth_corpus(3, start=6), path / "eval.csv")
    (path / "note.txt").write_text(synth_note(0), encoding="utf-8")
    assert main(["run", "--approach", "single", "--train", str(path / "corpus.csv"),
                 "--eval", str(path / "eval.csv"), "--backend", "oracle", "--seed", "0",
                 "--out-dir", str(path / "run")]) == 0
    return path


def test_importing_the_cli_loads_no_numpy(tmp_path):
    assert _fresh(tmp_path) == (None, [])


RUN = ["run", "--train", "corpus.csv", "--eval", "eval.csv", "--seed", "0"]
LIGHT_COMMANDS = {
    "score": ["score", "--candidates", "eval.csv", "--references", "eval.csv"],
    "report": ["report", "--in", "run/report.json"],
    "split-sections": ["split-sections", "--in", "note.txt"],
    **{
        f"run-{approach}-{backend}": RUN + ["--approach", approach, "--backend", backend,
                                             "--stage2-backend", backend]
        for approach in ("single", "section-wise", "multi-layer")
        for backend in ("extractive", "identity", "oracle")
    },
}
TINY = ["--d-model", "8", "--enc-layers", "1", "--dec-layers", "1", "--d-ff", "16",
        "--epochs", "1", "--block", "4", "--max-input", "64", "--max-summary-tokens", "4"]
MODEL_COMMANDS = {
    "train": ["train", "--train", "corpus.csv", "--checkpoint", "model.json", "--seed", "0",
              *TINY],
    "run-single-tiny-lsg": RUN + ["--approach", "single", "--backend", "tiny-lsg", *TINY],
}


@pytest.mark.parametrize("argv", LIGHT_COMMANDS.values(), ids=LIGHT_COMMANDS)
def test_commands_without_a_model_load_no_numpy(workdir, argv):
    assert _fresh(workdir, argv) == (0, [])


@pytest.mark.parametrize("argv", MODEL_COMMANDS.values(), ids=MODEL_COMMANDS)
def test_commands_with_a_model_load_numpy(workdir, argv):
    assert _fresh(workdir, argv) == (0, list(HEAVY))


# ---------------------------------------------------------------------------
# the bindings perfbench/tracing.py wraps
# ---------------------------------------------------------------------------

# Module → functions that perfbench/tracing.py replaces in that module's
# globals, so each must be bound there as soon as the module is imported.
TRACED_BINDINGS = {
    "chartsum.cli": ("main", "load_corpus", "save_predictions", "run_approach", "evaluate"),
    "chartsum.pipeline": ("build_vocab", "train", "summarize_ids", "segment_note",
                          "assemble_note", "corpus_rouge", "rouge_n", "tokenize"),
    "chartsum.rouge": ("rouge_n", "tokenize", "lcs_length"),
    "chartsum.tinylsg.vocab": ("tokenize",),
    "chartsum.tinylsg.train": ("generate", "loss_and_grads"),
}


@pytest.mark.parametrize("module", TRACED_BINDINGS)
def test_traced_names_are_module_level_functions(module):
    namespace = vars(importlib.import_module(module))
    assert [name for name in TRACED_BINDINGS[module]
            if not inspect.isfunction(namespace.get(name))] == []


def test_tinylsg_train_is_the_function_not_the_module():
    from chartsum.tinylsg import train

    assert inspect.isfunction(train)


# ---------------------------------------------------------------------------
# one decode and one JSON parse for every input file, one indented-JSON rendering
# ---------------------------------------------------------------------------

# Call → the one (module, function) allowed to make it.
SHARED_READERS = {
    "json.loads": ("corpus.py", "parse_json"),
    '.decode("utf-8")': ("corpus.py", "decode_utf8"),
    "indented JSON": ("corpus.py", "json_text"),
}
_UTF8_NAMES = {"utf-8", "utf8", "utf_8"}


def _reader_call(node: ast.Call) -> str | None:
    """The SHARED_READERS key this call is an instance of, if any.

    `json.load`/`json.loads` count as "json.loads"; `.decode()`,
    `.decode("utf-8")` (any spelling) and `.read_text(...)` count as UTF-8
    decodes; `json.dump`/`json.dumps` with an `indent` keyword, and
    `encode_basestring` (json's string escaper, by bare name or attribute),
    count as indented-JSON renderings; `json.dumps` without `indent` (compact
    JSON) counts as nothing.
    """
    func = node.func
    if isinstance(func, ast.Name):
        return "indented JSON" if func.id == "encode_basestring" else None
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr == "encode_basestring":
        return "indented JSON"
    if ast.unparse(func) in ("json.load", "json.loads"):
        return "json.loads"
    if ast.unparse(func) in ("json.dump", "json.dumps"):
        indented = any(keyword.arg == "indent" for keyword in node.keywords)
        return "indented JSON" if indented else None
    if func.attr == "read_text":
        return '.decode("utf-8")'
    if func.attr == "decode" and not node.keywords:
        first = node.args[0] if node.args else None
        if first is None or (isinstance(first, ast.Constant)
                             and str(first.value).lower() in _UTF8_NAMES):
            return '.decode("utf-8")'
    return None


def reader_calls(source: str, module: str) -> list[str]:
    """JSON parses, UTF-8 decodes and indented-JSON renderings made outside the
    function SHARED_READERS allows, or a function nested in it."""
    found = []

    def visit(node: ast.AST, functions: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                found.append(f"line {child.lineno}: {ast.unparse(child)}")
            if isinstance(child, ast.Call):
                kind = _reader_call(child)
                if kind is not None:
                    allowed_module, allowed_function = SHARED_READERS[kind]
                    if allowed_module != module or allowed_function not in functions:
                        found.append(f"line {child.lineno}: {ast.unparse(child)}")
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, functions + (child.name,) if is_function else functions)

    visit(ast.parse(source), ())
    return found


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: str(path.relative_to(PACKAGE))
)
def test_input_files_are_decoded_and_parsed_in_one_place(path):
    assert reader_calls(path.read_text(encoding="utf-8"), path.name) == []


def test_reader_call_check_flags_what_it_should():
    source = (
        "import json\n"
        "from json import loads\n"
        "def parse_json(text):\n"
        "    return json.loads(text)\n"
        "def decode_utf8(data):\n"
        "    return data.decode('utf-8')\n"
        "def json_text(value):\n"
        "    def render(item):\n"
        "        return encode_basestring(item)\n"
        "    return json.dumps(value, sort_keys=True, indent=2) + render(value)\n"
        "def other(path, data, ids, x):\n"
        "    json.load(open(path))\n"
        "    data.decode()\n"
        "    data.decode('UTF8')\n"
        "    path.read_text(encoding='utf-8')\n"
        "    data.decode('ascii')\n"
        "    vocab.decode(ids)\n"
        "    json.dumps(x, indent=2)\n"
        "    json.dumps(x, sort_keys=True, separators=(',', ':'))\n"
        "    encode_basestring(x)\n"
        "    json.encoder.encode_basestring(x)\n"
        "    def parse_json(text):\n"
        "        return json.loads(text)\n"
    )
    assert reader_calls(source, "corpus.py") == [
        "line 2: from json import loads",
        "line 12: json.load(open(path))",
        "line 13: data.decode()",
        "line 14: data.decode('UTF8')",
        "line 15: path.read_text(encoding='utf-8')",
        "line 18: json.dumps(x, indent=2)",
        "line 20: encode_basestring(x)",
        "line 21: json.encoder.encode_basestring(x)",
    ]
    assert reader_calls(source, "cli.py") == [
        "line 2: from json import loads",
        "line 4: json.loads(text)",
        "line 6: data.decode('utf-8')",
        "line 9: encode_basestring(item)",
        "line 10: json.dumps(value, sort_keys=True, indent=2)",
        "line 12: json.load(open(path))",
        "line 13: data.decode()",
        "line 14: data.decode('UTF8')",
        "line 15: path.read_text(encoding='utf-8')",
        "line 18: json.dumps(x, indent=2)",
        "line 20: encode_basestring(x)",
        "line 21: json.encoder.encode_basestring(x)",
        "line 23: json.loads(text)",
    ]


# ---------------------------------------------------------------------------
# every import README.md shows works
# ---------------------------------------------------------------------------


def readme_imports(markdown: str) -> list[str]:
    """Each `from chartsum... import name` of a Python code block, as a one-name import."""
    blocks = re.findall(r"^```python\n(.*?)^```", markdown, flags=re.MULTILINE | re.DOTALL)
    return [
        f"from {node.module} import {alias.name}"
        for block in blocks
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "chartsum"
        for alias in node.names
    ]


def test_every_readme_import_imports():
    statements = readme_imports(README.read_text(encoding="utf-8"))
    assert statements
    failed = []
    for statement in statements:
        try:
            exec(statement, {})
        except ImportError as exc:
            failed.append(f"{statement}: {exc}")
    assert failed == []


def test_readme_import_check_reads_what_it_should():
    markdown = (
        "```sh\n"
        "python -c 'from chartsum import cli'\n"
        "```\n"
        "```python\n"
        "import chartsum\n"
        "from chartsum.tinylsg import (\n"
        "    LsgConfig,\n"
        "    lsg_mask as mask,\n"
        ")\n"
        "from numpy import array\n"
        "```\n"
    )
    assert readme_imports(markdown) == [
        "from chartsum.tinylsg import LsgConfig",
        "from chartsum.tinylsg import lsg_mask",
    ]


# ---------------------------------------------------------------------------
# the package is Python source only
# ---------------------------------------------------------------------------


def resource_imports(source: str) -> list[str]:
    """Imports, at any depth, that load or bind `importlib.resources`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(f"{name}.".startswith("importlib.resources.") for name in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_package_is_python_source_only():
    # pyproject.toml declares no package data, so an install would leave out any other file.
    files = [path for path in sorted(PACKAGE.rglob("*"))
             if path.is_file() and "__pycache__" not in path.parts]
    assert [str(path.relative_to(PACKAGE)) for path in files if path.suffix != ".py"] == []
    assert [f"{path.relative_to(PACKAGE)}: {found}" for path in files
            for found in resource_imports(path.read_text(encoding="utf-8"))] == []


def test_resource_import_check_flags_what_it_should():
    source = (
        "import importlib, importlib.metadata\n"
        "import importlib.resources\n"
        "from importlib import import_module, resources\n"
        "from importlib.resources.abc import Traversable\n"
        "from .resources import x\n"
        "def f():\n"
        "    import importlib.resources as r\n"
    )
    assert resource_imports(source) == [
        "line 2: import importlib.resources",
        "line 3: from importlib import import_module, resources",
        "line 4: from importlib.resources.abc import Traversable",
        "line 7: import importlib.resources as r",
    ]


# ---------------------------------------------------------------------------
# every exception class is raised
# ---------------------------------------------------------------------------


def _name(node: ast.expr) -> str | None:
    """The name a `Name` or the attribute an `Attribute` ends in."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def unraised_exceptions(sources: dict[str, str]) -> list[str]:
    """Exception classes defined in `sources` that no `raise` in them names.

    A class is an exception when one of its bases is a builtin exception or an
    exception class of `sources`. A `raise` names a class when it raises the bare
    name or a call of it; a class that is only subclassed or caught is reported.
    """
    classes, raised = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                classes.append((module, node.name, node.lineno, [_name(b) for b in node.bases]))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(_name(exc))
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    grown = True
    while grown:
        found = {name for _, name, _, bases in classes if exceptions.intersection(bases)}
        grown = not found <= exceptions
        exceptions |= found
    return sorted(f"{module}: {name} (line {line})" for module, name, line, bases in classes
                  if exceptions.intersection(bases) and name not in raised)


def test_every_exception_class_is_raised():
    sources = {str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert unraised_exceptions(sources) == []


def test_unraised_exception_check_flags_what_it_should():
    sources = {
        "errors.py": (
            "class ChartsumError(Exception):\n"
            "    pass\n"
            "class CorpusError(ChartsumError):\n"
            "    pass\n"
            "class Caught(ValueError):\n"
            "    pass\n"
        ),
        "corpus.py": (
            "from . import errors\n"
            "class MalformedFile(CorpusError):\n"
            "    pass\n"
            "class Deep(MalformedFile):\n"
            "    pass\n"
            "class Encounter:\n"
            "    pass\n"
            "class Quiet(errors.ChartsumError):\n"
            "    pass\n"
            "def load():\n"
            "    try:\n"
            "        raise MalformedFile('x')\n"
            "    except Caught:\n"
            "        raise\n"
            "    raise errors.ChartsumError\n"
        ),
    }
    assert unraised_exceptions(sources) == [
        "corpus.py: Deep (line 4)", "corpus.py: Quiet (line 8)",
        "errors.py: Caught (line 5)", "errors.py: CorpusError (line 3)",
    ]
