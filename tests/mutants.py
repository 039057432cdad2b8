"""Mutant registry and runner: deliberate faults the test suite must catch.

Each mutant replaces one exact text of one source file with a broken form and
names the tests that must then fail. The fast paths are listed first: each is
checked against a slow oracle, and a mutant shows that the oracle test would
notice a fault in it.

    python tests/mutants.py

applies each mutant alone to a fresh temporary copy of `src/` and `tests/`,
runs its tests there, prints one line per mutant and a summary, and exits 1 if
any mutant survived (its tests passed) or could not be judged. Before the
mutants, the named tests run once on an unmutated copy, which must pass.
Tier-1 runs only `misplaced`, the cheap check that every entry still applies
(tests/test_mutants.py).
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# What a copy holds: the package, the tests, and pyproject.toml for pytest's settings.
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    old: str  # occurs exactly once in `file`
    new: str
    tests: tuple[str, ...]  # pytest node ids; the mutant is killed when one fails
    breaks: str  # what the mutant breaks, in one line


MUTANTS = (
    Mutant(
        name="lcs-bit-step",
        file="src/chartsum/rouge.py",
        old="            v = ((v + u) | (v - u)) & full\n",
        new="            v = ((v + u) ^ (v - u)) & full\n",
        tests=("tests/test_rouge.py::test_bit_parallel_lcs_matches_dp",),
        breaks="bit-parallel LCS: the row update ORs the carry and borrow terms",
    ),
    Mutant(
        name="decode-cached-positions",
        file="src/chartsum/tinylsg/model.py",
        old="    x, ids = _embed(params, tokens, start)\n",
        new="    x, ids = _embed(params, tokens)\n",
        tests=("tests/test_decode.py::test_generate_matches_full_recompute",),
        breaks="cached decoding: a step after the first is embedded at its own position",
    ),
    Mutant(
        name="decode-chunk-mask",
        file="src/chartsum/tinylsg/model.py",
        old="causal_masked(start + len(ids))[start:]",
        new="causal_masked(len(ids))",
        tests=("tests/test_decode.py::test_prefix_fed_in_two_chunks_matches_one_shot",),
        breaks="cached decoding: a chunk fed after cached positions masks by its new rows",
    ),
    Mutant(
        name="lsg-extra-values",
        file="src/chartsum/tinylsg/model.py",
        old="    out += probs[..., w:] @ vh[:, layout.extra]\n",
        new="    out -= probs[..., w:] @ vh[:, layout.extra]\n",
        tests=("tests/test_model.py::test_blocked_attention_matches_dense_on_long_inputs",),
        breaks="block-sparse attention: the sparse and global keys' values are added",
    ),
    Mutant(
        name="lsg-extra-key-grads",
        file="src/chartsum/tinylsg/model.py",
        old="    d_kh[:, layout.extra] += d_extra.transpose(0, 2, 1) @ q_rows\n",
        new="    d_kh[:, layout.extra] = d_extra.transpose(0, 2, 1) @ q_rows\n",
        tests=("tests/test_model.py::test_blocked_attention_matches_dense_on_long_inputs",),
        breaks="block-sparse attention: the extra keys' gradient adds to the local one",
    ),
    Mutant(
        name="lsg-global-rows",
        file="src/chartsum/tinylsg/model.py",
        old="    out[:, :g] = global_probs @ vh\n",
        new="    out[:, :g] += global_probs @ vh\n",
        tests=("tests/test_model.py::test_blocked_attention_matches_dense_on_long_inputs",),
        breaks="block-sparse attention: the global rows' dense output replaces the local one",
    ),
    Mutant(
        name="lsg-recomputed-heads",
        file="src/chartsum/tinylsg/model.py",
        old="    q_rows, k_pad, v_pad = _padded_heads(params, prefix, x, layout, h)\n"
            "    _, rows, dh = q_rows.shape\n",
        new="    q_rows, v_pad, k_pad = _padded_heads(params, prefix, x, layout, h)\n"
            "    _, rows, dh = q_rows.shape\n",
        tests=("tests/test_model.py::test_recomputing_kernels_are_bitwise_the_caching_oracle",),
        breaks="recomputed attention inputs: the backward rebuilds the forward's projections",
    ),
    Mutant(
        name="ff-recomputed-tanh",
        file="src/chartsum/tinylsg/model.py",
        old="    pre = _ff_pre(params, prefix, x)\n    t = _gelu_tanh(pre)\n",
        new="    pre = _ff_pre(params, prefix, x)\n    t = np.tanh(pre)\n",
        tests=("tests/test_model.py::test_recomputing_kernels_are_bitwise_the_caching_oracle",),
        breaks="recomputed feed-forward input: the backward rebuilds the forward's tanh term",
    ),
    Mutant(
        name="adam-chunk-bounds",
        file="src/chartsum/tinylsg/train.py",
        old="        chunk = slice(start, start + _ADAM_CHUNK)\n",
        new="        chunk = slice(start, start + _ADAM_CHUNK - 1)\n",
        tests=("tests/test_train.py::test_chunked_adam_is_bitwise_the_per_array_reference",),
        breaks="chunked Adam: the chunks cover every parameter",
    ),
    Mutant(
        name="adam-folded-step-size",
        file="src/chartsum/tinylsg/train.py",
        old="        np.divide(m, bias1, out=g)\n        g *= lr\n",
        new="        np.multiply(m, lr / bias1, out=g)\n",
        tests=("tests/test_train.py::test_chunked_adam_is_bitwise_the_per_array_reference",),
        breaks="chunked Adam: m/bias1 and the lr multiply round as the per-array reference does",
    ),
    Mutant(
        name="json-text-list-close",
        file="src/chartsum/corpus.py",
        old='            return f"[{inner}{body}{indent}]"\n',
        new='            return f"[{inner}{body}{inner}]"\n',
        tests=("tests/test_corpus.py::test_json_text_equals_json_dumps",),
        breaks="json_text: a list closes at its own indent, as json.dumps writes it",
    ),
    Mutant(
        name="kind-rule-bom",
        file="src/chartsum/corpus.py",
        old="        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:\n",
        new="        if True:\n",
        tests=("tests/test_corpus.py::test_is_prediction_file_is_the_one_kind_rule",),
        breaks="input kind rule: a byte-order mark before `{` still makes a prediction file",
    ),
    Mutant(
        name="kind-rule-jsonl-name",
        file="src/chartsum/corpus.py",
        old="    if name.endswith((\".json\", *JSONL_SUFFIXES)):\n",
        new="    if name.endswith(\".json\"):\n",
        tests=("tests/test_corpus.py::test_is_prediction_file_is_the_one_kind_rule",
               "tests/test_cli.py::test_score_reads_each_input_as_the_kind_rule_says"),
        breaks="input kind rule: a JSONL name is a corpus whatever its rows hold",
    ),
)


def misplaced(mutants, root: Path) -> list[str]:
    """Why each entry of `mutants` would not apply or judge under `root`; [] if all do.

    An entry must have a unique name, an old text that occurs exactly once in its
    file and differs from the new one, and tests whose files define them.
    """
    problems = []
    seen = set()
    for mutant in mutants:
        where = f"{mutant.name}: "
        if mutant.name in seen:
            problems.append(where + "name used twice")
        seen.add(mutant.name)
        path = root / mutant.file
        count = path.read_text(encoding="utf-8").count(mutant.old) if path.is_file() else None
        if count is None:
            problems.append(where + f"no file {mutant.file}")
        elif count != 1:
            problems.append(where + f"old text occurs {count} times in {mutant.file}")
        if mutant.old == mutant.new:
            problems.append(where + "old and new texts are equal")
        if not mutant.tests:
            problems.append(where + "names no test")
        for test in mutant.tests:
            file, _, function = test.partition("::")
            source = root / file
            defined = source.is_file() and re.search(
                rf"^def {re.escape(function)}\(", source.read_text(encoding="utf-8"), re.M)
            if not defined:
                problems.append(where + f"no test {test}")
    return problems


def _copy(into: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, into / name, ignore=ignore)
        else:
            shutil.copy2(source, into / name)


def _pytest(copy: Path, tests) -> int:
    """The exit code of pytest on `tests` in `copy`, importing the copy's package."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutants) -> int:
    problems = misplaced(mutants, ROOT)
    if problems:
        print("\n".join(problems))
        return 1
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy(clean)
        every_test = sorted({test for mutant in mutants for test in mutant.tests})
        if _pytest(clean, every_test) != 0:
            print("the named tests fail on an unmutated copy; no mutant can be judged")
            return 1
        counts = {"killed": 0, "survived": 0, "error": 0}
        for index, mutant in enumerate(mutants):
            copy = Path(scratch) / f"m{index}"
            _copy(copy)
            target = copy / mutant.file
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.old, mutant.new, 1), encoding="utf-8")
            began = time.perf_counter()
            code = _pytest(copy, mutant.tests)
            # pytest exits 1 when a test failed, 0 when all passed, and otherwise
            # when it could not run them (a collection error, no such test).
            verdict = {1: "killed", 0: "survived"}.get(code, "error")
            counts[verdict] += 1
            print(f"{verdict:8} {mutant.name:24} {time.perf_counter() - began:6.1f} s  "
                  f"{mutant.breaks}", flush=True)
            shutil.rmtree(copy)
    print(f"{len(mutants)} mutants: {counts['killed']} killed, {counts['survived']} survived, "
          f"{counts['error']} errors in {time.perf_counter() - started:.1f} s")
    return 0 if counts["killed"] == len(mutants) else 1


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
