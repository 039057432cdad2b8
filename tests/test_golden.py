"""Golden bytes: `chartsum run` output files for each approach on a fixed corpus and seed.

The backends are pure Python (extractive; identity as the multi-layer second
stage), so the bytes do not depend on the BLAS build. A pure refactor leaves
every digest unchanged. A change that moves them on purpose, for example by
adding a config field (which changes `config_hash`), must say why and pin
the new digests here.
"""

from __future__ import annotations

import hashlib

import pytest

from chartsum.cli import main
from chartsum.corpus import save_corpus
from synthdata import synth_corpus

# approach: (extra flags, sha256 of predictions.json, sha256 of report.json)
GOLDEN = {
    "single": (
        [],
        "fa737e48e558662ff2cd5b4afb3eb44d78d912343e3ac477f2d0ee722e117bae",
        "a804e9f9177720835143379d7c6e9db3583a02bfea831a2192373d9dfb8b483d",
    ),
    "section-wise": (
        [],
        "8e1357680b8ed7a661b2baa2608a8c4388052fbf1b3cc865140a707f982d4fdb",
        "9e148b643af8921ec443fb2590d26de4b870ebbcca1521eea306c61288f8fa00",
    ),
    "multi-layer": (
        ["--stage2-backend", "identity"],
        "5ebff09f78cd60a13293c026242a97d3daa6084d7a56f760aab2405a10847595",
        "b75c7963a9c3d696e1fef677d8c327cb21cb188ec32c91ff9ccbb5391bfc4050",
    ),
}


@pytest.mark.parametrize("approach", sorted(GOLDEN))
def test_run_output_bytes_are_pinned(tmp_path, capsys, approach):
    flags, predictions_sha, report_sha = GOLDEN[approach]
    train, evaluation, out_dir = tmp_path / "train.csv", tmp_path / "eval.csv", tmp_path / "out"
    save_corpus(synth_corpus(8), train)
    save_corpus(synth_corpus(4, start=8), evaluation)
    assert main([
        "run", "--approach", approach, "--backend", "extractive", *flags,
        "--train", str(train), "--eval", str(evaluation), "--seed", "7",
        "--out-dir", str(out_dir),
    ]) == 0
    capsys.readouterr()
    digest = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in ("predictions.json", "report.json")
    }
    assert digest == {"predictions.json": predictions_sha, "report.json": report_sha}
