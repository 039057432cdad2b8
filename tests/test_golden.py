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
        "b93d8c1b4d57a072cd7dc6e41c6c06faa9fd18268fcf24c3f6ef25862c0b9e54",
        "31cc3008634682f147a67d00be154824d39275cd35566dd06fdd399de2aea9a9",
    ),
    "section-wise": (
        [],
        "ef066e85554fc8cb9eb39dad3dcdffb1cdad5b0f1f283ffff57b9557288b3336",
        "128d43bd9230b2d7d8b83dea59cf5aa3fc242e5bf2dc936e37a85830dad16a52",
    ),
    "multi-layer": (
        ["--stage2-backend", "identity"],
        "efcb065319b1af031570a56a5dc1ebcbf21c2b66d8dd2ff8c96816314ea71fec",
        "9cfa91096918b3635505d8af54d2a477cefae8f14b088a9564b6e46cd4ba5007",
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
