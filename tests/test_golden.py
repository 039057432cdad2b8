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
        "aebdfa7063753db0a33e0eb4bc5513a421cf3ef38f3148cba06d173ca3ff1a28",
        "6877e6cdd45f5a8ba56265e6bb81ba675a1b64b623f5893e341e16e0728c1080",
    ),
    "section-wise": (
        [],
        "efd73c4de61ddd6e7be1430720e6430a720cdd32c7e59452f5a013fffa9d1ee8",
        "bd499172502153e979aa8dab389767b320bd0e3dbfb4231493a3e1908a1e7b09",
    ),
    "multi-layer": (
        ["--stage2-backend", "identity"],
        "84fe43936fe0de9e3dd7dbdc516519ff6823eea3600b1238ec3811402fbfa8ae",
        "219a5cbcd7195b0cb11a54c496dda8b65cd24a59e22113dbe69fa390daee9a32",
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
