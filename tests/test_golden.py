"""Golden bytes: `chartsum run` output files for each approach on a fixed corpus and seed.

The first set uses pure-Python backends (extractive; identity as the
multi-layer second stage), so the bytes do not depend on the BLAS build. The
second uses tiny-lsg; its output files hold decoded tokens and the ROUGE of
them, never a model float, so they move only if a greedy decode step flips,
which the tie guard rules out for ulp-sized changes. A pure refactor leaves
every digest unchanged. A change that moves them on purpose, for example by
adding a config field (which changes `config_hash`), must say why and pin
the new digests here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

import numpy as np
import pytest

from chartsum.cli import main
from chartsum.corpus import Corpus, Encounter, save_corpus
from chartsum.pipeline import ApproachConfig, BackendSpec, load_run_reports, report, run_approach
from chartsum.tinylsg import LsgConfig, ModelConfig, TrainConfig
from synthdata import synth_corpus, synth_note

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
    assert_report_reads_back(out_dir)


def assert_report_reads_back(out_dir):
    """report.json loads under every check a report must pass and renders back to its bytes."""
    path = out_dir / "report.json"
    assert report(load_run_reports(path), format="json") == path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# tiny-lsg at acceptance criterion 10's scale
# ---------------------------------------------------------------------------

# Criterion 10's model, mask and training flags; multi-layer runs tiny-lsg at
# both stages. A decode step whose top two logits are nearly tied could flip
# under a reordered sum, so the tie guard requires every gap to be >= TIE_GAP.
TINY_FLAGS = [
    "--backend", "tiny-lsg", "--seed", "3",
    "--d-model", "8", "--heads", "2", "--enc-layers", "1", "--dec-layers", "1",
    "--d-ff", "16", "--epochs", "2", "--lr", "1e-3", "--batch-size", "2",
    "--block", "4", "--stride", "2", "--max-input", "64", "--max-summary-tokens", "8",
]
TINY = BackendSpec(
    kind="tiny-lsg",
    model=ModelConfig(d_model=8, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=16),
    lsg=LsgConfig(block_size=4, sparsity_stride=2, max_input_tokens=64),
    train=TrainConfig(initial_lr=1e-3, epochs=2, batch_size=2),
    max_summary_tokens=8,
)
TIE_GAP = 1e-6

# approach: (extra flags, sha256 of predictions.json, sha256 of report.json)
TINY_GOLDEN = {
    "single": (
        [],
        "496601f20998931bbec8180b6c0dbd85de8d65e8f6bca0ee2cf97972e288d811",
        "5a98b65b80acb1f873c7c88b79a22e2f74c38337a6bc56e6d34cc9b3aae0a742",
    ),
    "section-wise": (
        [],
        "ee6b215c1efeebb6425e3c5c63ba65bfa075b93af0ec16c66447a8a5f27f2c49",
        "1c4767e1dcd16c179637c13b8091c8fe098c5fe540365fba2fc481ae1e827664",
    ),
    "multi-layer": (
        ["--stage2-backend", "tiny-lsg"],
        "4287e10f04795d18bd6ad29bd688fb6b28173e15626b4aaeb4c51a483b3b1857",
        "4cb1943893e78529256d51a6bca17a584f11fe168dcd04467c996a6c37f65a83",
    ),
}


def tiny_corpora():
    """Criterion 10's corpora plus two one-line dialogues, whose section-wise
    outputs differ from the others' at this scale."""
    short = tuple(
        Encounter(id=f"short-{i}", dialogue=dialogue, note=synth_note(9 + i))
        for i, dialogue in enumerate(["knee", "doctor: hello"])
    )
    evaluation = synth_corpus(3, start=6)
    return synth_corpus(6), Corpus(encounters=evaluation.encounters + short)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """approach -> (sha256 per output file, entries, smallest top-1/top-2 logit gap, out dir)."""
    tmp = tmp_path_factory.mktemp("tiny")
    train, evaluation = tmp / "train.csv", tmp / "eval.csv"
    for corpus, path in zip(tiny_corpora(), (train, evaluation)):
        save_corpus(corpus, path)
    train_module = sys.modules["chartsum.tinylsg.train"]
    decode = train_module._decode
    gaps = []

    def gap_recording_decode(params, state, tokens, cfg):
        logits, cache = decode(params, state, tokens, cfg)
        second, first = np.sort(logits[-1])[-2:]
        gaps.append(first - second)
        return logits, cache

    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train_module, "_decode", gap_recording_decode)
        for approach, (flags, _, _) in TINY_GOLDEN.items():
            gaps.clear()
            out_dir = tmp / approach
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([
                    "run", "--approach", approach, *TINY_FLAGS, *flags,
                    "--train", str(train), "--eval", str(evaluation), "--out-dir", str(out_dir),
                ]) == 0
            digest = {
                name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                for name in ("predictions.json", "report.json")
            }
            entries = json.loads((out_dir / "predictions.json").read_text())["entries"]
            runs[approach] = digest, entries, min(gaps), out_dir
    return runs


@pytest.mark.parametrize("approach", sorted(TINY_GOLDEN))
def test_tiny_lsg_output_bytes_are_pinned(tiny_runs, approach):
    _, predictions_sha, report_sha = TINY_GOLDEN[approach]
    digest, _, _, out_dir = tiny_runs[approach]
    assert digest == {"predictions.json": predictions_sha, "report.json": report_sha}
    assert_report_reads_back(out_dir)


@pytest.mark.parametrize("approach", sorted(TINY_GOLDEN))
def test_tiny_lsg_decodes_are_clear_of_ties(tiny_runs, approach):
    _, _, smallest_gap, _ = tiny_runs[approach]
    assert smallest_gap >= TIE_GAP


@pytest.mark.parametrize("approach", sorted(TINY_GOLDEN))
def test_tiny_lsg_prediction_does_not_depend_on_the_other_eval_documents(tiny_runs, approach):
    _, entries, _, _ = tiny_runs[approach]
    train, evaluation = tiny_corpora()
    cfg = ApproachConfig(approach, TINY, stage2=TINY if approach == "multi-layer" else None, seed=3)
    encounters = evaluation.encounters
    half = len(encounters) // 2
    for part in (encounters[::-1], encounters[:half], encounters[half:]):
        got = run_approach(train, Corpus(encounters=part), cfg).entries
        assert got == {e.id: entries[e.id] for e in part}
