"""Cached greedy decoding against a full-recompute oracle.

`generate` feeds `_decode` one new token per step and reuses the self- and
cross-attention keys/values its `DecodeState` keeps. `ref_generate` below is
the plain loop it replaced: it re-runs `_decode` over the whole prefix on a
fresh state at every step. Both must pick the same tokens, and every step's
logits must agree to 1e-12. A prefix fed to one state in two chunks must give
the logits of feeding it in one call, to the same tolerance.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np
import pytest

from chartsum.tinylsg.masks import LsgConfig
from chartsum.tinylsg.model import DecodeState, ModelConfig, _decode, _encode, init_model
from chartsum.tinylsg.train import generate, summarize_ids
from chartsum.tinylsg.vocab import BOS_ID, EOS_ID, build_vocab

train_mod = sys.modules["chartsum.tinylsg.train"]

LSG = LsgConfig(block_size=4, sparsity_stride=2, num_global=1, max_input_tokens=24)
WORDS = " ".join(f"w{i}" for i in range(40))
LOGIT_TOL = 1e-12


def ref_generate(model, src, max_len, lsg):
    """Full-recompute greedy decode: (emitted tokens, last-row logits of each step)."""
    params, cfg = model.params, model.config
    enc_out, _ = _encode(params, src, cfg, lsg)
    prefix = [BOS_ID]
    emitted, step_logits = [], []
    while len(emitted) < max_len:
        logits, _ = _decode(params, DecodeState(params, enc_out, cfg), prefix, cfg)
        step_logits.append(logits[-1])
        nxt = int(np.argmax(logits[-1]))
        if nxt == EOS_ID:
            break
        emitted.append(nxt)
        prefix.append(nxt)
    return emitted, step_logits


def make_model(seed, scale, n_heads=2, n_layers_dec=2, eos_bias=0.0):
    cfg = ModelConfig(d_model=8, n_heads=n_heads, n_layers_enc=2,
                      n_layers_dec=n_layers_dec, d_ff=16)
    model = init_model(cfg, build_vocab([WORDS]), seed=seed, init_scale=scale)
    model.params["out.b"][EOS_ID] = eos_bias
    return model


def cached_generate(monkeypatch, model, src, max_len, lsg=LSG):
    """`generate`'s tokens, per-step logits, and per-step cached (key, value) rows per layer."""
    step_logits, cached_rows = [], []
    decode = train_mod._decode

    def recording(params, state, tokens, cfg):
        logits, cache = decode(params, state, tokens, cfg)
        step_logits.append(logits[-1].copy())
        cached_rows.append([(k.shape[1], v.shape[1]) for k, v in state.self_kv])
        return logits, cache

    monkeypatch.setattr(train_mod, "_decode", recording)
    return generate(model, src, max_len, lsg), step_logits, cached_rows


def assert_matches_oracle(monkeypatch, model, src, max_len, lsg=LSG):
    got, got_logits, _ = cached_generate(monkeypatch, model, src, max_len, lsg)
    expect, expect_logits = ref_generate(model, src, max_len, lsg)
    assert got == expect
    assert len(got_logits) == len(expect_logits)
    for step, (a, b) in enumerate(zip(got_logits, expect_logits)):
        assert np.max(np.abs(a - b)) <= LOGIT_TOL, step
    return got


@pytest.mark.parametrize(
    "scale,n_heads,n_layers_dec",
    list(itertools.product([0.02, 0.5], [1, 2, 4], [1, 2, 3])),
)
def test_generate_matches_full_recompute(monkeypatch, scale, n_heads, n_layers_dec):
    rng = np.random.default_rng([int(scale * 100), n_heads, n_layers_dec])
    # A negative EOS bias keeps random models decoding past a handful of steps.
    model = make_model(int(rng.integers(1 << 30)), scale, n_heads, n_layers_dec,
                       eos_bias=float(rng.uniform(-3.0, 0.0)))
    vocab = model.vocab.size
    over_cap = rng.integers(5, vocab, size=LSG.max_input_tokens + 9).tolist()
    sources = [
        [],
        [int(rng.integers(5, vocab))],
        rng.integers(0, vocab, size=int(rng.integers(2, LSG.max_input_tokens))).tolist(),
        over_cap[: LSG.max_input_tokens],  # truncated as summarize_ids does
    ]
    for src in sources:
        for max_len in (1, int(rng.integers(2, 20))):
            assert_matches_oracle(monkeypatch, model, src, max_len)


@pytest.mark.parametrize("scale", [0.02, 0.5])
def test_generate_stops_at_eos_on_first_step(monkeypatch, scale):
    model = make_model(seed=3, scale=scale, eos_bias=50.0)
    for src in ([], [7], list(range(5, 29))):
        got, got_logits, _ = cached_generate(monkeypatch, model, src, 10)
        assert got == [] and len(got_logits) == 1
        assert_matches_oracle(monkeypatch, model, src, 10)


def eos_bias_stopping_mid_decode(model, src, max_len):
    """An EOS logit offset under which greedy decoding of src first picks EOS after >= 1 token.

    Only the EOS logit moves with the offset, so the steps before EOS keep the
    logits of a decode that never stops. EOS is picked first at the step whose
    margin (best other logit minus EOS logit) is a new running minimum, when
    the offset lies between that margin and the smaller margins before it.
    """
    model.params["out.b"][EOS_ID] = -1e3
    _, step_logits = ref_generate(model, src, max_len, LSG)
    margins = [np.delete(row, EOS_ID).max() - row[EOS_ID] for row in step_logits]
    records = [k for k in range(1, len(margins)) if margins[k] < min(margins[:k])]
    if not records:
        return None
    k = records[-1]
    return -1e3 + (margins[k] + min(margins[:k])) / 2, k


@pytest.mark.parametrize("scale,seed", list(itertools.product([0.02, 0.5], range(4))))
def test_generate_stops_at_eos_mid_decode(monkeypatch, scale, seed):
    model = make_model(seed=seed, scale=scale, n_heads=2, n_layers_dec=2)
    checked = 0
    for n in (0, 1, 4, 9, LSG.max_input_tokens):
        src = list(range(5, 5 + n))
        found = eos_bias_stopping_mid_decode(model, src, 20)
        if found is None:
            continue
        model.params["out.b"][EOS_ID], k = found
        got = assert_matches_oracle(monkeypatch, model, src, 20)
        assert len(got) == k
        checked += 1
    assert checked >= 1


@pytest.mark.parametrize("scale", [0.02, 0.5])
def test_generate_hits_cap_without_eos(monkeypatch, scale):
    model = make_model(seed=4, scale=scale, eos_bias=-50.0)
    for max_len in (1, 2, 17):
        got = assert_matches_oracle(monkeypatch, model, [9, 10, 11], max_len)
        assert len(got) == max_len


def test_summarize_ids_truncates_to_oracle_input():
    model = make_model(seed=5, scale=0.5, eos_bias=-2.0)
    text = " ".join(f"w{i % 40}" for i in range(3 * LSG.max_input_tokens))
    src = model.vocab.encode(text)[: LSG.max_input_tokens]
    assert summarize_ids(model, text, 12, LSG) == ref_generate(model, src, 12, LSG)[0]


@pytest.mark.parametrize("eos_bias,max_len,steps", [(-50.0, 5, 5), (50.0, 1000, 1)])
def test_decode_cache_grows_per_step_not_per_cap(monkeypatch, eos_bias, max_len, steps):
    model = make_model(seed=6, scale=0.5, eos_bias=eos_bias)
    _, _, cached_rows = cached_generate(monkeypatch, model, [5, 6], max_len)
    assert cached_rows == [[(n, n)] * model.config.n_layers_dec for n in range(1, steps + 1)]


@pytest.mark.parametrize("scale,n_heads,n_layers_dec", [(0.02, 1, 1), (0.5, 2, 2), (0.5, 4, 3)])
def test_prefix_fed_in_two_chunks_matches_one_shot(scale, n_heads, n_layers_dec):
    model = make_model(seed=7, scale=scale, n_heads=n_heads, n_layers_dec=n_layers_dec)
    params, cfg = model.params, model.config
    rng = np.random.default_rng(n_layers_dec)
    prefix = [BOS_ID] + rng.integers(5, model.vocab.size, size=11).tolist()
    for src in ([], [5, 6, 7], list(range(5, 5 + LSG.max_input_tokens))):
        enc_out, _ = _encode(params, src, cfg, LSG)
        whole, _ = _decode(params, DecodeState(params, enc_out, cfg), prefix, cfg)
        for j in range(1, len(prefix)):
            state = DecodeState(params, enc_out, cfg)
            head, _ = _decode(params, state, prefix[:j], cfg)
            tail, _ = _decode(params, state, prefix[j:], cfg)
            assert state.length == len(prefix)
            assert [k.shape[1] for k, _ in state.self_kv] == [len(prefix)] * n_layers_dec
            assert np.max(np.abs(np.vstack([head, tail]) - whole)) <= LOGIT_TOL, j
