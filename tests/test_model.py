"""Vocabulary, attention-op, GELU, forward-pass, and checkpoint tests.

The full-attention comparison uses a reference encoder/decoder written here
with plain per-position loops, sharing nothing with the library's vectorized
implementation except the parameter dictionary. `attention` and `ref_gelu`
are likewise references for the model's multi-head attention and GELU,
`ref_ln_forward`/`ref_ln_backward` the `np.mean` form of its layer norm, and
`forward` runs the library's own encoder and decoder over a whole target prefix.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np
import pytest

from chartsum.errors import ChartsumError
from chartsum.tinylsg.checkpoint import (
    FORMAT_VERSION,
    MalformedCheckpoint,
    load_checkpoint,
    save_model,
)
from chartsum.tinylsg.masks import LsgConfig, lsg_layout, lsg_mask, mask_to_bias
from chartsum.tinylsg.model import (
    ModelConfig,
    SequenceTooLong,
    TinyModel,
    _attend,
    _decode,
    _encode,
    _gelu,
    _gelu_grad,
    _ln_backward,
    _ln_forward,
    _lsg_attention_backward,
    _lsg_attention_forward,
    _mha_backward,
    _mha_forward,
    _split_heads,
    encoder_input_ids,
    init_model,
    positional_encoding,
    zero_grads,
)
from chartsum.tinylsg.train import grad_check
from chartsum.tinylsg.vocab import (
    BOS_ID,
    EOS_ID,
    GLOBAL_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    EmptyCorpus,
    Vocab,
    build_vocab,
)
from test_masks import CRITERION_3_GRID


class DimensionMismatch(ChartsumError):
    """Raised by the reference `attention` and `forward` below on malformed inputs."""


FULL_LSG = LsgConfig(block_size=64, sparsity_stride=0, num_global=0, max_input_tokens=64)


def small_vocab():
    return build_vocab(["pain knee left right started days ago rest ice worse night"])


def small_model(seed=0, scale=0.3, **cfg_kwargs):
    cfg = ModelConfig(
        **{"d_model": 8, "n_heads": 2, "n_layers_enc": 2, "n_layers_dec": 2, "d_ff": 16, **cfg_kwargs}
    )
    return init_model(cfg, small_vocab(), seed=seed, init_scale=scale)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------

def test_reserved_token_ids_fixed():
    assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID, GLOBAL_ID) == (0, 1, 2, 3, 4)
    v = build_vocab(["one two"])
    assert v.id_to_token[:5] == RESERVED_TOKENS


def test_vocab_orders_by_frequency_then_alphabet():
    v = build_vocab(["b b b", "c c", "a a", "d"])
    assert v.id_to_token[5:] == ("b", "a", "c", "d")


def test_vocab_encode_decode():
    v = build_vocab(["pain in knee"])
    ids = v.encode("Knee PAIN, again!")
    assert ids == [v.token_id("knee"), v.token_id("pain"), UNK_ID]
    assert v.decode(ids) == "knee pain"
    assert v.decode([BOS_ID, ids[0], EOS_ID]) == "knee"


def test_vocab_empty_corpus():
    with pytest.raises(EmptyCorpus):
        build_vocab([])
    with pytest.raises(EmptyCorpus):
        build_vocab(["...", "!!"])


def test_vocab_requires_reserved_prefix():
    with pytest.raises(ValueError):
        Vocab(id_to_token=("a", "b"))


def test_vocab_rejects_repeated_token():
    # Accepted, "b" would always encode to its later id, never to 6.
    with pytest.raises(ValueError, match=r"repeats the tokens \['b'\]"):
        Vocab(id_to_token=RESERVED_TOKENS + ("a", "b", "b"))


# ---------------------------------------------------------------------------
# Config and init
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"d_model": 6, "n_heads": 4},  # not divisible
        {"d_model": 9, "n_heads": 3},  # odd width
        {"n_layers_enc": 0},
        {"d_ff": 0},
    ],
)
def test_model_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ModelConfig(**kwargs)


def test_init_model_deterministic_and_seed_sensitive():
    a = small_model(seed=1)
    b = small_model(seed=1)
    c = small_model(seed=2)
    assert set(a.params) == set(b.params) == set(c.params)
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_init_model_gains_ones_biases_zero():
    m = small_model()
    for name, value in m.params.items():
        if name.endswith(".g"):
            assert np.array_equal(value, np.ones_like(value))
        elif name.endswith((".b", ".b1", ".b2")):
            assert np.array_equal(value, np.zeros_like(value))


def test_init_scale_controls_weight_magnitude():
    small = small_model(seed=0, scale=0.01)
    big = small_model(seed=0, scale=1.0)
    assert np.std(big.params["out.w"]) > 10 * np.std(small.params["out.w"])


def test_num_params_counts_everything():
    m = small_model()
    assert m.num_params == sum(p.size for p in m.params.values())
    v = m.vocab.size
    # embeddings + output head alone
    assert m.num_params > v * 8 + 8 * v + v


# ---------------------------------------------------------------------------
# Positional encoding
# ---------------------------------------------------------------------------

def test_positional_encoding_matches_sinusoid_formula():
    n, d = 7, 6
    pe = positional_encoding(n, d)
    assert pe.shape == (n, d)
    for pos in range(n):
        for i in range(d // 2):
            angle = pos / (10000 ** (2 * i / d))
            assert pe[pos, 2 * i] == pytest.approx(math.sin(angle), abs=1e-12)
            assert pe[pos, 2 * i + 1] == pytest.approx(math.cos(angle), abs=1e-12)


# ---------------------------------------------------------------------------
# Attention op
# ---------------------------------------------------------------------------

def attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reference single-head scaled dot-product attention restricted to mask-allowed keys.

    Every query row must allow at least one key.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise DimensionMismatch("q, k, v must be 2-D matrices")
    if q.shape[1] != k.shape[1]:
        raise DimensionMismatch(f"q width {q.shape[1]} != k width {k.shape[1]}")
    if k.shape[0] != v.shape[0]:
        raise DimensionMismatch(f"k rows {k.shape[0]} != v rows {v.shape[0]}")
    if mask.shape != (q.shape[0], k.shape[0]):
        raise DimensionMismatch(
            f"mask shape {mask.shape} != (q rows, k rows) {(q.shape[0], k.shape[0])}"
        )
    if not mask.any(axis=1).all():
        raise DimensionMismatch("every query row must allow at least one key")
    scores = q @ k.T / math.sqrt(q.shape[1]) + mask_to_bias(mask)
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    return probs / probs.sum(axis=1, keepdims=True) @ v


def test_attention_all_allowed_equals_plain_softmax():
    rng = np.random.default_rng(0)
    q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(5, 4)), rng.normal(size=(5, 2))
    mask = np.ones((3, 5), dtype=bool)
    got = attention(q, k, v, mask)
    scores = q @ k.T / math.sqrt(4)
    expect = np.vstack(
        [np.exp(s - s.max()) / np.exp(s - s.max()).sum() @ v for s in scores]
    )
    assert np.allclose(got, expect, atol=1e-14)


def test_attention_single_allowed_key_copies_value_row():
    rng = np.random.default_rng(1)
    q, k, v = rng.normal(size=(2, 4)), rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    mask = np.zeros((2, 6), dtype=bool)
    mask[0, 4] = True
    mask[1, 0] = True
    got = attention(q, k, v, mask)
    assert np.array_equal(got[0], v[4])
    assert np.array_equal(got[1], v[0])


def test_attention_identity_values_exposes_probabilities():
    rng = np.random.default_rng(2)
    q, k = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    mask = np.tril(np.ones((4, 4), dtype=bool))
    probs = attention(q, k, np.eye(4), mask)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-14)
    assert (probs >= 0).all()
    # disallowed keys contribute exactly zero probability
    assert probs[0, 1] == 0.0 and probs[0, 2] == 0.0 and probs[0, 3] == 0.0
    assert probs[0, 0] == 1.0


@pytest.mark.parametrize(
    "q_shape,k_shape,v_shape,mask_shape",
    [
        ((3,), (3, 2), (3, 2), (1, 3)),  # q not 2-D
        ((2, 3), (2, 4), (2, 2), (2, 2)),  # q/k width mismatch
        ((2, 3), (4, 3), (5, 2), (2, 4)),  # k/v row mismatch
        ((2, 3), (4, 3), (4, 2), (3, 4)),  # mask shape mismatch
    ],
)
def test_attention_dimension_errors(q_shape, k_shape, v_shape, mask_shape):
    with pytest.raises(DimensionMismatch):
        attention(
            np.zeros(q_shape), np.zeros(k_shape), np.zeros(v_shape),
            np.ones(mask_shape, dtype=bool),
        )


def test_attention_rejects_fully_masked_row():
    mask = np.array([[True, True], [False, False]])
    with pytest.raises(DimensionMismatch):
        attention(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), mask)


@pytest.mark.parametrize("n_heads", [1, 2, 4])
@pytest.mark.parametrize("masked", [False, True])
def test_multi_head_attend_is_per_head_reference_attention(n_heads, masked):
    rng = np.random.default_rng(n_heads)
    d, n_q, n_kv = 8, 5, 7
    params = {f"a.{w}": rng.normal(size=(d, d)) for w in ("wq", "wk", "wv", "wo")}
    x_q, x_kv = rng.normal(size=(n_q, d)), rng.normal(size=(n_kv, d))
    k, v = x_kv @ params["a.wk"], x_kv @ params["a.wv"]
    mask = lsg_mask(n_kv, LsgConfig(block_size=2, num_global=1))[:n_q] if masked else None
    got, _ = _attend(params, "a", x_q, _split_heads(k, n_heads), _split_heads(v, n_heads),
                     None if mask is None else mask_to_bias(mask), n_heads)
    q, dh = x_q @ params["a.wq"], d // n_heads
    full = np.ones((n_q, n_kv), dtype=bool) if mask is None else mask
    cols = [slice(h * dh, (h + 1) * dh) for h in range(n_heads)]
    heads = [attention(q[:, c], k[:, c], v[:, c], full) for c in cols]
    assert np.max(np.abs(got - np.hstack(heads) @ params["a.wo"])) <= 1e-12


def test_attend_without_bias_equals_zero_bias():
    rng = np.random.default_rng(3)
    params = {f"a.{w}": rng.normal(size=(4, 4)) for w in ("wq", "wk", "wv", "wo")}
    x_q, kh, vh = rng.normal(size=(3, 4)), rng.normal(size=(2, 6, 2)), rng.normal(size=(2, 6, 2))
    plain, _ = _attend(params, "a", x_q, kh, vh, None, 2)
    zero, _ = _attend(params, "a", x_q, kh, vh, np.zeros((3, 6)), 2)
    assert np.array_equal(plain, zero)


# ---------------------------------------------------------------------------
# Encoder inputs
# ---------------------------------------------------------------------------

def test_encoder_input_ids_prefixes_globals():
    lsg = LsgConfig(block_size=4, num_global=2, max_input_tokens=8)
    assert encoder_input_ids([7, 8], lsg) == [GLOBAL_ID, GLOBAL_ID, 7, 8]


def test_encoder_input_ids_empty_becomes_unk():
    lsg = LsgConfig(block_size=4, num_global=0, max_input_tokens=8)
    assert encoder_input_ids([], lsg) == [UNK_ID]


def test_encoder_input_ids_too_long():
    lsg = LsgConfig(block_size=4, num_global=1, max_input_tokens=4)
    with pytest.raises(SequenceTooLong) as err:
        encoder_input_ids([5, 6, 7, 8, 9], lsg)
    assert err.value.length == 5 and err.value.limit == 4


# ---------------------------------------------------------------------------
# Reference encoder/decoder with plain loops (full attention only)
# ---------------------------------------------------------------------------

def ref_pe(n, d):
    pe = np.zeros((n, d))
    for pos in range(n):
        for i in range(d // 2):
            angle = pos / (10000 ** (2 * i / d))
            pe[pos, 2 * i] = math.sin(angle)
            pe[pos, 2 * i + 1] = math.cos(angle)
    return pe


def ref_ln(x, g, b, eps=1e-5):
    out = np.empty_like(x)
    for i in range(x.shape[0]):
        mu = x[i].mean()
        var = ((x[i] - mu) ** 2).mean()
        out[i] = g * (x[i] - mu) / math.sqrt(var + eps) + b
    return out


def ref_softmax_vec(s):
    e = np.exp(s - s.max())
    return e / e.sum()


def ref_mha(x_q, x_kv, p, prefix, n_heads, causal=False):
    d = x_q.shape[1]
    dh = d // n_heads
    q, k, v = x_q @ p[f"{prefix}.wq"], x_kv @ p[f"{prefix}.wk"], x_kv @ p[f"{prefix}.wv"]
    out = np.zeros_like(x_q)
    for h in range(n_heads):
        sl = slice(h * dh, (h + 1) * dh)
        for i in range(x_q.shape[0]):
            limit = i + 1 if causal else x_kv.shape[0]
            scores = np.array([q[i, sl] @ k[j, sl] / math.sqrt(dh) for j in range(limit)])
            probs = ref_softmax_vec(scores)
            for j in range(limit):
                out[i, sl] += probs[j] * v[j, sl]
    return out @ p[f"{prefix}.wo"]


def ref_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x**3)))


def test_gelu_matches_reference_cube():
    """`_gelu` cubes by multiplication, `ref_gelu` by `**`; they differ by rounding only.

    Where GELU is tiny (x < -3) it is x * (1 + tanh(u)) with tanh(u) near -1,
    and one ulp of tanh moves it by up to ~1e-11 relative, so an absolute
    floor of 1e-15 goes with the 1e-14 relative bound.
    """
    x = np.concatenate([np.linspace(-30.0, 30.0, 600_001),
                        np.random.default_rng(0).uniform(-30.0, 30.0, 100_000)])
    got, _ = _gelu(x)
    expect = ref_gelu(x)
    assert np.all(np.abs(got - expect) <= 1e-14 * np.abs(expect) + 1e-15)


def test_gelu_grad_matches_central_difference():
    x = np.linspace(-8.0, 8.0, 1601)
    h = 1e-5
    numeric = (ref_gelu(x + h) - ref_gelu(x - h)) / (2.0 * h)
    analytic = _gelu_grad(x, _gelu(x)[1])
    assert np.max(np.abs(analytic - numeric)) <= 1e-9


def ref_ln_forward(p, prefix, x):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    x_hat = centered * inv_std
    return p[f"{prefix}.g"] * x_hat + p[f"{prefix}.b"], (x_hat, inv_std)


def ref_ln_backward(p, prefix, cache, d_out, grads):
    x_hat, inv_std = cache
    grads[f"{prefix}.g"] += (d_out * x_hat).sum(axis=0)
    grads[f"{prefix}.b"] += d_out.sum(axis=0)
    d_hat = d_out * p[f"{prefix}.g"]
    return inv_std * (
        d_hat
        - d_hat.mean(axis=-1, keepdims=True)
        - x_hat * (d_hat * x_hat).mean(axis=-1, keepdims=True)
    )


@pytest.mark.parametrize("shape", [(1, 8), (7, 12), (5, 10), (77, 64)])
def test_layer_norm_is_bitwise_the_np_mean_reference(shape):
    rng = np.random.default_rng(shape[0])
    p = {"ln.g": rng.normal(1.0, 0.3, shape[1]), "ln.b": rng.normal(0.0, 0.3, shape[1])}
    x = rng.normal(0.5, 2.0, shape)
    d_out = rng.normal(0.0, 1.0, shape)
    got, got_cache = _ln_forward(p, "ln", x)
    want, want_cache = ref_ln_forward(p, "ln", x)
    assert np.array_equal(got, want)
    assert all(np.array_equal(a, b) for a, b in zip(got_cache, want_cache))
    got_grads, want_grads = zero_grads(p), zero_grads(p)
    d_x = _ln_backward(p, "ln", got_cache, d_out, got_grads)
    assert np.array_equal(d_x, ref_ln_backward(p, "ln", want_cache, d_out, want_grads))
    for name in p:
        assert np.array_equal(got_grads[name], want_grads[name])


def ref_ff(x, p, prefix):
    return ref_gelu(x @ p[f"{prefix}.w1"] + p[f"{prefix}.b1"]) @ p[f"{prefix}.w2"] + p[f"{prefix}.b2"]


def ref_encode(p, ids, cfg):
    x = p["tok_emb"][list(ids)] + ref_pe(len(ids), p["tok_emb"].shape[1])
    for i in range(cfg.n_layers_enc):
        pre = f"enc.{i}"
        normed = ref_ln(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        x = x + ref_mha(normed, normed, p, f"{pre}.attn", cfg.n_heads)
        normed = ref_ln(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        x = x + ref_ff(normed, p, f"{pre}.ff")
    return ref_ln(x, p["enc.norm.g"], p["enc.norm.b"])


def ref_forward(model, src, tgt_prefix):
    p, cfg = model.params, model.config
    enc = ref_encode(p, src, cfg)
    x = p["tok_emb"][list(tgt_prefix)] + ref_pe(len(tgt_prefix), p["tok_emb"].shape[1])
    for i in range(cfg.n_layers_dec):
        pre = f"dec.{i}"
        normed = ref_ln(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        x = x + ref_mha(normed, normed, p, f"{pre}.self", cfg.n_heads, causal=True)
        normed = ref_ln(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        x = x + ref_mha(normed, enc, p, f"{pre}.cross", cfg.n_heads)
        normed = ref_ln(x, p[f"{pre}.ln3.g"], p[f"{pre}.ln3.b"])
        x = x + ref_ff(normed, p, f"{pre}.ff")
    normed = ref_ln(x, p["dec.norm.g"], p["dec.norm.b"])
    return normed @ p["out.w"] + p["out.b"]


def forward(model, src, tgt_prefix, cfg):
    """Full-sequence logits of `_encode` + `_decode`; shape (len(tgt_prefix), V)."""
    if len(tgt_prefix) < 1:
        raise DimensionMismatch("tgt_prefix must contain at least one token")
    enc_out, _ = _encode(model.params, src, model.config, cfg)
    logits, _ = _decode(model.params, enc_out, tgt_prefix, model.config)
    return logits


def test_forward_matches_loop_reference_under_full_attention():
    rng = np.random.default_rng(9)
    for seed in range(5):
        model = small_model(seed=seed, scale=0.4)
        src = rng.integers(0, model.vocab.size, size=rng.integers(1, 10)).tolist()
        tgt = rng.integers(0, model.vocab.size, size=rng.integers(1, 6)).tolist()
        got = forward(model, src, [BOS_ID] + tgt, FULL_LSG)
        expect = ref_forward(model, src, [BOS_ID] + tgt)
        assert np.max(np.abs(got - expect)) <= 1e-10


def test_forward_shape_and_determinism():
    model = small_model()
    src = model.vocab.encode("knee pain started days ago")
    tgt = [BOS_ID] + model.vocab.encode("knee pain")
    lsg = LsgConfig(block_size=4, sparsity_stride=2, num_global=1, max_input_tokens=32)
    logits1 = forward(model, src, tgt, lsg)
    logits2 = forward(model, src, tgt, lsg)
    assert logits1.shape == (len(tgt), model.vocab.size)
    assert np.array_equal(logits1, logits2)


def test_forward_rejects_empty_prefix_and_long_src():
    model = small_model()
    lsg = LsgConfig(block_size=4, num_global=1, max_input_tokens=4)
    with pytest.raises(DimensionMismatch):
        forward(model, [5], [], lsg)
    with pytest.raises(SequenceTooLong):
        forward(model, [5] * 10, [BOS_ID], lsg)


def test_masked_and_full_forward_agree_on_short_inputs():
    """When the whole sequence fits one block with a global prefix both paths match."""
    model = small_model(seed=3)
    src = model.vocab.encode("knee pain")
    tgt = [BOS_ID, 5]
    wide = LsgConfig(block_size=64, sparsity_stride=0, num_global=1, max_input_tokens=64)
    narrow = LsgConfig(block_size=64, sparsity_stride=3, num_global=1, max_input_tokens=64)
    assert np.array_equal(
        forward(model, src, tgt, wide), forward(model, src, tgt, narrow)
    )


# ---------------------------------------------------------------------------
# Block-sparse encoder attention against dense masked attention
# ---------------------------------------------------------------------------

def blocked_vs_dense(n, cfg, d, n_heads, seed):
    """Max |difference| between the blocked kernel and dense attention with the lsg_mask bias.

    Compares the output, the gradient with respect to the input and every
    weight gradient. Weights have std 1/sqrt(d), so activations stay O(1).
    """
    rng = np.random.default_rng(seed)
    params = {f"a.{w}": rng.normal(scale=d**-0.5, size=(d, d)) for w in ("wq", "wk", "wv", "wo")}
    x, d_out = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    bias = mask_to_bias(lsg_mask(n, cfg))
    want, dense_cache = _mha_forward(params, "a", x, x, bias, n_heads)
    got, cache = _lsg_attention_forward(params, "a", x, lsg_layout(n, cfg), n_heads)
    want_grads, got_grads = zero_grads(params), zero_grads(params)
    want_dx = sum(_mha_backward(params, "a", dense_cache, d_out, want_grads))
    got_dx = sum(_lsg_attention_backward(params, "a", cache, d_out, got_grads))
    diffs = [got - want, got_dx - want_dx] + [got_grads[k] - want_grads[k] for k in params]
    return max(float(np.max(np.abs(diff))) for diff in diffs)


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_blocked_attention_matches_dense_on_criterion_3_grid(radius):
    worst = 0.0
    for seq_len, block, stride, n_global in CRITERION_3_GRID:
        cfg = LsgConfig(block_size=block, sparsity_stride=stride, num_global=n_global,
                        max_input_tokens=64, local_radius=radius)
        worst = max(worst, blocked_vs_dense(seq_len, cfg, d=8, n_heads=2, seed=seq_len))
    assert worst <= 1e-12


@pytest.mark.parametrize("n", [257, 401, 513])
def test_blocked_attention_matches_dense_on_long_inputs(n):
    assert blocked_vs_dense(n, LsgConfig(), d=64, n_heads=2, seed=n) <= 1e-12


def test_encoder_path_follows_the_size_rule():
    model = small_model()
    lsg = LsgConfig()
    for n_src in (203, 204, 225, 226):
        _, (_, blocked, _, _) = _encode(model.params, [5] * n_src, model.config, lsg)
        assert blocked == lsg_layout(lsg.num_global + n_src, lsg).blocked
        assert blocked == (n_src in (204, 226))


def test_grad_check_through_blocked_encoder():
    src_text = " ".join(f"word{i % 17}" for i in range(34))
    tgt_text = "word1 word2 word3 word5"
    vocab = build_vocab([src_text, tgt_text])
    cfg = ModelConfig(d_model=8, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=16)
    model = init_model(cfg, vocab, seed=0, init_scale=0.5)
    lsg = LsgConfig(block_size=2, sparsity_stride=8, num_global=1, max_input_tokens=64)
    src = vocab.encode(src_text)
    assert lsg_layout(lsg.num_global + len(src), lsg).blocked
    err = grad_check(model, (src, vocab.encode(tgt_text)), n_params_sampled=400, seed=0, lsg=lsg)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = small_model(seed=5)
    p = tmp_path / "model.json"
    save_model(model, p, FULL_LSG, 8)
    loaded = load_checkpoint(p).model
    assert loaded.config == model.config
    assert loaded.vocab == model.vocab
    assert set(loaded.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
        assert loaded.params[name].dtype == np.float64
    # logits identical through the round trip
    src = [5, 6, 7]
    out1 = forward(model, src, [BOS_ID], FULL_LSG)
    out2 = forward(loaded, src, [BOS_ID], FULL_LSG)
    assert np.array_equal(out1, out2)


def test_checkpoint_save_is_deterministic(tmp_path):
    model = small_model(seed=5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1, FULL_LSG, 8)
    save_model(model, p2, FULL_LSG, 8)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: "not json at all",
        lambda d: "[]",
        lambda d: d.replace(f'"format_version": {FORMAT_VERSION}', '"format_version": 99'),
    ],
)
def test_checkpoint_malformed_payloads(tmp_path, mutate):
    model = small_model()
    p = tmp_path / "model.json"
    save_model(model, p, FULL_LSG, 8)
    p.write_text(mutate(p.read_text()))
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(p)


def test_checkpoint_missing_key_and_bad_shape(tmp_path):
    import json as _json

    model = small_model()
    p = tmp_path / "model.json"
    save_model(model, p, FULL_LSG, 8)
    payload = _json.loads(p.read_text())

    broken = dict(payload)
    del broken["vocab"]
    p.write_text(_json.dumps(broken))
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(p)

    payload["params"]["out.b"]["shape"] = [3]  # wrong element count
    p.write_text(_json.dumps(payload))
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(p)


def _mutated_checkpoint(tmp_path, mutate):
    p = tmp_path / "model.json"
    save_model(small_model(), p, FULL_LSG, 8)
    payload = json.loads(p.read_text())
    mutate(payload)
    p.write_text(json.dumps(payload))
    return p


def _rename(params, old, new):
    params[new] = params.pop(old)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda c: c["params"].pop("out.b"), "missing parameters ['out.b'], unexpected parameters []"),
    (lambda c: c["params"].update({"extra.w": c["params"]["out.b"]}),
     "missing parameters [], unexpected parameters ['extra.w']"),
    (lambda c: _rename(c["params"], "enc.0.ff.w1", "enc.9.ff.w1"),
     "missing parameters ['enc.0.ff.w1'], unexpected parameters ['enc.9.ff.w1']"),
], ids=["missing", "unexpected", "renamed"])
def test_checkpoint_parameter_names_must_match_config(tmp_path, mutate, fragment):
    p = _mutated_checkpoint(tmp_path, mutate)
    with pytest.raises(MalformedCheckpoint) as info:
        load_checkpoint(p)
    assert str(info.value) == f"{p}: {fragment}"


def test_checkpoint_parameter_shapes_must_match_config(tmp_path):
    # A transposed out.w keeps its element count, so it reshapes without error.
    def transpose(c):
        c["params"]["out.w"]["shape"].reverse()

    p = _mutated_checkpoint(tmp_path, transpose)
    model = small_model()
    d, v = model.config.d_model, model.vocab.size
    with pytest.raises(MalformedCheckpoint) as info:
        load_checkpoint(p)
    assert str(info.value) == f"{p}: parameter 'out.w' has shape ({v}, {d}), expected ({d}, {v})"


def test_checkpoint_params_must_be_an_object(tmp_path):
    p = _mutated_checkpoint(tmp_path, lambda c: c.update(params=[1]))
    with pytest.raises(MalformedCheckpoint):
        load_checkpoint(p)


def test_checkpoint_vocab_must_hold_strings(tmp_path):
    # A non-string token loads otherwise and fails only when decode joins it.
    p = _mutated_checkpoint(tmp_path, lambda c: c["vocab"].__setitem__(5, 7))
    with pytest.raises(MalformedCheckpoint) as info:
        load_checkpoint(p)
    assert str(info.value) == f"{p}: vocab must be a list of strings"


def test_checkpoint_vocab_must_not_repeat_tokens(tmp_path):
    def repeat(c):
        c["vocab"][6] = c["vocab"][5]

    p = _mutated_checkpoint(tmp_path, repeat)
    with pytest.raises(MalformedCheckpoint) as info:
        load_checkpoint(p)
    message = str(info.value)
    assert message.startswith(f"{p}: vocabulary repeats the tokens") and "\n" not in message


def _set_first_value(c, name, value):
    record = c["params"][name]
    data = bytearray(base64.b64decode(record["data"]))
    data[:8] = np.float64(value).tobytes()
    record["data"] = base64.b64encode(bytes(data)).decode("ascii")


@pytest.mark.parametrize("name, value", [
    ("out.w", math.nan), ("tok_emb", math.inf), ("enc.0.ff.w1", -math.inf),
])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, name, value):
    p = _mutated_checkpoint(tmp_path, lambda c: _set_first_value(c, name, value))
    with pytest.raises(MalformedCheckpoint) as info:
        load_checkpoint(p)
    assert str(info.value) == f"{p}: parameter {name!r} holds a non-finite value"


def test_checkpoint_records_attention_pattern_and_decode_cap(tmp_path):
    lsg = LsgConfig(block_size=4, sparsity_stride=2, num_global=2, max_input_tokens=32,
                    local_radius=2)
    p = tmp_path / "model.json"
    save_model(small_model(), p, lsg, 9)
    checkpoint = load_checkpoint(p)
    assert json.loads(p.read_text())["format_version"] == FORMAT_VERSION == 2
    assert checkpoint.lsg == lsg and checkpoint.max_summary_tokens == 9


def _downgrade_to_version_1(c):
    del c["lsg"], c["max_summary_tokens"]
    c["format_version"] = 1


@pytest.mark.parametrize("mutate", [
    lambda c: c.pop("lsg"),
    lambda c: c.pop("max_summary_tokens"),
    lambda c: c.update(lsg=[64, 0, 0, 64, 1]),
    lambda c: c["lsg"].pop("local_radius"),
    lambda c: c["lsg"].update(window=3),
    lambda c: c["lsg"].update(block_size="64"),
    lambda c: c["lsg"].update(num_global=True),
    lambda c: c["lsg"].update(block_size=0),
    lambda c: c["lsg"].update(max_input_tokens=8),
    lambda c: c.update(max_summary_tokens=0),
    lambda c: c.update(max_summary_tokens=8.0),
    lambda c: c.update(format_version=True),
    _downgrade_to_version_1,
    lambda c: c["model_config"].update(d_model=float(c["model_config"]["d_model"])),
    lambda c: c["model_config"].update(n_heads=True),
    lambda c: c["model_config"].update(d_ff=float(c["model_config"]["d_ff"])),
], ids=["no-lsg", "no-cap", "lsg-list", "lsg-missing-field", "lsg-unknown-field",
        "lsg-string", "lsg-bool", "lsg-invalid", "lsg-input-below-block", "cap-zero",
        "cap-float", "version-bool", "version-1", "model-float", "model-bool",
        "model-float-d-ff"])
def test_checkpoint_malformed_settings(tmp_path, mutate):
    p = _mutated_checkpoint(tmp_path, mutate)
    with pytest.raises(MalformedCheckpoint) as info:
        load_checkpoint(p)
    message = str(info.value)
    assert message.startswith(f"{p}: ") and "\n" not in message
