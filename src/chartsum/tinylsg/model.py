"""Encoder-decoder transformer in float64 numpy with hand-derived backward passes.

The encoder self-attention is masked by the local/sparse/global pattern; the
decoder is causally masked; cross-attention is unmasked. Everything runs in
double precision so analytic gradients can be checked against central finite
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import ChartsumError
from .masks import LsgConfig, causal_mask, lsg_mask, mask_to_bias
from .vocab import BOS_ID, EOS_ID, GLOBAL_ID, UNK_ID, Vocab

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


class DimensionMismatch(ChartsumError):
    pass


class SequenceTooLong(ChartsumError):
    def __init__(self, length: int, limit: int):
        super().__init__(f"source sequence has {length} tokens, limit is {limit}")
        self.length = length
        self.limit = limit


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    n_heads: int = 2
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    d_ff: int = 128

    def __post_init__(self):
        for field_name in ("d_model", "n_heads", "n_layers_enc", "n_layers_dec", "d_ff"):
            if getattr(self, field_name) < 1:
                raise ValueError(f"{field_name} must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model ({self.d_model}) must be divisible by n_heads ({self.n_heads})"
            )
        if self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even for sinusoidal positions, got {self.d_model}")


@dataclass(frozen=True)
class TinyModel:
    config: ModelConfig
    vocab: Vocab
    params: dict[str, np.ndarray]

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.params.values())


def _param_shapes(cfg: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    d, f, v = cfg.d_model, cfg.d_ff, vocab_size
    shapes: dict[str, tuple[int, ...]] = {"tok_emb": (v, d)}

    def block(prefix: str, attn_names: Sequence[str]) -> None:
        for attn in attn_names:
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"{prefix}.{attn}.{w}"] = (d, d)
        n_ln = 1 + len(attn_names)
        for i in range(1, n_ln + 1):
            shapes[f"{prefix}.ln{i}.g"] = (d,)
            shapes[f"{prefix}.ln{i}.b"] = (d,)
        shapes[f"{prefix}.ff.w1"] = (d, f)
        shapes[f"{prefix}.ff.b1"] = (f,)
        shapes[f"{prefix}.ff.w2"] = (f, d)
        shapes[f"{prefix}.ff.b2"] = (d,)

    for i in range(cfg.n_layers_enc):
        block(f"enc.{i}", ["attn"])
    shapes["enc.norm.g"] = (d,)
    shapes["enc.norm.b"] = (d,)
    for i in range(cfg.n_layers_dec):
        block(f"dec.{i}", ["self", "cross"])
    shapes["dec.norm.g"] = (d,)
    shapes["dec.norm.b"] = (d,)
    shapes["out.w"] = (d, v)
    shapes["out.b"] = (v,)
    return shapes


def init_model(cfg: ModelConfig, vocab: Vocab, seed: int, init_scale: float = 0.02) -> TinyModel:
    """Weights ~ N(0, init_scale); layer-norm gains 1, all offsets 0.

    Larger init_scale values keep early gradients far from the float64 noise
    floor, which matters when finite-difference checking.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(cfg, vocab.size).items():
        if name.endswith(".g"):
            params[name] = np.ones(shape)
        elif name.endswith((".b", ".b1", ".b2")):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, init_scale, size=shape)
    return TinyModel(config=cfg, vocab=vocab, params=params)


def positional_encoding(n: int, d: int, start: int = 0) -> np.ndarray:
    """Sinusoidal encodings of positions start .. start+n-1; shape (n, d)."""
    positions = np.arange(start, start + n, dtype=np.float64)[:, None]
    freqs = np.exp(-math.log(10000.0) * np.arange(0, d, 2, dtype=np.float64) / d)
    angles = positions * freqs[None, :]
    pe = np.empty((n, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def _attend(params, prefix: str, x_q, kh, vh, bias, n_heads: int):
    """Attention of x_q's queries over keys/values already split into heads.

    `bias` is an additive (n_q, n_kv) mask, or None for unmasked attention.
    """
    qh = _split_heads(x_q @ params[f"{prefix}.wq"], n_heads)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = qh @ kh.transpose(0, 2, 1) * scale
    if bias is not None:
        scores += bias[None, :, :]
    probs = _softmax_rows(scores)
    merged = _merge_heads(probs @ vh)
    return merged @ params[f"{prefix}.wo"], (qh, probs, merged, scale)


def _mha_forward(params, prefix: str, x_q, x_kv, bias, n_heads: int):
    kh = _split_heads(x_kv @ params[f"{prefix}.wk"], n_heads)
    vh = _split_heads(x_kv @ params[f"{prefix}.wv"], n_heads)
    out, (qh, probs, merged, scale) = _attend(params, prefix, x_q, kh, vh, bias, n_heads)
    return out, (x_q, x_kv, qh, kh, vh, probs, merged, scale)


def _mha_backward(params, prefix: str, cache, d_out, grads):
    x_q, x_kv, qh, kh, vh, probs, merged, scale = cache
    grads[f"{prefix}.wo"] += merged.T @ d_out
    d_oh = _split_heads(d_out @ params[f"{prefix}.wo"].T, qh.shape[0])
    d_probs = d_oh @ vh.transpose(0, 2, 1)
    d_vh = probs.transpose(0, 2, 1) @ d_oh
    d_scores = probs * (d_probs - (d_probs * probs).sum(axis=-1, keepdims=True))
    d_qh = d_scores @ kh * scale
    d_kh = d_scores.transpose(0, 2, 1) @ qh * scale
    d_q, d_k, d_v = (_merge_heads(a) for a in (d_qh, d_kh, d_vh))
    grads[f"{prefix}.wq"] += x_q.T @ d_q
    grads[f"{prefix}.wk"] += x_kv.T @ d_k
    grads[f"{prefix}.wv"] += x_kv.T @ d_v
    d_x_q = d_q @ params[f"{prefix}.wq"].T
    d_x_kv = d_k @ params[f"{prefix}.wk"].T + d_v @ params[f"{prefix}.wv"].T
    return d_x_q, d_x_kv


def _ln_forward(params, prefix: str, x):
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    x_hat = centered * inv_std
    return params[f"{prefix}.g"] * x_hat + params[f"{prefix}.b"], (x_hat, inv_std)


def _ln_backward(params, prefix: str, cache, d_out, grads):
    x_hat, inv_std = cache
    grads[f"{prefix}.g"] += (d_out * x_hat).sum(axis=0)
    grads[f"{prefix}.b"] += d_out.sum(axis=0)
    d_hat = d_out * params[f"{prefix}.g"]
    return inv_std * (
        d_hat
        - d_hat.mean(axis=-1, keepdims=True)
        - x_hat * (d_hat * x_hat).mean(axis=-1, keepdims=True)
    )


def _gelu(x):
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    return 0.5 * x * (1.0 + t), t


def _gelu_grad(x, t):
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * _GELU_C * (1.0 + 3.0 * _GELU_A * (x * x))


def _ff_forward(params, prefix: str, x):
    pre = x @ params[f"{prefix}.w1"] + params[f"{prefix}.b1"]
    hidden, t = _gelu(pre)
    out = hidden @ params[f"{prefix}.w2"] + params[f"{prefix}.b2"]
    return out, (x, pre, t, hidden)


def _ff_backward(params, prefix: str, cache, d_out, grads):
    x, pre, t, hidden = cache
    grads[f"{prefix}.w2"] += hidden.T @ d_out
    grads[f"{prefix}.b2"] += d_out.sum(axis=0)
    d_pre = (d_out @ params[f"{prefix}.w2"].T) * _gelu_grad(pre, t)
    grads[f"{prefix}.w1"] += x.T @ d_pre
    grads[f"{prefix}.b1"] += d_pre.sum(axis=0)
    return d_pre @ params[f"{prefix}.w1"].T


def encoder_input_ids(src: Sequence[int], lsg: LsgConfig) -> list[int]:
    """Global-token prefix plus source ids; empty input degrades to a lone UNK."""
    if len(src) > lsg.max_input_tokens:
        raise SequenceTooLong(len(src), lsg.max_input_tokens)
    ids = [GLOBAL_ID] * lsg.num_global + list(src)
    return ids if ids else [UNK_ID]


def _embed(params, ids: Sequence[int]):
    ids = np.asarray(ids, dtype=np.intp)
    return params["tok_emb"][ids] + positional_encoding(len(ids), params["tok_emb"].shape[1]), ids


def _encode(params, src: Sequence[int], cfg: ModelConfig, lsg: LsgConfig):
    ids = encoder_input_ids(src, lsg)
    x, ids = _embed(params, ids)
    bias = mask_to_bias(lsg_mask(len(ids), lsg))
    layers = []
    for i in range(cfg.n_layers_enc):
        p = f"enc.{i}"
        normed1, ln1 = _ln_forward(params, f"{p}.ln1", x)
        attn_out, attn = _mha_forward(params, f"{p}.attn", normed1, normed1, bias, cfg.n_heads)
        x = x + attn_out
        normed2, ln2 = _ln_forward(params, f"{p}.ln2", x)
        ff_out, ff = _ff_forward(params, f"{p}.ff", normed2)
        x = x + ff_out
        layers.append((ln1, attn, ln2, ff))
    out, ln_final = _ln_forward(params, "enc.norm", x)
    return out, (ids, layers, ln_final)


def _encode_backward(params, cache, d_out, grads):
    ids, layers, ln_final = cache
    d_x = _ln_backward(params, "enc.norm", ln_final, d_out, grads)
    for i in range(len(layers) - 1, -1, -1):
        p = f"enc.{i}"
        ln1, attn, ln2, ff = layers[i]
        d_normed2 = _ff_backward(params, f"{p}.ff", ff, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln2", ln2, d_normed2, grads)
        d_q, d_kv = _mha_backward(params, f"{p}.attn", attn, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln1", ln1, d_q + d_kv, grads)
    np.add.at(grads["tok_emb"], ids, d_x)


def _decode(params, enc_out, tgt_prefix: Sequence[int], cfg: ModelConfig):
    x, ids = _embed(params, tgt_prefix)
    self_bias = mask_to_bias(causal_mask(len(ids)))
    layers = []
    for i in range(cfg.n_layers_dec):
        p = f"dec.{i}"
        normed1, ln1 = _ln_forward(params, f"{p}.ln1", x)
        self_out, self_attn = _mha_forward(
            params, f"{p}.self", normed1, normed1, self_bias, cfg.n_heads
        )
        x = x + self_out
        normed2, ln2 = _ln_forward(params, f"{p}.ln2", x)
        cross_out, cross_attn = _mha_forward(
            params, f"{p}.cross", normed2, enc_out, None, cfg.n_heads
        )
        x = x + cross_out
        normed3, ln3 = _ln_forward(params, f"{p}.ln3", x)
        ff_out, ff = _ff_forward(params, f"{p}.ff", normed3)
        x = x + ff_out
        layers.append((ln1, self_attn, ln2, cross_attn, ln3, ff))
    normed, ln_final = _ln_forward(params, "dec.norm", x)
    logits = normed @ params["out.w"] + params["out.b"]
    return logits, (ids, layers, ln_final, normed)


class DecodeState:
    """Keys/values that greedy decoding of one source reuses across steps.

    The cross-attention keys/values of each decoder layer are projected from
    the encoder output once; the self-attention keys/values grow by one row
    per decoded position. All are split into heads: (n_heads, rows, d_head).
    """

    def __init__(self, params, enc_out, cfg: ModelConfig):
        h = cfg.n_heads
        empty = np.empty((h, 0, cfg.d_model // h))
        self.cross = [
            (
                _split_heads(enc_out @ params[f"dec.{i}.cross.wk"], h),
                _split_heads(enc_out @ params[f"dec.{i}.cross.wv"], h),
            )
            for i in range(cfg.n_layers_dec)
        ]
        self.self_kv = [(empty, empty)] * cfg.n_layers_dec
        self.length = 0


def _decode_step(params, state: DecodeState, token: int, cfg: ModelConfig) -> np.ndarray:
    """Logits (V,) after feeding `token` at the next position; extends `state` by that position.

    Equal, up to rounding, to the last row of `_decode` on the whole prefix.
    """
    h = cfg.n_heads
    x = params["tok_emb"][token] + positional_encoding(1, cfg.d_model, state.length)
    for i, (cross_k, cross_v) in enumerate(state.cross):
        p = f"dec.{i}"
        normed1, _ = _ln_forward(params, f"{p}.ln1", x)
        self_k, self_v = state.self_kv[i]
        self_k = np.concatenate([self_k, _split_heads(normed1 @ params[f"{p}.self.wk"], h)], axis=1)
        self_v = np.concatenate([self_v, _split_heads(normed1 @ params[f"{p}.self.wv"], h)], axis=1)
        state.self_kv[i] = (self_k, self_v)
        self_out, _ = _attend(params, f"{p}.self", normed1, self_k, self_v, None, h)
        x = x + self_out
        normed2, _ = _ln_forward(params, f"{p}.ln2", x)
        cross_out, _ = _attend(params, f"{p}.cross", normed2, cross_k, cross_v, None, h)
        x = x + cross_out
        normed3, _ = _ln_forward(params, f"{p}.ln3", x)
        ff_out, _ = _ff_forward(params, f"{p}.ff", normed3)
        x = x + ff_out
    state.length += 1
    normed, _ = _ln_forward(params, "dec.norm", x)
    return (normed @ params["out.w"] + params["out.b"])[0]


def _decode_backward(params, cache, d_logits, grads):
    """Returns the gradient w.r.t. the encoder output (summed over cross-attentions)."""
    ids, layers, ln_final, normed = cache
    grads["out.w"] += normed.T @ d_logits
    grads["out.b"] += d_logits.sum(axis=0)
    d_x = _ln_backward(params, "dec.norm", ln_final, d_logits @ params["out.w"].T, grads)
    d_enc = None
    for i in range(len(layers) - 1, -1, -1):
        p = f"dec.{i}"
        ln1, self_attn, ln2, cross_attn, ln3, ff = layers[i]
        d_normed3 = _ff_backward(params, f"{p}.ff", ff, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln3", ln3, d_normed3, grads)
        d_q, d_kv = _mha_backward(params, f"{p}.cross", cross_attn, d_x, grads)
        d_enc = d_kv if d_enc is None else d_enc + d_kv
        d_x = d_x + _ln_backward(params, f"{p}.ln2", ln2, d_q, grads)
        d_q, d_kv = _mha_backward(params, f"{p}.self", self_attn, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln1", ln1, d_q + d_kv, grads)
    np.add.at(grads["tok_emb"], ids, d_x)
    return d_enc


def zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(value) for name, value in params.items()}


def loss_and_grads(
    model: TinyModel,
    src: Sequence[int],
    tgt: Sequence[int],
    cfg: LsgConfig,
    grads: dict[str, np.ndarray] | None = None,
):
    """Teacher-forced cross-entropy on (BOS + tgt → tgt + EOS).

    Returns (summed token loss, token count, grads). Gradients are of the
    *summed* loss and are accumulated into `grads` when given.
    """
    params = model.params
    tgt_in = [BOS_ID] + list(tgt)
    tgt_out = np.asarray(list(tgt) + [EOS_ID], dtype=np.intp)
    enc_out, enc_cache = _encode(params, src, model.config, cfg)
    logits, dec_cache = _decode(params, enc_out, tgt_in, model.config)
    probs = _softmax_rows(logits)
    picked = probs[np.arange(len(tgt_out)), tgt_out]
    loss_sum = float(-np.log(np.maximum(picked, 1e-300)).sum())
    if grads is None:
        grads = zero_grads(params)
    d_logits = probs
    d_logits[np.arange(len(tgt_out)), tgt_out] -= 1.0
    d_enc = _decode_backward(params, dec_cache, d_logits, grads)
    _encode_backward(params, enc_cache, d_enc, grads)
    return loss_sum, len(tgt_out), grads
