"""Encoder-decoder transformer in float64 numpy with hand-derived backward passes.

The encoder self-attention follows the local/sparse/global pattern: on long
inputs a block-sparse kernel computes only the scores the pattern allows, on
short ones dense attention takes the pattern as a mask (see `masks.lsg_layout`).
The decoder is causally masked; cross-attention is unmasked. One decoder
forward, `_decode`, serves teacher forcing and cached greedy decoding alike.
Everything runs in double precision so analytic gradients can be checked
against central finite differences.

Each forward returns a backward cache per sublayer, and a training step keeps
every cache alive until its backward pass, so a cache keeps only what its
backward cannot rebuild bit for bit from its input with a matmul. A layer
norm keeps (x_hat, inv_std); its output is recomputed from them
(`_ln_output`), so no attention or feed-forward cache keeps a copy of its
normed input. A feed-forward cache is empty: the backward recomputes the
GELU's input, `x @ w1 + b1`, and its tanh term with the forward's own
statements. The blocked kernel's cache keeps the attention weights and the
merged heads; its backward rebuilds the padded queries, keys and values from
x (`_padded_heads`) and gathers the extra (global and strided) keys from them
again. The dense kernel's cache also keeps the projected heads: in the
decoder its keys and values are `DecodeState`'s, alive anyway, and the dense
encoder runs only on short inputs, where recomputing would save little.
Every kernel masks a score by setting it to -inf where a boolean
mask is True, never by adding a float64 bias. A backward pass computes the
score gradient in place and frees the weights once used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from ..config import LsgConfig, ModelConfig
from ..errors import ChartsumError
from .masks import LsgLayout, _grown_table, causal_masked, lsg_layout
from .vocab import BOS_ID, EOS_ID, GLOBAL_ID, UNK_ID, Vocab

_LN_EPS = 1e-5
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass(frozen=True, eq=False)
class TinyModel:
    """A model's weights, held in one C-contiguous float64 buffer, `flat`.

    `params` is a read-only mapping from each parameter name to a view of
    `flat`, in `_param_shapes` order, so writing through a view writes the
    buffer and no entry can be rebound away from it. `views` lays out any
    buffer shaped like `flat` (gradients, optimizer moments) the same way.
    Models compare and hash by identity: two models with equal weights are
    still two models, and each trains its own buffer.
    """

    config: ModelConfig
    vocab: Vocab
    flat: np.ndarray
    params: Mapping[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "params", MappingProxyType(self.views(self.flat)))

    @property
    def num_params(self) -> int:
        return self.flat.size

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """`buffer`, a C-contiguous float64 vector of `num_params` values, as named views."""
        shapes = _param_shapes(self.config, self.vocab.size)
        size = sum(math.prod(shape) for shape in shapes.values())
        if buffer.shape != (size,) or buffer.dtype != np.float64 or not buffer.flags.c_contiguous:
            raise ValueError(
                f"expected a C-contiguous float64 vector of {size} weights for this "
                f"model_config and vocab, got a {buffer.dtype} array of shape {buffer.shape}"
            )
        views, offset = {}, 0
        for name, shape in shapes.items():
            end = offset + math.prod(shape)
            views[name] = buffer[offset:end].reshape(shape)
            offset = end
        return views


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
    size = sum(math.prod(shape) for shape in _param_shapes(cfg, vocab.size).values())
    model = TinyModel(config=cfg, vocab=vocab, flat=np.empty(size))
    for name, view in model.params.items():
        if name.endswith(".g"):
            view.fill(1.0)
        elif name.endswith((".b", ".b1", ".b2")):
            view.fill(0.0)
        else:
            view[...] = rng.normal(0.0, init_scale, size=view.shape)
    return model


def _sinusoid_table(size: int, d: int) -> np.ndarray:
    """Sinusoidal encodings of positions 0 .. size-1 at width d."""
    positions = np.arange(size, dtype=np.float64)[:, None]
    freqs = np.exp(-math.log(10000.0) * np.arange(0, d, 2, dtype=np.float64) / d)
    angles = positions * freqs[None, :]
    table = np.empty((size, d))
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    return table


# One read-only table of encodings per model width.
_PE_TABLES: dict[int, np.ndarray] = {}


def positional_encoding(n: int, d: int, start: int = 0) -> np.ndarray:
    """Sinusoidal encodings of positions start .. start+n-1; shape (n, d), read-only.

    A slice of the table for width d. Every entry depends only on its position
    and column, so the slice equals the encodings computed for that range alone.
    """
    return _grown_table(_PE_TABLES, d, start + n, _sinusoid_table)[start:start + n]


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in place: `scores` is overwritten and returned."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    n, d = x.shape
    return x.reshape(n, n_heads, d // n_heads).transpose(1, 0, 2)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    h, n, dh = x.shape
    return x.transpose(1, 0, 2).reshape(n, h * dh)


def _attend(params, prefix: str, x_q, kh, vh, masked, n_heads: int):
    """Attention of x_q's queries over keys/values already split into heads.

    `masked` is an (n_q, n_kv) bool, True where a score is set to -inf, or None
    for unmasked attention. The cache holds neither input: the backward pass is
    handed them again.
    """
    qh = _split_heads(x_q @ params[f"{prefix}.wq"], n_heads)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    scores = qh @ kh.transpose(0, 2, 1) * scale
    if masked is not None:
        np.copyto(scores, -np.inf, where=masked)
    probs = _softmax_rows(scores)
    merged = _merge_heads(probs @ vh)
    return merged @ params[f"{prefix}.wo"], [qh, kh, vh, probs, merged, scale]


def _mha_forward(params, prefix: str, x_q, x_kv, masked, n_heads: int):
    kh = _split_heads(x_kv @ params[f"{prefix}.wk"], n_heads)
    vh = _split_heads(x_kv @ params[f"{prefix}.wv"], n_heads)
    return _attend(params, prefix, x_q, kh, vh, masked, n_heads)


def _softmax_backward(d_probs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """In place: the gradient w.r.t. softmax outputs `probs` becomes the gradient
    w.r.t. their inputs, `probs * (d_probs - rowsum(d_probs * probs))`; returned."""
    d_probs -= _row_dot(d_probs, probs)
    d_probs *= probs
    return d_probs


def _mha_backward(params, prefix: str, x_q, x_kv, cache, d_out, grads):
    """Backward of `_mha_forward(params, prefix, x_q, x_kv, ...)`; returns (d x_q, d x_kv).

    Consumes `cache`: it is emptied, and the attention weights freed once used.
    """
    qh, kh, vh, probs, merged, scale = cache
    cache.clear()
    grads[f"{prefix}.wo"] += merged.T @ d_out
    del merged
    d_oh = _split_heads(d_out @ params[f"{prefix}.wo"].T, qh.shape[0])
    d_vh = probs.transpose(0, 2, 1) @ d_oh
    d_scores = _softmax_backward(d_oh @ vh.transpose(0, 2, 1), probs)
    del probs, d_oh
    d_qh = d_scores @ kh
    d_qh *= scale
    d_kh = d_scores.transpose(0, 2, 1) @ qh
    d_kh *= scale
    del d_scores
    return _projections_backward(params, prefix, x_q, x_kv, d_qh, d_kh, d_vh, grads)


def _projections_backward(params, prefix: str, x_q, x_kv, d_qh, d_kh, d_vh, grads):
    """Weight gradients of the q/k/v projections; returns (d x_q, d x_kv)."""
    d_q, d_k, d_v = (_merge_heads(a) for a in (d_qh, d_kh, d_vh))
    grads[f"{prefix}.wq"] += x_q.T @ d_q
    grads[f"{prefix}.wk"] += x_kv.T @ d_k
    grads[f"{prefix}.wv"] += x_kv.T @ d_v
    d_x_q = d_q @ params[f"{prefix}.wq"].T
    d_x_kv = d_k @ params[f"{prefix}.wk"].T + d_v @ params[f"{prefix}.wv"].T
    return d_x_q, d_x_kv


def _windows(padded: np.ndarray, layout: LsgLayout) -> np.ndarray:
    """(h, n_blocks, window, d_head) read-only view of each query block's local rows.

    `padded` holds the n positions after radius * block_size rows of padding,
    so block b's window starts at row b * block_size.
    """
    s_head, s_row, s_col = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        (padded.shape[0], layout.n_blocks, layout.window, padded.shape[2]),
        (s_head, layout.block_size * s_row, s_row, s_col),
        writeable=False,
    )


def _by_block(rows: np.ndarray, layout: LsgLayout) -> np.ndarray:
    """View (h, n_blocks * block_size, k) as (h, n_blocks, block_size, k)."""
    return rows.reshape(rows.shape[0], layout.n_blocks, layout.block_size, rows.shape[-1])


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row dot product over the last axis, keeping it as size 1."""
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _padded_heads(params, prefix: str, x, layout: LsgLayout, n_heads: int):
    """x's queries, keys and values split into heads and padded for the blocked kernel.

    Returns (q_rows, k_pad, v_pad). q_rows holds the n queries, then zero rows up
    to n_blocks * block_size; k_pad and v_pad hold the n keys and values after
    radius * block_size zero rows and before as many again.
    """
    n = layout.n
    rows = layout.n_blocks * layout.block_size
    pad = layout.radius * layout.block_size
    qh = _split_heads(x @ params[f"{prefix}.wq"], n_heads)
    h, _, dh = qh.shape
    q_rows = np.zeros((h, rows, dh))
    q_rows[:, :n] = qh
    k_pad, v_pad = np.zeros((2, h, rows + 2 * pad, dh))
    k_pad[:, pad : pad + n] = _split_heads(x @ params[f"{prefix}.wk"], n_heads)
    v_pad[:, pad : pad + n] = _split_heads(x @ params[f"{prefix}.wv"], n_heads)
    return q_rows, k_pad, v_pad


def _lsg_attention_forward(params, prefix: str, x, layout: LsgLayout, n_heads: int):
    """Block-sparse self-attention of x under `layout`.

    Equal, up to rounding, to `_mha_forward(params, prefix, x, x, masked, n_heads)`
    with `masked = ~lsg_mask(n, cfg)`. Each query block scores its window of local
    keys and the shared extra keys; the global query rows attend densely. The
    cache holds (layout, probs, global_probs, merged, scale): the attention
    weights of the blocks and of the global rows, and the merged heads. The
    projected heads are not kept; the backward pass rebuilds them from x with
    `_padded_heads`, bit for bit.
    """
    n, g, w = layout.n, layout.num_global, layout.window
    pad = layout.radius * layout.block_size
    q_rows, k_pad, v_pad = _padded_heads(params, prefix, x, layout, n_heads)
    h, rows, dh = q_rows.shape
    scale = 1.0 / math.sqrt(dh)
    qh, kh, vh = q_rows[:, :n], k_pad[:, pad : pad + n], v_pad[:, pad : pad + n]

    # One row per (head, query): the window's local scores, then the extra keys'.
    scores = np.empty((h, rows, w + len(layout.extra)))
    blocks = _by_block(scores, layout)
    np.matmul(_by_block(q_rows, layout), _windows(k_pad, layout).transpose(0, 1, 3, 2),
              out=blocks[..., :w])
    np.matmul(q_rows, kh[:, layout.extra].transpose(0, 2, 1), out=scores[..., w:])
    scores *= scale
    np.copyto(blocks, -np.inf, where=layout.masked)
    probs = _softmax_rows(scores)
    out = (_by_block(probs, layout)[..., :w] @ _windows(v_pad, layout)).reshape(h, rows, dh)
    out += probs[..., w:] @ vh[:, layout.extra]
    out = out[:, :n]
    global_probs = _softmax_rows(qh[:, :g] @ kh.transpose(0, 2, 1) * scale)
    out[:, :g] = global_probs @ vh
    merged = _merge_heads(out)
    cache = (layout, probs, global_probs, merged, scale)
    return merged @ params[f"{prefix}.wo"], cache


def _lsg_attention_backward(params, prefix: str, x, cache, d_out, grads):
    """Backward of `_lsg_attention_forward(params, prefix, x, ...)`; returns (d x, d x)
    like `_mha_backward`.

    The padded heads are rebuilt from x with `_padded_heads`, and the extra keys
    and values gathered again from them. The local key/value gradients are
    scattered back with one slice add per window offset; the extra keys are
    distinct, so one indexed add each.
    """
    layout, probs, global_probs, merged, scale = cache
    n, g, w, block = layout.n, layout.num_global, layout.window, layout.block_size
    pad = layout.radius * block
    h = global_probs.shape[0]
    grads[f"{prefix}.wo"] += merged.T @ d_out
    d_oh = _split_heads(d_out @ params[f"{prefix}.wo"].T, h)
    q_rows, k_pad, v_pad = _padded_heads(params, prefix, x, layout, h)
    _, rows, dh = q_rows.shape
    qh, kh, vh = q_rows[:, :n], k_pad[:, pad : pad + n], v_pad[:, pad : pad + n]
    d_rows = np.zeros((h, rows, dh))
    d_rows[:, g:n] = d_oh[:, g:]
    k_win, v_win = _windows(k_pad, layout), _windows(v_pad, layout)
    p_local = _by_block(probs, layout)[..., :w]

    d_scores = np.empty_like(probs)
    d_blocks = _by_block(d_scores, layout)
    np.matmul(_by_block(d_rows, layout), v_win.transpose(0, 1, 3, 2), out=d_blocks[..., :w])
    np.matmul(d_rows, vh[:, layout.extra].transpose(0, 2, 1), out=d_scores[..., w:])
    _softmax_backward(d_scores, probs)
    d_scores *= scale
    d_local, d_extra = d_blocks[..., :w], d_scores[..., w:]

    d_q = (d_local @ k_win).reshape(h, rows, dh)
    d_q += d_extra @ kh[:, layout.extra]
    q_blocks, d_out_blocks = _by_block(q_rows, layout), _by_block(d_rows, layout)
    d_k_pad, d_v_pad = np.zeros((2,) + k_pad.shape)
    for offset in range(0, w, block):
        cols = slice(offset, offset + block)
        d_k = d_local[..., cols].transpose(0, 1, 3, 2) @ q_blocks
        d_v = p_local[..., cols].transpose(0, 1, 3, 2) @ d_out_blocks
        d_k_pad[:, offset : offset + rows] += d_k.reshape(d_rows.shape)
        d_v_pad[:, offset : offset + rows] += d_v.reshape(d_rows.shape)
    d_kh, d_vh = d_k_pad[:, pad : pad + n], d_v_pad[:, pad : pad + n]
    d_kh[:, layout.extra] += d_extra.transpose(0, 2, 1) @ q_rows
    d_vh[:, layout.extra] += probs[..., w:].transpose(0, 2, 1) @ d_rows
    d_qh = d_q[:, :n]

    d_global_out = d_oh[:, :g]
    d_vh += global_probs.transpose(0, 2, 1) @ d_global_out
    d_global = d_global_out @ vh.transpose(0, 2, 1)
    _softmax_backward(d_global, global_probs)
    d_global *= scale
    d_qh[:, :g] += d_global @ kh
    d_kh += d_global.transpose(0, 2, 1) @ qh[:, :g]
    return _projections_backward(params, prefix, x, x, d_qh, d_kh, d_vh, grads)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """`x.mean(axis=-1, keepdims=True)`, bit for bit, without np.mean's Python wrapper."""
    return np.add.reduce(x, axis=-1, keepdims=True) / x.shape[-1]


def _ln_forward(params, prefix: str, x):
    """Layer norm of x and its cache (x_hat, inv_std); `_ln_output` recomputes the
    output from the cache bit for bit, so no other cache keeps a copy of it."""
    mean = _row_mean(x)
    centered = x - mean
    var = _row_mean(centered**2)
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    cache = (centered * inv_std, inv_std)
    return _ln_output(params, prefix, cache), cache


def _ln_output(params, prefix: str, cache):
    return params[f"{prefix}.g"] * cache[0] + params[f"{prefix}.b"]


def _ln_backward(params, prefix: str, cache, d_out, grads):
    x_hat, inv_std = cache
    grads[f"{prefix}.g"] += (d_out * x_hat).sum(axis=0)
    grads[f"{prefix}.b"] += d_out.sum(axis=0)
    d_hat = d_out * params[f"{prefix}.g"]
    return inv_std * (d_hat - _row_mean(d_hat) - x_hat * _row_mean(d_hat * x_hat))


def _gelu_tanh(x):
    """The tanh term `tanh(_GELU_C * (x + _GELU_A * x**3))` of the GELU of x, in one
    new array with no temporary; x is not modified."""
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    return np.tanh(t, out=t)


def _ff_pre(params, prefix: str, x):
    """The GELU's input, `x @ w1 + b1`, in one new array."""
    pre = x @ params[f"{prefix}.w1"]
    pre += params[f"{prefix}.b1"]
    return pre


def _ff_forward(params, prefix: str, x):
    """The cache is empty: the backward pass is handed x again, recomputes the
    GELU's input with `_ff_pre` and its tanh term with `_gelu_tanh`, bit for bit.
    The GELU, `0.5 * (1 + t) * pre`, is computed in place."""
    pre = _ff_pre(params, prefix, x)
    hidden = _gelu_tanh(pre)
    hidden += 1.0
    hidden *= 0.5
    hidden *= pre
    out = hidden @ params[f"{prefix}.w2"]
    out += params[f"{prefix}.b2"]
    return out, ()


def _ff_backward(params, prefix: str, x, cache, d_out, grads):
    """The GELU's derivative, `0.5 * (1 + t) + 0.5 * pre * (1 - t**2) * _GELU_C *
    (1 + 3 * _GELU_A * pre**2)`, is built in place in two scratch arrays. `cache`
    is `_ff_forward`'s, which is empty."""
    pre = _ff_pre(params, prefix, x)
    t = _gelu_tanh(pre)
    slope = t + 1.0
    slope *= 0.5
    scratch = np.multiply(slope, pre)
    grads[f"{prefix}.w2"] += scratch.T @ d_out
    grads[f"{prefix}.b2"] += d_out.sum(axis=0)
    np.multiply(pre, 0.5, out=scratch)
    t *= t
    np.subtract(1.0, t, out=t)
    scratch *= t
    scratch *= _GELU_C
    np.multiply(pre, pre, out=t)
    t *= 3.0 * _GELU_A
    t += 1.0
    scratch *= t
    slope += scratch
    del t, scratch
    d_pre = d_out @ params[f"{prefix}.w2"].T
    d_pre *= slope
    del slope
    grads[f"{prefix}.w1"] += x.T @ d_pre
    grads[f"{prefix}.b1"] += d_pre.sum(axis=0)
    return d_pre @ params[f"{prefix}.w1"].T


def encoder_input_ids(src: Sequence[int], lsg: LsgConfig) -> list[int]:
    """Global-token prefix plus source ids; empty input degrades to a lone UNK."""
    if len(src) > lsg.max_input_tokens:
        raise ChartsumError(
            f"source sequence has {len(src)} tokens, limit is {lsg.max_input_tokens}")
    ids = [GLOBAL_ID] * lsg.num_global + list(src)
    return ids if ids else [UNK_ID]


def _embed(params, ids: Sequence[int], start: int = 0):
    """Token embeddings plus the encodings of positions start .. start+len(ids)-1."""
    ids = np.asarray(ids, dtype=np.intp)
    pe = positional_encoding(len(ids), params["tok_emb"].shape[1], start)
    return params["tok_emb"][ids] + pe, ids


def _encode(params, src: Sequence[int], cfg: ModelConfig, lsg: LsgConfig):
    ids = encoder_input_ids(src, lsg)
    x, ids = _embed(params, ids)
    layout = lsg_layout(len(ids), lsg)
    layers = []
    for i in range(cfg.n_layers_enc):
        p = f"enc.{i}"
        normed1, ln1 = _ln_forward(params, f"{p}.ln1", x)
        if layout.blocked:
            attn_out, attn = _lsg_attention_forward(
                params, f"{p}.attn", normed1, layout, cfg.n_heads
            )
        else:
            attn_out, attn = _mha_forward(
                params, f"{p}.attn", normed1, normed1, layout.dense_masked, cfg.n_heads
            )
        x = x + attn_out
        normed2, ln2 = _ln_forward(params, f"{p}.ln2", x)
        ff_out, ff = _ff_forward(params, f"{p}.ff", normed2)
        x = x + ff_out
        layers.append((ln1, attn, ln2, ff))
    out, ln_final = _ln_forward(params, "enc.norm", x)
    return out, (ids, layout.blocked, layers, ln_final)


def _encode_backward(params, cache, d_out, grads):
    """Consumes `cache`: each layer's entry is popped, and so freed, once its backward is done.

    Each sublayer's input, a layer-norm output, is recomputed from that norm's cache.
    """
    ids, blocked, layers, ln_final = cache
    d_x = _ln_backward(params, "enc.norm", ln_final, d_out, grads)
    for i in range(len(layers) - 1, -1, -1):
        p = f"enc.{i}"
        ln1, attn, ln2, ff = layers.pop()
        normed2 = _ln_output(params, f"{p}.ln2", ln2)
        d_normed2 = _ff_backward(params, f"{p}.ff", normed2, ff, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln2", ln2, d_normed2, grads)
        normed1 = _ln_output(params, f"{p}.ln1", ln1)
        if blocked:
            d_q, d_kv = _lsg_attention_backward(params, f"{p}.attn", normed1, attn, d_x, grads)
        else:
            d_q, d_kv = _mha_backward(params, f"{p}.attn", normed1, normed1, attn, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln1", ln1, d_q + d_kv, grads)
    np.add.at(grads["tok_emb"], ids, d_x)


class DecodeState:
    """What `_decode` reuses across calls for one source.

    `enc_out` is the encoder output. The cross-attention keys/values of each
    decoder layer are projected from it once; the self-attention keys/values
    grow by one row per position fed. Keys/values are split into heads:
    (n_heads, rows, d_head). `length` counts the positions fed so far.
    """

    def __init__(self, params, enc_out, cfg: ModelConfig):
        h = cfg.n_heads
        self.enc_out = enc_out
        self.cross = [
            (
                _split_heads(enc_out @ params[f"dec.{i}.cross.wk"], h),
                _split_heads(enc_out @ params[f"dec.{i}.cross.wv"], h),
            )
            for i in range(cfg.n_layers_dec)
        ]
        self.self_kv = [None] * cfg.n_layers_dec
        self.length = 0


def _decode(params, state: DecodeState, tokens: Sequence[int], cfg: ModelConfig):
    """Logits (len(tokens), V) of `tokens` fed at positions state.length onward.

    Extends `state`'s self-attention keys/values by those positions. Teacher
    forcing feeds BOS + target to a fresh state; greedy decoding feeds one
    token per call. The returned backward cache is valid only for a call on a
    fresh state, since its self-attention inputs cover the new positions alone.
    """
    h, start = cfg.n_heads, state.length
    x, ids = _embed(params, tokens, start)
    # A lone new position sees every cached key, so it needs no mask.
    self_masked = None if len(ids) == 1 else causal_masked(start + len(ids))[start:]
    layers = []
    for i, (cross_k, cross_v) in enumerate(state.cross):
        p = f"dec.{i}"
        normed1, ln1 = _ln_forward(params, f"{p}.ln1", x)
        self_k = _split_heads(normed1 @ params[f"{p}.self.wk"], h)
        self_v = _split_heads(normed1 @ params[f"{p}.self.wv"], h)
        if start:
            cached_k, cached_v = state.self_kv[i]
            self_k = np.concatenate([cached_k, self_k], axis=1)
            self_v = np.concatenate([cached_v, self_v], axis=1)
        state.self_kv[i] = (self_k, self_v)
        self_out, self_attn = _attend(params, f"{p}.self", normed1, self_k, self_v, self_masked, h)
        x = x + self_out
        normed2, ln2 = _ln_forward(params, f"{p}.ln2", x)
        cross_out, cross_attn = _attend(params, f"{p}.cross", normed2, cross_k, cross_v, None, h)
        x = x + cross_out
        normed3, ln3 = _ln_forward(params, f"{p}.ln3", x)
        ff_out, ff = _ff_forward(params, f"{p}.ff", normed3)
        x = x + ff_out
        layers.append((ln1, self_attn, ln2, cross_attn, ln3, ff))
    state.length += len(ids)
    normed, ln_final = _ln_forward(params, "dec.norm", x)
    logits = normed @ params["out.w"] + params["out.b"]
    return logits, (ids, layers, ln_final, state.enc_out)


def _decode_backward(params, cache, d_logits, grads):
    """Returns the gradient w.r.t. the encoder output (summed over cross-attentions).

    Consumes `cache` like `_encode_backward`, and recomputes layer-norm outputs alike.
    """
    ids, layers, ln_final, enc_out = cache
    grads["out.w"] += _ln_output(params, "dec.norm", ln_final).T @ d_logits
    grads["out.b"] += d_logits.sum(axis=0)
    d_x = _ln_backward(params, "dec.norm", ln_final, d_logits @ params["out.w"].T, grads)
    d_enc = None
    for i in range(len(layers) - 1, -1, -1):
        p = f"dec.{i}"
        ln1, self_attn, ln2, cross_attn, ln3, ff = layers.pop()
        normed3 = _ln_output(params, f"{p}.ln3", ln3)
        d_normed3 = _ff_backward(params, f"{p}.ff", normed3, ff, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln3", ln3, d_normed3, grads)
        normed2 = _ln_output(params, f"{p}.ln2", ln2)
        d_q, d_kv = _mha_backward(params, f"{p}.cross", normed2, enc_out, cross_attn, d_x, grads)
        d_enc = d_kv if d_enc is None else d_enc + d_kv
        d_x = d_x + _ln_backward(params, f"{p}.ln2", ln2, d_q, grads)
        normed1 = _ln_output(params, f"{p}.ln1", ln1)
        d_q, d_kv = _mha_backward(params, f"{p}.self", normed1, normed1, self_attn, d_x, grads)
        d_x = d_x + _ln_backward(params, f"{p}.ln1", ln1, d_q + d_kv, grads)
    np.add.at(grads["tok_emb"], ids, d_x)
    return d_enc


def _forward_loss(model: TinyModel, src: Sequence[int], tgt: Sequence[int], cfg: LsgConfig):
    """Teacher-forced forward pass and summed cross-entropy on (BOS + tgt → tgt + EOS).

    Returns (summed token loss, target ids, probabilities, encoder cache,
    decoder cache); the probabilities are the decoder's logits, softmaxed in
    place, one row per target id.
    """
    params = model.params
    tgt_in = [BOS_ID] + list(tgt)
    tgt_out = np.asarray(list(tgt) + [EOS_ID], dtype=np.intp)
    enc_out, enc_cache = _encode(params, src, model.config, cfg)
    state = DecodeState(params, enc_out, model.config)
    logits, dec_cache = _decode(params, state, tgt_in, model.config)
    probs = _softmax_rows(logits)
    picked = probs[np.arange(len(tgt_out)), tgt_out]
    loss_sum = float(-np.log(np.maximum(picked, 1e-300)).sum())
    return loss_sum, tgt_out, probs, enc_cache, dec_cache


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
    loss_sum, tgt_out, d_logits, enc_cache, dec_cache = _forward_loss(model, src, tgt, cfg)
    if grads is None:
        grads = model.views(np.zeros_like(model.flat))
    d_logits[np.arange(len(tgt_out)), tgt_out] -= 1.0
    d_enc = _decode_backward(model.params, dec_cache, d_logits, grads)
    # Free the logits and the decoder's cache, which holds the encoder output,
    # before the encoder's backward.
    del d_logits, dec_cache
    _encode_backward(model.params, enc_cache, d_enc, grads)
    return loss_sum, len(tgt_out), grads
