"""Caching forms of the feed-forward and blocked attention kernels, as a bitwise oracle.

`chartsum.tinylsg.model`'s kernels keep neither the GELU's input nor the padded
queries, keys and values between the forward and the backward pass: the
backward recomputes them from its input. These forms keep them in the cache
instead and run every other statement as the package does, so the package's
outputs and gradients must equal theirs byte for byte.
"""

from __future__ import annotations

import math

import numpy as np

from chartsum.tinylsg.masks import LsgLayout
from chartsum.tinylsg.model import (
    _GELU_A,
    _GELU_C,
    _by_block,
    _gelu_tanh,
    _merge_heads,
    _projections_backward,
    _softmax_backward,
    _softmax_rows,
    _split_heads,
    _windows,
)


def cached_lsg_attention_forward(params, prefix: str, x, layout: LsgLayout, n_heads: int):
    """Block-sparse self-attention of x under `layout`.

    Equal, up to rounding, to `_mha_forward(params, prefix, x, x, masked, n_heads)`
    with `masked = ~lsg_mask(n, cfg)`. Each query block scores its window of local
    keys and the shared extra keys; the global query rows attend densely.
    """
    n, g, w = layout.n, layout.num_global, layout.window
    rows = layout.n_blocks * layout.block_size
    pad = layout.radius * layout.block_size
    qh = _split_heads(x @ params[f"{prefix}.wq"], n_heads)
    h, _, dh = qh.shape
    scale = 1.0 / math.sqrt(dh)
    q_rows = np.zeros((h, rows, dh))
    q_rows[:, :n] = qh
    k_pad, v_pad = np.zeros((2, h, rows + 2 * pad, dh))
    kh, vh = k_pad[:, pad : pad + n], v_pad[:, pad : pad + n]
    kh[:] = _split_heads(x @ params[f"{prefix}.wk"], n_heads)
    vh[:] = _split_heads(x @ params[f"{prefix}.wv"], n_heads)

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
    cache = (layout, q_rows, k_pad, v_pad, probs, global_probs, merged, scale)
    return merged @ params[f"{prefix}.wo"], cache


def cached_lsg_attention_backward(params, prefix: str, x, cache, d_out, grads):
    """Backward of `cached_lsg_attention_forward(params, prefix, x, ...)`; returns (d x, d x)
    like `_mha_backward`.

    The local key/value gradients are scattered back with one slice add per
    window offset; the extra keys are distinct, so one indexed add each. The extra
    keys and values are gathered again from the padded ones rather than cached.
    """
    layout, q_rows, k_pad, v_pad, probs, global_probs, merged, scale = cache
    n, g, w, block = layout.n, layout.num_global, layout.window, layout.block_size
    pad = layout.radius * block
    h, rows, dh = q_rows.shape
    qh, kh, vh = q_rows[:, :n], k_pad[:, pad : pad + n], v_pad[:, pad : pad + n]
    grads[f"{prefix}.wo"] += merged.T @ d_out
    d_oh = _split_heads(d_out @ params[f"{prefix}.wo"].T, h)
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


def cached_ff_forward(params, prefix: str, x):
    """The cache holds the GELU's input alone, neither x nor the GELU's output: the
    backward pass is handed x again and recomputes the tanh term with `_gelu_tanh`,
    bit for bit. The GELU, `0.5 * (1 + t) * pre`, is computed in place."""
    pre = x @ params[f"{prefix}.w1"]
    pre += params[f"{prefix}.b1"]
    hidden = _gelu_tanh(pre)
    hidden += 1.0
    hidden *= 0.5
    hidden *= pre
    out = hidden @ params[f"{prefix}.w2"]
    out += params[f"{prefix}.b2"]
    return out, (pre,)


def cached_ff_backward(params, prefix: str, x, cache, d_out, grads):
    """The GELU's derivative, `0.5 * (1 + t) + 0.5 * pre * (1 - t**2) * _GELU_C *
    (1 + 3 * _GELU_A * pre**2)`, is built in place in two scratch arrays."""
    (pre,) = cache
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
