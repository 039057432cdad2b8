"""Training loop (Adam, linearly decayed step size), greedy decoding, gradient checking."""

from __future__ import annotations

import math
import random
from typing import Callable, Sequence

import numpy as np

from ..config import LsgConfig, TrainConfig
from ..errors import ChartsumError
from .model import DecodeState, TinyModel, _decode, _encode, _forward_loss, loss_and_grads
from .vocab import BOS_ID, EOS_ID

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
# Elements per Adam chunk. The update makes 15 passes over its five buffers;
# a chunk's slices stay in cache across them, where whole 238k-parameter
# buffers do not. Every op is elementwise, so chunking changes no bit.
_ADAM_CHUNK = 16384


class NonFiniteLoss(ChartsumError):
    def __init__(self, epoch: int, reason: str):
        super().__init__(f"training diverged at epoch {epoch}: {reason}")


class NonFiniteDecode(ChartsumError):
    """Decoding overflowed or produced NaN: the model's weights are out of range."""


def _source_ids(model: TinyModel, text: str, lsg: LsgConfig) -> list[int]:
    """Token ids of a source text, cut to the input cap."""
    return model.vocab.encode(text)[: lsg.max_input_tokens]


def _encode_pairs(model: TinyModel, pairs, lsg: LsgConfig) -> list[tuple[list[int], list[int]]]:
    return [(_source_ids(model, src, lsg), model.vocab.encode(tgt)) for src, tgt in pairs]


def _adam_update(flat, grads, m_state, v_state, grad_scale: float, lr: float, step: int) -> None:
    """One Adam step over the flat buffers, in place, one `_ADAM_CHUNK` slice at a time.

    Per element:
      g = grads·grad_scale
      m = β1·m + (1-β1)·g
      v = β2·v + (1-β2)·g²
      p -= lr·(m/bias1) / (√(v/bias2) + ε)
    The gradient chunk holds g, then serves as a second scratch; the next
    batch zeroes the gradients.
    """
    bias1 = 1.0 - _ADAM_BETA1**step
    bias2 = 1.0 - _ADAM_BETA2**step
    scratch = np.empty(min(_ADAM_CHUNK, flat.size))
    for start in range(0, flat.size, _ADAM_CHUNK):
        chunk = slice(start, start + _ADAM_CHUNK)
        p, g, m, v = flat[chunk], grads[chunk], m_state[chunk], v_state[chunk]
        s = scratch[: len(p)]
        g *= grad_scale
        m *= _ADAM_BETA1
        np.multiply(g, 1.0 - _ADAM_BETA1, out=s)
        m += s
        v *= _ADAM_BETA2
        np.multiply(g, g, out=g)
        g *= 1.0 - _ADAM_BETA2
        v += g
        np.divide(v, bias2, out=s)
        np.sqrt(s, out=s)
        s += _ADAM_EPS
        np.divide(m, bias1, out=g)
        g *= lr
        g /= s
        p -= g


def train(
    model: TinyModel,
    pairs: Sequence[tuple[str, str]],
    tc: TrainConfig,
    lsg: LsgConfig,
    log: Callable[[str], None] | None = None,
) -> tuple[TinyModel, list[float]]:
    """Teacher-forced cross-entropy training in place; returns (model, per-epoch mean loss).

    Adam updates `model.flat`, so every view in `model.params` sees the trained
    weights, and `model` itself is returned. Sources longer than the input cap
    are truncated rather than rejected. An overflow or invalid value anywhere in
    a step, or a non-finite batch loss, raises NonFiniteLoss; the model's
    weights are then unspecified.
    """
    if not pairs:
        raise ChartsumError("no (source, target) pairs to train on")
    examples = _encode_pairs(model, pairs, lsg)
    # Gradients and both Adam moments are buffers shaped like `model.flat`;
    # the gradient dict holds named views into its buffer. A step then costs
    # one fill and a fixed number of ufuncs per chunk of `_ADAM_CHUNK`
    # elements, whatever the number of parameter arrays, and four
    # parameter-sized buffers are alive at once.
    flat_grads, m_state, v_state = (np.zeros_like(model.flat) for _ in range(3))
    grads = model.views(flat_grads)
    order = list(range(len(examples)))
    rng = random.Random(tc.seed)
    n_batches = math.ceil(len(examples) / tc.batch_size)
    total_steps = tc.epochs * n_batches
    history: list[float] = []
    step = 0
    try:
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(tc.epochs):
                rng.shuffle(order)
                epoch_loss = 0.0
                epoch_tokens = 0
                for start in range(0, len(order), tc.batch_size):
                    batch = order[start : start + tc.batch_size]
                    flat_grads.fill(0.0)
                    batch_loss = 0.0
                    batch_tokens = 0
                    for idx in batch:
                        src, tgt = examples[idx]
                        loss_sum, n_tokens, _ = loss_and_grads(model, src, tgt, lsg, grads)
                        batch_loss += loss_sum
                        batch_tokens += n_tokens
                    if not math.isfinite(batch_loss):
                        raise NonFiniteLoss(epoch + 1, f"loss is {batch_loss}")
                    lr = tc.initial_lr * (1.0 - step / total_steps)
                    step += 1
                    _adam_update(model.flat, flat_grads, m_state, v_state, 1.0 / batch_tokens, lr, step)
                    epoch_loss += batch_loss
                    epoch_tokens += batch_tokens
                history.append(epoch_loss / epoch_tokens)
                if log is not None:
                    log(f"epoch {epoch + 1}/{tc.epochs}: loss {history[-1]:.6f}")
    except FloatingPointError as exc:
        raise NonFiniteLoss(len(history) + 1, str(exc)) from exc
    return model, history


def generate(model: TinyModel, src: Sequence[int], max_len: int, lsg: LsgConfig) -> list[int]:
    """Greedy decode from BOS until EOS or max_len tokens; argmax ties pick the lowest id.

    Each step feeds `_decode` the newest token only, reusing the cached
    keys/values of the source and of the earlier positions. An overflow or
    invalid value anywhere in the forward passes raises NonFiniteDecode.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    params, cfg = model.params, model.config
    emitted: list[int] = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            enc_out, _ = _encode(params, src, cfg, lsg)
            state = DecodeState(params, enc_out, cfg)
            token = BOS_ID
            while len(emitted) < max_len:
                logits, _ = _decode(params, state, [token], cfg)
                token = int(np.argmax(logits[0]))
                if token == EOS_ID:
                    break
                emitted.append(token)
    except FloatingPointError as exc:
        raise NonFiniteDecode(
            f"decoding failed: {exc}; the model's weights are out of range"
        ) from exc
    return emitted


def summarize_ids(model: TinyModel, text: str, max_len: int, lsg: LsgConfig) -> list[int]:
    """Encode text (truncated to the input cap) and greedy-decode a summary."""
    return generate(model, _source_ids(model, text, lsg), max_len, lsg)


def _mean_loss(model: TinyModel, src, tgt, lsg: LsgConfig) -> float:
    """`loss_and_grads`'s loss per target token, bit for bit, without its backward pass."""
    loss_sum, tgt_out, *_ = _forward_loss(model, src, tgt, lsg)
    return loss_sum / len(tgt_out)


def grad_check(
    model: TinyModel,
    example: tuple[Sequence[int], Sequence[int]],
    epsilon: float = 1e-5,
    n_params_sampled: int = 200,
    seed: int = 0,
    lsg: LsgConfig | None = None,
) -> float:
    """Max discrepancy between analytic gradients and central finite differences.

    The sampled parameters are indices of `model.flat`, each nudged in place and
    restored. Relative error per sampled parameter, falling back to absolute
    error when both gradients are below 1e-8 in magnitude.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if lsg is None:
        lsg = LsgConfig()
    src, tgt = list(example[0]), list(example[1])
    flat, flat_grads = model.flat, np.zeros_like(model.flat)
    _, n_tokens, _ = loss_and_grads(model, src, tgt, lsg, model.views(flat_grads))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(flat.size, size=min(n_params_sampled, flat.size), replace=False)
    worst = 0.0
    for index in sorted(int(c) for c in chosen):
        original = flat[index]
        flat[index] = original + epsilon
        loss_plus = _mean_loss(model, src, tgt, lsg)
        flat[index] = original - epsilon
        loss_minus = _mean_loss(model, src, tgt, lsg)
        flat[index] = original
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic = flat_grads[index] / n_tokens
        scale = max(abs(analytic), abs(numeric))
        err = abs(analytic - numeric) if scale < 1e-8 else abs(analytic - numeric) / scale
        worst = max(worst, err)
    return worst
