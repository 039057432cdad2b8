"""Training loop (Adam, linearly decayed step size), greedy decoding, gradient checking."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..errors import ChartsumError
from .masks import LsgConfig
from .model import DecodeState, TinyModel, _decode_step, _encode, loss_and_grads
from .vocab import BOS_ID, EOS_ID

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class EmptyTrainingSet(ChartsumError):
    pass


class NonFiniteLoss(ChartsumError):
    def __init__(self, epoch: int, loss: float):
        super().__init__(f"training diverged at epoch {epoch}: loss is {loss}")
        self.epoch = epoch
        self.loss = loss


@dataclass(frozen=True)
class TrainConfig:
    """Step size decays linearly from initial_lr toward 0 over epochs × batches."""

    initial_lr: float = 5e-5
    epochs: int = 20
    batch_size: int = 8
    seed: int = 0

    def __post_init__(self):
        # lr 0 is allowed so a no-op training run stays expressible.
        if not (math.isfinite(self.initial_lr) and self.initial_lr >= 0):
            raise ValueError(f"initial_lr must be finite and >= 0, got {self.initial_lr}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")


def _encode_pairs(model: TinyModel, pairs, lsg: LsgConfig) -> list[tuple[list[int], list[int]]]:
    encoded = []
    for src_text, tgt_text in pairs:
        src = model.vocab.encode(src_text)[: lsg.max_input_tokens]
        tgt = model.vocab.encode(tgt_text)
        encoded.append((src, tgt))
    return encoded


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Consecutive slices of `flat`, named and shaped as the arrays of `like`."""
    views, offset = {}, 0
    for name, value in like.items():
        views[name] = flat[offset : offset + value.size].reshape(value.shape)
        offset += value.size
    return views


def train(
    model: TinyModel,
    pairs: Sequence[tuple[str, str]],
    tc: TrainConfig,
    lsg: LsgConfig,
    log: Callable[[str], None] | None = None,
) -> tuple[TinyModel, list[float]]:
    """Teacher-forced cross-entropy training; returns (updated model, per-epoch mean loss).

    The input model is left untouched; sources longer than the input cap are
    truncated rather than rejected.
    """
    if not pairs:
        raise EmptyTrainingSet("no (source, target) pairs to train on")
    examples = _encode_pairs(model, pairs, lsg)
    # Parameters, gradients and both Adam moments are one flat float64 buffer
    # each; the parameter and gradient dicts hold reshaped views into theirs.
    # A step then costs one fill and a fixed number of whole-buffer ufuncs,
    # whatever the number of parameter arrays.
    flat = np.concatenate([value.ravel() for value in model.params.values()], dtype=np.float64)
    flat_grads, m_state, v_state, scratch = (np.zeros_like(flat) for _ in range(4))
    params = _views(flat, model.params)
    grads = _views(flat_grads, model.params)
    working = TinyModel(config=model.config, vocab=model.vocab, params=params)
    order = list(range(len(examples)))
    rng = random.Random(tc.seed)
    n_batches = math.ceil(len(examples) / tc.batch_size)
    total_steps = tc.epochs * n_batches
    history: list[float] = []
    step = 0
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
                loss_sum, n_tokens, _ = loss_and_grads(working, src, tgt, lsg, grads)
                batch_loss += loss_sum
                batch_tokens += n_tokens
            if not math.isfinite(batch_loss):
                raise NonFiniteLoss(epoch, batch_loss)
            lr = tc.initial_lr * (1.0 - step / total_steps)
            step += 1
            bias1 = 1.0 - _ADAM_BETA1**step
            bias2 = 1.0 - _ADAM_BETA2**step
            # In place, with the per-element arithmetic of
            #   g = grads·(1/tokens)
            #   m = β1·m + (1-β1)·g
            #   v = β2·v + (1-β2)·g²
            #   p -= lr·(m/bias1) / (√(v/bias2) + ε)
            # The gradient buffer holds g, then serves as a second scratch;
            # the next batch zeroes it.
            g = flat_grads
            g *= 1.0 / batch_tokens
            m_state *= _ADAM_BETA1
            np.multiply(g, 1.0 - _ADAM_BETA1, out=scratch)
            m_state += scratch
            v_state *= _ADAM_BETA2
            np.multiply(g, g, out=g)
            g *= 1.0 - _ADAM_BETA2
            v_state += g
            np.divide(v_state, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += _ADAM_EPS
            np.divide(m_state, bias1, out=g)
            g *= lr
            g /= scratch
            flat -= g
            epoch_loss += batch_loss
            epoch_tokens += batch_tokens
        history.append(epoch_loss / epoch_tokens)
        if log is not None:
            log(f"epoch {epoch + 1}/{tc.epochs}: loss {history[-1]:.6f}")
    return working, history


def generate(model: TinyModel, src: Sequence[int], max_len: int, lsg: LsgConfig) -> list[int]:
    """Greedy decode from BOS until EOS or max_len tokens; argmax ties pick the lowest id.

    Each step runs the decoder on the newest token only, reusing the cached
    keys/values of the source and of the earlier positions.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    params, cfg = model.params, model.config
    enc_out, _ = _encode(params, src, cfg, lsg)
    state = DecodeState(params, enc_out, cfg)
    token = BOS_ID
    emitted: list[int] = []
    while len(emitted) < max_len:
        token = int(np.argmax(_decode_step(params, state, token, cfg)))
        if token == EOS_ID:
            break
        emitted.append(token)
    return emitted


def summarize_ids(model: TinyModel, text: str, max_len: int, lsg: LsgConfig) -> list[int]:
    """Encode text (truncated to the input cap) and greedy-decode a summary."""
    return generate(model, model.vocab.encode(text)[: lsg.max_input_tokens], max_len, lsg)


def _mean_loss(model: TinyModel, src, tgt, lsg: LsgConfig) -> float:
    loss_sum, n_tokens, _ = loss_and_grads(model, src, tgt, lsg)
    return loss_sum / n_tokens


def grad_check(
    model: TinyModel,
    example: tuple[Sequence[int], Sequence[int]],
    epsilon: float = 1e-5,
    n_params_sampled: int = 200,
    seed: int = 0,
    lsg: LsgConfig | None = None,
) -> float:
    """Max discrepancy between analytic gradients and central finite differences.

    Relative error per sampled parameter, falling back to absolute error when
    both gradients are below 1e-8 in magnitude.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if lsg is None:
        lsg = LsgConfig()
    src, tgt = list(example[0]), list(example[1])
    loss_sum, n_tokens, grads = loss_and_grads(model, src, tgt, lsg)
    names = sorted(model.params)
    sizes = [model.params[name].size for name in names]
    offsets = np.cumsum([0] + sizes)
    total = int(offsets[-1])
    rng = np.random.default_rng(seed)
    chosen = rng.choice(total, size=min(n_params_sampled, total), replace=False)
    worst = 0.0
    for flat in sorted(int(c) for c in chosen):
        slot = int(np.searchsorted(offsets, flat, side="right") - 1)
        name, offset = names[slot], flat - int(offsets[slot])
        flat_view = model.params[name].reshape(-1)
        original = flat_view[offset]
        flat_view[offset] = original + epsilon
        loss_plus = _mean_loss(model, src, tgt, lsg)
        flat_view[offset] = original - epsilon
        loss_minus = _mean_loss(model, src, tgt, lsg)
        flat_view[offset] = original
        numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
        analytic = grads[name].reshape(-1)[offset] / n_tokens
        scale = max(abs(analytic), abs(numeric))
        err = abs(analytic - numeric) if scale < 1e-8 else abs(analytic - numeric) / scale
        worst = max(worst, err)
    return worst
