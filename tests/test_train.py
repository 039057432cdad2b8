"""Training-loop, greedy-decoding, and gradient-check tests.

`ref_train` is the reference for `train`: the same loop over one array per
parameter (the views of a copy of the model's weights), with fresh gradient
arrays per batch and Adam written out per array.
"""

from __future__ import annotations

import importlib
import math
import random
from types import MappingProxyType

import numpy as np
import pytest

from chartsum.errors import ChartsumError
from chartsum.pipeline import BackendSpec, train_tiny_lsg
from chartsum.tinylsg.checkpoint import load_checkpoint, save_model
from chartsum.tinylsg.masks import LsgConfig
from chartsum.tinylsg.model import ModelConfig, TinyModel, init_model, loss_and_grads
from chartsum.tinylsg.train import (
    TrainConfig,
    _encode_pairs,
    grad_check,
    generate,
    summarize_ids,
    train,
)
from chartsum.tinylsg.vocab import EOS_ID, build_vocab
from peakmem import traced_peak
from synthdata import synth_corpus
from test_model import zero_grads

LSG = LsgConfig(block_size=4, sparsity_stride=2, num_global=1, max_input_tokens=64)

PAIRS = [
    ("patient reports left knee pain for two days", "left knee pain"),
    ("patient reports right elbow soreness since monday", "right elbow soreness"),
    ("swelling in the ankle after running", "ankle swelling"),
]


def make_model(seed=0, scale=0.3):
    vocab = build_vocab([s + " " + t for s, t in PAIRS])
    cfg = ModelConfig(d_model=16, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=32)
    return init_model(cfg, vocab, seed=seed, init_scale=scale)


# ---------------------------------------------------------------------------
# TrainConfig
# ---------------------------------------------------------------------------

def test_train_config_defaults_and_validation():
    tc = TrainConfig()
    assert (tc.initial_lr, tc.epochs, tc.batch_size, tc.seed) == (5e-5, 20, 8, 0)
    TrainConfig(initial_lr=0.0)  # zero step size is expressible
    for bad in (
        {"initial_lr": -1e-4},
        {"initial_lr": float("nan")},
        {"initial_lr": float("inf")},
        {"epochs": 0},
        {"batch_size": 0},
        {"seed": -1},
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


# ---------------------------------------------------------------------------
# train()
# ---------------------------------------------------------------------------

def test_train_empty_set_raises():
    with pytest.raises(ChartsumError, match=r"no \(source, target\) pairs to train on"):
        train(make_model(), [], TrainConfig(), LSG)


def test_zero_lr_keeps_parameters_bit_identical():
    model = make_model()
    before = {k: v.copy() for k, v in model.params.items()}
    trained, history = train(model, PAIRS, TrainConfig(initial_lr=0.0, epochs=2), LSG)
    for name in before:
        assert np.array_equal(trained.params[name], before[name])
        assert np.array_equal(model.params[name], before[name])
    assert len(history) == 2
    assert history[0] == history[1]  # nothing moved, loss is frozen


def assert_views_of_flat(model):
    """Every parameter is a view of `model.flat`, and `params` cannot be rebound."""
    flat = model.flat
    assert flat.flags.c_contiguous and flat.dtype == np.float64 and flat.shape == (model.num_params,)
    assert isinstance(model.params, MappingProxyType)
    assert sum(value.size for value in model.params.values()) == flat.size
    assert all(value.base is flat for value in model.params.values())
    with pytest.raises(TypeError):
        model.params["tok_emb"] = np.zeros_like(model.params["tok_emb"])


def test_params_are_read_only_views_of_flat_through_init_load_and_train(tmp_path):
    model = make_model()
    assert_views_of_flat(model)
    flat = model.flat
    trained, _ = train(model, PAIRS, TrainConfig(initial_lr=1e-3, epochs=2, batch_size=2), LSG)
    assert trained is model and model.flat is flat
    assert_views_of_flat(model)
    path = tmp_path / "model.json"
    save_model(model, path, LSG, 16)
    assert_views_of_flat(load_checkpoint(path).model)


@pytest.mark.parametrize("make_flat", [
    lambda n: np.zeros(n - 1),
    lambda n: np.zeros(n + 1),
    lambda n: np.zeros(n, dtype=np.float32),
    lambda n: np.zeros((1, n)),
    lambda n: np.zeros(2 * n)[::2],
], ids=["short", "long", "float32", "2-d", "strided"])
def test_tiny_model_rejects_a_buffer_of_the_wrong_layout(make_flat):
    model = make_model()
    with pytest.raises(ValueError, match=f"C-contiguous float64 vector of {model.num_params} weights"):
        TinyModel(config=model.config, vocab=model.vocab, flat=make_flat(model.num_params))


# tracemalloc peak, in bytes, of one train_tiny_lsg call: default model and
# LsgConfig, one epoch over synth_corpus(4) (177,238 parameters): 3% above the
# measured 7,423,343 B. Weights, gradients and both Adam moments are 1.42 MB
# each; keeping the initial weights alive beside them peaked at 9,071,680 B.
TRAIN_PEAK_BOUND = 7_650_000


def test_train_tiny_lsg_peak_memory():
    """Training holds four parameter-sized buffers, not a fifth copy of the initial weights.

    A warm-up call first fills the shared tables (mask tables, positional
    encodings, cached layouts), so the traced call allocates only its own work.
    """
    pairs = [(encounter.dialogue, encounter.note) for encounter in synth_corpus(4)]
    backend = BackendSpec(kind="tiny-lsg", train=TrainConfig(epochs=1))
    train_tiny_lsg(backend, pairs, 0)
    peak = traced_peak(train_tiny_lsg, backend, pairs, 0)
    assert peak < TRAIN_PEAK_BOUND, (
        f"peak {peak:,} B is not below the bound {TRAIN_PEAK_BOUND:,} B")


def test_train_deterministic_across_runs():
    tc = TrainConfig(initial_lr=1e-3, epochs=3, batch_size=2, seed=5)
    t1, h1 = train(make_model(), PAIRS, tc, LSG)
    t2, h2 = train(make_model(), PAIRS, tc, LSG)
    assert h1 == h2
    for name in t1.params:
        assert np.array_equal(t1.params[name], t2.params[name])


def ref_train(model, pairs, tc, lsg):
    examples = _encode_pairs(model, pairs, lsg)
    working = TinyModel(config=model.config, vocab=model.vocab, flat=model.flat.copy())
    params = working.params
    m_state = zero_grads(params)
    v_state = zero_grads(params)
    order = list(range(len(examples)))
    rng = random.Random(tc.seed)
    total_steps = tc.epochs * math.ceil(len(examples) / tc.batch_size)
    history = []
    step = 0
    for _ in range(tc.epochs):
        rng.shuffle(order)
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, len(order), tc.batch_size):
            grads = zero_grads(params)
            batch_loss = 0.0
            batch_tokens = 0
            for idx in order[start : start + tc.batch_size]:
                src, tgt = examples[idx]
                loss_sum, n_tokens, _ = loss_and_grads(working, src, tgt, lsg, grads)
                batch_loss += loss_sum
                batch_tokens += n_tokens
            lr = tc.initial_lr * (1.0 - step / total_steps)
            step += 1
            inv_tokens = 1.0 / batch_tokens
            bias1 = 1.0 - 0.9**step
            bias2 = 1.0 - 0.999**step
            for name, value in params.items():
                g = grads[name] * inv_tokens
                m_state[name] = 0.9 * m_state[name] + (1.0 - 0.9) * g
                v_state[name] = 0.999 * v_state[name] + (1.0 - 0.999) * g**2
                value -= lr * (m_state[name] / bias1) / (np.sqrt(v_state[name] / bias2) + 1e-8)
            epoch_loss += batch_loss
            epoch_tokens += batch_tokens
        history.append(epoch_loss / epoch_tokens)
    return working, history


@pytest.mark.parametrize("lr", [0.0, 3e-3])
@pytest.mark.parametrize("epochs", [1, 2, 3])
@pytest.mark.parametrize("batch_size", [1, 2, 3])
def test_train_is_bitwise_the_per_array_reference(batch_size, epochs, lr):
    # Three pairs: batch size 2 leaves a partial last batch.
    tc = TrainConfig(initial_lr=lr, epochs=epochs, batch_size=batch_size, seed=7)
    trained, history = train(make_model(), PAIRS, tc, LSG)
    want, want_history = ref_train(make_model(), PAIRS, tc, LSG)
    assert history == want_history
    assert list(trained.params) == list(want.params)
    for name, value in want.params.items():
        assert np.array_equal(trained.params[name], value), name


def test_chunked_adam_is_bitwise_the_per_array_reference(monkeypatch):
    """A small chunk cuts the tiny model's buffers into several chunks and a ragged last one."""
    chunk = 1000
    size = make_model().num_params
    assert size > 3 * chunk and size % chunk
    monkeypatch.setattr(importlib.import_module("chartsum.tinylsg.train"), "_ADAM_CHUNK", chunk)
    tc = TrainConfig(initial_lr=3e-3, epochs=2, batch_size=2, seed=7)
    trained, history = train(make_model(), PAIRS, tc, LSG)
    want, want_history = ref_train(make_model(), PAIRS, tc, LSG)
    assert history == want_history
    for name, value in want.params.items():
        assert np.array_equal(trained.params[name], value), name


def test_trained_model_round_trips_through_a_checkpoint(tmp_path):
    trained, _ = train(make_model(), PAIRS, TrainConfig(initial_lr=3e-3, epochs=2, batch_size=2), LSG)
    path = tmp_path / "model.json"
    save_model(trained, path, LSG, 16)
    loaded = load_checkpoint(path).model
    assert not np.shares_memory(loaded.flat, trained.flat)
    assert loaded.flat.tobytes() == trained.flat.tobytes()
    assert loaded.params.keys() == trained.params.keys()
    for name, value in trained.params.items():
        assert loaded.params[name].dtype == np.float64
        assert np.array_equal(loaded.params[name], value), name


def test_train_seed_changes_trajectory():
    t1, h1 = train(make_model(), PAIRS, TrainConfig(initial_lr=1e-3, epochs=3, batch_size=1, seed=0), LSG)
    t2, h2 = train(make_model(), PAIRS, TrainConfig(initial_lr=1e-3, epochs=3, batch_size=1, seed=1), LSG)
    assert h1 != h2  # different shuffles visit batches in different orders


def test_train_reduces_loss_and_logs():
    lines = []
    model = make_model()
    trained, history = train(
        model,
        PAIRS,
        TrainConfig(initial_lr=5e-3, epochs=15, batch_size=3, seed=0),
        LSG,
        log=lines.append,
    )
    assert len(history) == 15
    assert history[-1] < history[0] * 0.7
    assert len(lines) == 15
    assert lines[0].startswith("epoch 1/15:")


def test_quick_memorization_two_pairs():
    pairs = PAIRS[:2]
    vocab = build_vocab([s + " " + t for s, t in pairs])
    cfg = ModelConfig(d_model=32, n_heads=2, n_layers_enc=1, n_layers_dec=1, d_ff=64)
    model = init_model(cfg, vocab, seed=0)
    trained, history = train(
        model, pairs, TrainConfig(initial_lr=8e-3, epochs=150, batch_size=2, seed=0), LSG
    )
    assert history[-1] < 0.1
    assert all(math.isfinite(v) for v in history)
    assert min(history) <= history[0]
    for src_text, tgt_text in pairs:
        ids = summarize_ids(trained, src_text, max_len=16, lsg=LSG)
        assert trained.vocab.decode(ids) == tgt_text


# ---------------------------------------------------------------------------
# generate()
# ---------------------------------------------------------------------------

def test_generate_respects_max_len_and_is_repeatable():
    model = make_model()
    src = model.vocab.encode(PAIRS[0][0])
    out1 = generate(model, src, max_len=1, lsg=LSG)
    assert len(out1) <= 1
    long1 = generate(model, src, max_len=8, lsg=LSG)
    long2 = generate(model, src, max_len=8, lsg=LSG)
    assert long1 == long2
    assert len(long1) <= 8
    assert EOS_ID not in long1


def test_generate_rejects_bad_max_len():
    model = make_model()
    with pytest.raises(ValueError):
        generate(model, [5], max_len=0, lsg=LSG)


def test_summarize_ids_truncates_long_sources():
    model = make_model()
    lsg = LsgConfig(block_size=4, sparsity_stride=0, num_global=1, max_input_tokens=8)
    text = " ".join(["pain"] * 50)  # far beyond the cap; must not raise
    out = summarize_ids(model, text, max_len=4, lsg=lsg)
    assert len(out) <= 4


# ---------------------------------------------------------------------------
# grad_check()
# ---------------------------------------------------------------------------

def example_for(model):
    src = model.vocab.encode(PAIRS[0][0])
    tgt = model.vocab.encode(PAIRS[0][1])
    return src, tgt


def test_grad_check_analytic_matches_numeric():
    model = make_model(seed=0, scale=0.5)
    err = grad_check(model, example_for(model), epsilon=1e-5, n_params_sampled=120, seed=0, lsg=LSG)
    assert err < 1e-4


def test_grad_check_deterministic():
    model = make_model(seed=1, scale=0.5)
    e1 = grad_check(model, example_for(model), n_params_sampled=40, seed=3, lsg=LSG)
    e2 = grad_check(model, example_for(model), n_params_sampled=40, seed=3, lsg=LSG)
    assert e1 == e2


def test_grad_check_leaves_params_untouched():
    model = make_model(seed=2, scale=0.5)
    before = {k: v.copy() for k, v in model.params.items()}
    grad_check(model, example_for(model), n_params_sampled=20, seed=0, lsg=LSG)
    for name in before:
        assert np.array_equal(model.params[name], before[name])


def test_grad_check_probes_without_a_backward_pass(monkeypatch):
    """Only the analytic gradient runs `loss_and_grads`; each finite-difference
    probe runs the forward pass and loss alone."""
    train_mod = importlib.import_module("chartsum.tinylsg.train")
    calls = []

    def counted(*args):
        calls.append(args)
        return loss_and_grads(*args)

    monkeypatch.setattr(train_mod, "loss_and_grads", counted)
    model = make_model(seed=0, scale=0.5)
    grad_check(model, example_for(model), n_params_sampled=10, seed=0, lsg=LSG)
    assert len(calls) == 1


def test_grad_check_validates_epsilon():
    model = make_model()
    with pytest.raises(ValueError):
        grad_check(model, example_for(model), epsilon=0.0, lsg=LSG)


def test_grad_check_zero_weights_degenerate():
    # All-zero parameters force uniform logits; most gradients collapse to
    # (near-)zero magnitudes, exercising the absolute-error comparison path.
    model = make_model()
    for name in model.params:
        model.params[name][...] = 0.0
    err = grad_check(model, example_for(model), n_params_sampled=200, seed=0, lsg=LSG)
    assert err < 1e-4
