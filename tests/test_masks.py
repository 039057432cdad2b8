"""Attention-mask tests against independently coded loop references.

`mask_to_bias` is the additive form of a mask, which the reference
`attention` of `test_model.py` adds to its scores.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from chartsum.tinylsg.masks import (
    LsgConfig,
    causal_masked,
    lsg_layout,
    lsg_mask,
    mask_density,
)

# The configurations of acceptance criterion 3: seq_len 1-32 x block x stride x global.
CRITERION_3_GRID = [
    (seq_len, block, stride, n_global)
    for seq_len in range(1, 33)
    for block in (2, 4, 8)
    for stride in (0, 2, 4)
    for n_global in (0, 1, 2)
]


# ---------------------------------------------------------------------------
# Loop-based reference implementations (kept deliberately naive)
# ---------------------------------------------------------------------------

def ref_local(seq_len, block, radius):
    m = np.zeros((seq_len, seq_len), dtype=bool)
    for q in range(seq_len):
        for k in range(seq_len):
            m[q, k] = abs(q // block - k // block) <= radius
    return m


def ref_sparse(seq_len, stride, n_global):
    m = np.zeros((seq_len, seq_len), dtype=bool)
    if stride == 0:
        return m
    for q in range(seq_len):
        for k in range(seq_len):
            m[q, k] = k >= n_global and (k - n_global) % stride == 0
    return m


def ref_global(seq_len, n_global):
    m = np.zeros((seq_len, seq_len), dtype=bool)
    for q in range(seq_len):
        for k in range(seq_len):
            m[q, k] = q < n_global or k < n_global
    return m


def ref_causal(seq_len):
    m = np.zeros((seq_len, seq_len), dtype=bool)
    for q in range(seq_len):
        for k in range(seq_len):
            m[q, k] = k <= q
    return m


def mask_to_bias(mask):
    """Additive attention bias: 0 where allowed, -inf where disallowed."""
    return np.where(np.asarray(mask, dtype=bool), 0.0, -np.inf)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = LsgConfig()
    assert (cfg.block_size, cfg.sparsity_stride, cfg.num_global) == (16, 4, 1)
    assert cfg.max_input_tokens == 512 and cfg.local_radius == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"block_size": 0},
        {"sparsity_stride": -1},
        {"num_global": -1},
        {"local_radius": -1},
        {"block_size": 32, "max_input_tokens": 16},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        LsgConfig(**kwargs)


def test_masks_reject_nonpositive_seq_len():
    for seq_len in (0, -1):
        with pytest.raises(ValueError):
            lsg_mask(seq_len, LsgConfig())
        with pytest.raises(ValueError):
            causal_masked(seq_len)


# ---------------------------------------------------------------------------
# Worked example: 12 tokens, block 4, stride 0, 1 global
# ---------------------------------------------------------------------------

def test_worked_example_row_nine():
    cfg = LsgConfig(block_size=4, sparsity_stride=0, num_global=1, max_input_tokens=64)
    mask = lsg_mask(12, cfg)
    allowed = set(np.flatnonzero(mask[9]).tolist())
    assert allowed == {0} | set(range(4, 12))
    grid = "".join("#" if mask[9, k] else "." for k in range(12))
    assert grid == "#...########"


def test_worked_example_row_zero_sees_everything():
    cfg = LsgConfig(block_size=4, sparsity_stride=0, num_global=1, max_input_tokens=64)
    mask = lsg_mask(12, cfg)
    assert mask[0].all()
    assert mask[:, 0].all()


# ---------------------------------------------------------------------------
# Each rule vs its reference, exhaustively over a small grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seq_len", [1, 2, 5, 8, 13])
@pytest.mark.parametrize("block", [1, 3, 4])
@pytest.mark.parametrize("stride", [0, 2, 3])
@pytest.mark.parametrize("n_global", [0, 1, 2])
def test_components_match_references(seq_len, block, stride, n_global):
    """lsg_mask is the union of the references; with the other rules switched off
    (radius 0 and block 1 leave only the diagonal), each reference alone."""
    def mask(**kwargs):
        return lsg_mask(seq_len, LsgConfig(max_input_tokens=64, **kwargs))

    local = ref_local(seq_len, block, 1)
    sparse = ref_sparse(seq_len, stride, n_global)
    glob = ref_global(seq_len, n_global)
    diagonal = np.eye(seq_len, dtype=bool)
    assert np.array_equal(
        mask(block_size=block, sparsity_stride=stride, num_global=n_global, local_radius=1),
        local | sparse | glob,
    )
    assert np.array_equal(mask(block_size=block, sparsity_stride=0, num_global=0), local)
    assert np.array_equal(
        mask(block_size=1, sparsity_stride=stride, num_global=n_global, local_radius=0),
        diagonal | sparse | glob,
    )
    assert np.array_equal(
        mask(block_size=1, sparsity_stride=0, num_global=n_global, local_radius=0),
        diagonal | glob,
    )


def test_local_radius_zero_and_two():
    cfg0 = LsgConfig(block_size=2, local_radius=0, sparsity_stride=0, num_global=0)
    assert np.array_equal(lsg_mask(6, cfg0), ref_local(6, 2, 0))
    cfg2 = LsgConfig(block_size=2, local_radius=2, sparsity_stride=0, num_global=0)
    assert np.array_equal(lsg_mask(6, cfg2), ref_local(6, 2, 2))
    cfg2_all = LsgConfig(block_size=2, local_radius=2, sparsity_stride=3, num_global=1)
    assert np.array_equal(
        lsg_mask(11, cfg2_all), ref_local(11, 2, 2) | ref_sparse(11, 3, 1) | ref_global(11, 1)
    )


def test_block_covering_sequence_gives_full_attention():
    cfg = LsgConfig(block_size=32, sparsity_stride=0, num_global=0)
    assert lsg_mask(8, cfg).all()


def test_sparse_stride_one_allows_all_nonglobal_columns():
    cfg = LsgConfig(block_size=1, local_radius=0, sparsity_stride=1, num_global=2,
                    max_input_tokens=64)
    m = lsg_mask(6, cfg)
    assert np.array_equal(m, ref_sparse(6, 1, 2) | ref_global(6, 2))
    assert m[2:, 2:].all()


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

def test_every_row_has_an_allowed_key():
    for seq_len in (1, 7, 20):
        for cfg in (
            LsgConfig(block_size=4, sparsity_stride=0, num_global=0, max_input_tokens=64),
            LsgConfig(block_size=2, sparsity_stride=3, num_global=1, max_input_tokens=64),
        ):
            assert lsg_mask(seq_len, cfg).any(axis=1).all()


def test_local_and_global_components_are_symmetric():
    """Without sparse links the mask is local | global, so it is symmetric; with them it is not."""
    cfg = LsgConfig(block_size=3, sparsity_stride=0, num_global=2, max_input_tokens=64)
    m = lsg_mask(11, cfg)
    assert np.array_equal(m, m.T)
    strided = lsg_mask(11, LsgConfig(block_size=3, sparsity_stride=2, num_global=2,
                                     max_input_tokens=64))
    assert not np.array_equal(strided, strided.T)


def test_diagonal_always_allowed():
    cfg = LsgConfig(block_size=5, sparsity_stride=0, num_global=0, max_input_tokens=64)
    assert np.diag(lsg_mask(17, cfg)).all()


def test_two_hop_reachability_with_global_token():
    """With >= 1 global token, any position reaches any other within two hops."""
    cfg = LsgConfig(block_size=2, sparsity_stride=0, num_global=1, max_input_tokens=64)
    m = lsg_mask(16, cfg)
    assert not m.all()  # genuinely sparse at one hop
    two_hop = (m.astype(int) @ m.astype(int)) > 0
    assert two_hop.all()


def test_causal_mask():
    masked = causal_masked(4)
    assert masked.dtype == bool
    for q in range(4):
        for k in range(4):
            assert masked[q, k] == (k > q)


# ---------------------------------------------------------------------------
# Density and bias helpers
# ---------------------------------------------------------------------------

def test_mask_density():
    assert mask_density(np.ones((3, 3), dtype=bool)) == 1.0
    assert mask_density(np.zeros((2, 2), dtype=bool)) == 0.0
    assert mask_density(np.eye(4, dtype=bool)) == 0.25


def test_density_drops_as_sequence_grows():
    cfg = LsgConfig(block_size=4, sparsity_stride=0, num_global=1, max_input_tokens=1024)
    assert mask_density(lsg_mask(256, cfg)) < mask_density(lsg_mask(16, cfg))
    assert mask_density(lsg_mask(256, cfg)) < 0.1


def test_mask_to_bias():
    mask = np.array([[True, False], [False, True]])
    bias = mask_to_bias(mask)
    assert bias[0, 0] == 0.0 and bias[1, 1] == 0.0
    assert np.isneginf(bias[0, 1]) and np.isneginf(bias[1, 0])


def shuffled_lengths(seed, top=300):
    lengths = list(range(1, top + 1))
    random.Random(seed).shuffle(lengths)
    return lengths


def test_causal_masked_is_a_read_only_corner_of_one_table():
    lengths = shuffled_lengths(0)
    # The reference allows (q, k) by a rule on q and k alone, so its corners are
    # the references of the shorter lengths.
    want = ~ref_causal(max(lengths))
    for n in lengths:
        masked = causal_masked(n)
        assert masked.dtype == bool
        assert np.array_equal(masked, want[:n, :n]), n
        with pytest.raises(ValueError):
            masked[0, 0] = True
    # Once the table has grown past every length, all results slice that one table.
    table = causal_masked(max(lengths)).base
    assert table is not None and all(causal_masked(n).base is table for n in lengths)
    with pytest.raises(ValueError):
        causal_masked(0)


@pytest.mark.parametrize("cfg", [LsgConfig(), LsgConfig(block_size=64, sparsity_stride=8)],
                         ids=["default", "wide-blocks"])
def test_dense_masked_is_a_read_only_corner_of_one_table_per_config(cfg):
    lengths = shuffled_lengths(1)
    dense = [n for n in lengths if not lsg_layout(n, cfg).blocked]
    assert len(dense) > 100
    for n in lengths:
        masked = lsg_layout(n, cfg).dense_masked
        if n not in dense:
            assert masked is None
            continue
        assert masked.dtype == bool
        assert np.array_equal(masked, ~lsg_mask(n, cfg)), n
        with pytest.raises(ValueError):
            masked[0, 0] = True
    table = lsg_layout(max(dense), cfg).dense_masked.base
    assert table is not None
    assert all(lsg_layout(n, cfg).dense_masked.base is table for n in dense)
    assert table is not causal_masked(1).base


# ---------------------------------------------------------------------------
# Blocked layout
# ---------------------------------------------------------------------------

def layout_mask(layout):
    """Scatter the (query, key) pairs the blocked layout computes into an n x n grid.

    Fails if a pair would be scored twice.
    """
    n, block = layout.n, layout.block_size
    allowed = np.zeros((n, n), dtype=bool)
    allowed[: layout.num_global] = True
    open_slots = ~layout.masked[:, 0, :]
    for q in range(layout.num_global, n):
        b = q // block
        for slot in np.flatnonzero(open_slots[b]):
            if slot < layout.window:
                key = (b - layout.radius) * block + slot
            else:
                key = layout.extra[slot - layout.window]
            assert not allowed[q, key], (q, key)
            allowed[q, key] = True
    return allowed


@pytest.mark.parametrize("radius", [0, 1, 2])
def test_lsg_layout_reproduces_lsg_mask(radius):
    for seq_len, block, stride, n_global in CRITERION_3_GRID:
        cfg = LsgConfig(block_size=block, sparsity_stride=stride, num_global=n_global,
                        max_input_tokens=64, local_radius=radius)
        layout = lsg_layout(seq_len, cfg)
        assert layout.masked.shape == (layout.n_blocks, 1, layout.window + len(layout.extra))
        assert layout.masked.dtype == bool
        assert np.array_equal(layout_mask(layout), lsg_mask(seq_len, cfg)), cfg


def test_lsg_layout_is_cached_and_read_only():
    small, large = lsg_layout(40, LsgConfig()), lsg_layout(400, LsgConfig())
    assert lsg_layout(40, LsgConfig()) is small
    assert not small.blocked and large.blocked and large.dense_masked is None
    assert np.array_equal(small.dense_masked, ~lsg_mask(40, LsgConfig()))
    for array in (small.dense_masked, large.masked, large.extra):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1


def test_lsg_layout_size_rule_at_default_config():
    """Blocked only when it computes at most half of the n * n dense scores.

    Block padding makes the count jump at each multiple of the block size, so
    the rule switches back and forth between 205 and 227 tokens; 61-91 tokens
    (short dialogues) stay dense, 401-513 (long ones) are all blocked.
    """
    cfg = LsgConfig()
    blocked = [n for n in range(1, cfg.max_input_tokens + 2) if lsg_layout(n, cfg).blocked]
    assert blocked == [*range(205, 209), *range(216, 225), *range(227, 514)]
    for n in (204, 205, 208, 209, 226, 227):
        layout = lsg_layout(n, cfg)
        assert layout.blocked == (2 * layout.computed_scores <= n * n)
    at_512 = lsg_layout(512, cfg)
    # 32 blocks of 16 queries x (48 local + 1 global + 128 strided keys) + 1 global row.
    assert at_512.computed_scores == 32 * 16 * (48 + 129) + 512
