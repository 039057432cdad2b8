"""Attention patterns: the local/sparse/global encoder mask and the causal decoder mask.

`lsg_mask` unions three rules: local (the query's and key's blocks of
`block_size` tokens are at most `local_radius` blocks apart), sparse (the key
is num_global + i * sparsity_stride; stride 0 disables) and global (the query
or the key is one of the first `num_global` positions). `lsg_layout` lays it
out block by block for the block-sparse kernel.

The model reads every mask as a boolean "masked" array, True where a score is
set to -inf, never as a float64 0/-inf bias. Both masks allow (q, k) by a rule
on q and k alone, so the masked array over n tokens is the top-left n x n
corner of one read-only table per mask (per `LsgConfig` for `lsg_mask`), not
one array per length; see `_grown_table`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import LsgConfig


def _check_seq_len(seq_len: int) -> None:
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")


def lsg_mask(seq_len: int, cfg: LsgConfig) -> np.ndarray:
    """(seq_len, seq_len) bool mask: the union of the local, sparse and global rules."""
    _check_seq_len(seq_len)
    positions = np.arange(seq_len)
    blocks = positions // cfg.block_size
    is_global = positions < cfg.num_global
    open_keys = is_global.copy()
    if cfg.sparsity_stride:
        open_keys |= (positions - cfg.num_global) % cfg.sparsity_stride == 0
    local = np.abs(blocks[:, None] - blocks[None, :]) <= cfg.local_radius
    return local | is_global[:, None] | open_keys[None, :]


def mask_density(mask: np.ndarray) -> float:
    """Fraction of allowed (query, key) pairs."""
    return float(np.asarray(mask, dtype=bool).mean())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _grown_table(tables: dict, key, size: int, build: Callable) -> np.ndarray:
    """`tables[key]`, read-only. A missing or shorter table is rebuilt by `build(rows, key)`
    at `size` rows, or at twice its old length if more, so rebuilds stay logarithmic in size."""
    table = tables.get(key)
    if table is None or len(table) < size:
        rows = size if table is None else max(size, 2 * len(table))
        table = tables[key] = _read_only(build(rows, key))
    return table


def _masked_table(size: int, cfg: LsgConfig | None) -> np.ndarray:
    """The pairs the causal mask (cfg None) or `lsg_mask(size, cfg)` disallows."""
    return ~(np.tri(size, dtype=bool) if cfg is None else lsg_mask(size, cfg))


# Masked tables of the causal mask (key None) and of `lsg_mask` (keyed by its LsgConfig).
_MASKED_TABLES: dict[LsgConfig | None, np.ndarray] = {}


def _masked_corner(seq_len: int, cfg: LsgConfig | None) -> np.ndarray:
    """Read-only top-left seq_len x seq_len corner of the causal (cfg None) or LSG masked table."""
    _check_seq_len(seq_len)
    return _grown_table(_MASKED_TABLES, cfg, seq_len, _masked_table)[:seq_len, :seq_len]


def causal_masked(seq_len: int) -> np.ndarray:
    """Causal mask as a bool, True where key > query; a read-only corner of one table."""
    return _masked_corner(seq_len, None)


@dataclass(frozen=True, eq=False)
class LsgLayout:
    """Index layout of block-sparse LSG attention over `n` tokens; arrays are read-only.

    Queries are cut into `n_blocks` blocks of `block_size`. Query block b reads
    `window` local keys, those of blocks b - radius .. b + radius (key slot w
    is position (b - radius) * block_size + w), then the shared `extra` keys:
    the global prefix and every stride-th key. `masked` (n_blocks, 1, window +
    len(extra)) is a bool per block and key slot, True where the slot's score is
    set to -inf: local slots outside 0..n-1 and every extra key inside the
    block's own window, so no key is counted twice. The first `num_global`
    query rows attend to all n keys.

    `blocked` is the size rule: the blocked kernel runs only when it computes
    at most half of the n * n dense scores. Otherwise attention is dense,
    masked by `dense_masked`, `~lsg_mask(n, cfg)` (None when `blocked`).
    """

    n: int
    cfg: LsgConfig
    num_global: int
    extra: np.ndarray
    masked: np.ndarray

    @property
    def block_size(self) -> int:
        return self.cfg.block_size

    @property
    def radius(self) -> int:
        return self.cfg.local_radius

    @property
    def dense_masked(self) -> np.ndarray | None:
        """A read-only corner of the config's shared table, sliced per call so that a
        cached layout never keeps an outgrown table alive."""
        return None if self.blocked else _masked_corner(self.n, self.cfg)

    @property
    def n_blocks(self) -> int:
        return -(-self.n // self.block_size)

    @property
    def window(self) -> int:
        return (2 * self.radius + 1) * self.block_size

    @property
    def computed_scores(self) -> int:
        """Scores the blocked kernel computes: padded block rows plus dense global rows."""
        rows = self.n_blocks * self.block_size
        return rows * (self.window + len(self.extra)) + self.num_global * self.n

    @property
    def blocked(self) -> bool:
        return 2 * self.computed_scores <= self.n * self.n


@functools.lru_cache(maxsize=128)
def lsg_layout(seq_len: int, cfg: LsgConfig) -> LsgLayout:
    """Blocked layout of `lsg_mask(seq_len, cfg)`: allows exactly the same (query, key) pairs."""
    _check_seq_len(seq_len)
    block, radius = cfg.block_size, cfg.local_radius
    num_global = min(cfg.num_global, seq_len)
    n_blocks = -(-seq_len // block)
    strided = range(cfg.num_global, seq_len, cfg.sparsity_stride) if cfg.sparsity_stride else ()
    extra = np.array([*range(num_global), *strided], dtype=np.intp)
    blocks = np.arange(n_blocks)[:, None]
    local_keys = (blocks - radius) * block + np.arange((2 * radius + 1) * block)
    local_out = (local_keys < 0) | (local_keys >= seq_len)
    extra_in_window = np.abs(extra // block - blocks) <= radius
    return LsgLayout(
        n=seq_len,
        cfg=cfg,
        num_global=num_global,
        extra=_read_only(extra),
        masked=_read_only(np.hstack([local_out, extra_in_window])[:, None, :]),
    )
