"""Boolean attention masks: block-local + strided-sparse + global-token pattern.

The additive biases the model reads are corners of shared tables: every mask
here allows (q, k) by a rule on q and k alone, so the mask over n tokens is
the top-left n x n corner of the mask over any longer sequence. `causal_bias`
and `LsgLayout.dense_bias` slice one read-only table each (one per
`LsgConfig` for the latter). A sequence longer than the table rebuilds it at
twice its length or more, so the process keeps one bias table per kind rather
than one bias per length.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..config import LsgConfig


def _check_seq_len(seq_len: int) -> None:
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")


def local_mask(seq_len: int, cfg: LsgConfig) -> np.ndarray:
    """Allow (q, k) whose size-`block_size` blocks are within `local_radius` of each other."""
    _check_seq_len(seq_len)
    blocks = np.arange(seq_len) // cfg.block_size
    return np.abs(blocks[:, None] - blocks[None, :]) <= cfg.local_radius


def sparse_mask(seq_len: int, cfg: LsgConfig) -> np.ndarray:
    """Allow every key at num_global + i*stride for all queries; stride 0 disables."""
    _check_seq_len(seq_len)
    if cfg.sparsity_stride == 0:
        return np.zeros((seq_len, seq_len), dtype=bool)
    keys = np.arange(seq_len)
    strided = (keys >= cfg.num_global) & ((keys - cfg.num_global) % cfg.sparsity_stride == 0)
    return np.broadcast_to(strided[None, :], (seq_len, seq_len)).copy()


def global_mask(seq_len: int, cfg: LsgConfig) -> np.ndarray:
    """Allow any pair where the query or the key is a global position."""
    _check_seq_len(seq_len)
    positions = np.arange(seq_len)
    is_global = positions < cfg.num_global
    return is_global[:, None] | is_global[None, :]


def lsg_mask(seq_len: int, cfg: LsgConfig) -> np.ndarray:
    """Union of the local, sparse, and global components."""
    return local_mask(seq_len, cfg) | sparse_mask(seq_len, cfg) | global_mask(seq_len, cfg)


def causal_mask(seq_len: int) -> np.ndarray:
    """Allow each query to see itself and earlier positions only."""
    _check_seq_len(seq_len)
    return np.tril(np.ones((seq_len, seq_len), dtype=bool))


def mask_density(mask: np.ndarray) -> float:
    """Fraction of allowed (query, key) pairs."""
    return float(np.asarray(mask, dtype=bool).mean())


def mask_to_bias(mask: np.ndarray) -> np.ndarray:
    """Additive attention bias: 0 where allowed, -inf where disallowed."""
    return np.where(np.asarray(mask, dtype=bool), 0.0, -np.inf)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The bias tables `_bias_corner` slices, keyed by None for the causal mask and
# by the LsgConfig for `lsg_mask`.
_BIAS_TABLES: dict[LsgConfig | None, np.ndarray] = {}


def _bias_corner(seq_len: int, cfg: LsgConfig | None) -> np.ndarray:
    """Read-only top-left seq_len x seq_len corner of the causal (cfg None) or LSG bias table."""
    _check_seq_len(seq_len)
    table = _BIAS_TABLES.get(cfg)
    if table is None or len(table) < seq_len:
        size = max(seq_len, 2 * len(table)) if table is not None else seq_len
        mask = causal_mask(size) if cfg is None else lsg_mask(size, cfg)
        table = _BIAS_TABLES[cfg] = _read_only(mask_to_bias(mask))
    return table[:seq_len, :seq_len]


def causal_bias(seq_len: int) -> np.ndarray:
    """Additive bias of `causal_mask(seq_len)`: a read-only corner of one shared table."""
    return _bias_corner(seq_len, None)


@dataclass(frozen=True, eq=False)
class LsgLayout:
    """Index layout of block-sparse LSG attention over `n` tokens; arrays are read-only.

    Queries are cut into `n_blocks` blocks of `block_size`. Query block b reads
    `window` local keys, those of blocks b - radius .. b + radius (key slot w
    is position (b - radius) * block_size + w), then the shared `extra` keys:
    the global prefix and every stride-th key. `bias` (n_blocks, 1, window +
    len(extra)) is 0 or -inf per block and key slot; it masks local slots
    outside 0..n-1 and every extra key inside the block's own window, so no key
    is counted twice. The first `num_global` query rows attend to all n keys.

    `blocked` is the size rule: the blocked kernel runs only when it computes
    at most half of the n * n dense scores. Otherwise attention is dense with
    `dense_bias`, the bias of `lsg_mask(n, cfg)` (None when `blocked`).
    """

    n: int
    cfg: LsgConfig
    num_global: int
    extra: np.ndarray
    bias: np.ndarray

    @property
    def block_size(self) -> int:
        return self.cfg.block_size

    @property
    def radius(self) -> int:
        return self.cfg.local_radius

    @property
    def dense_bias(self) -> np.ndarray | None:
        """A read-only corner of the config's shared table, sliced per call so that a
        cached layout never keeps an outgrown table alive."""
        return None if self.blocked else _bias_corner(self.n, self.cfg)

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
    local_ok = (local_keys >= 0) & (local_keys < seq_len)
    extra_ok = np.abs(extra // block - blocks) > radius
    return LsgLayout(
        n=seq_len,
        cfg=cfg,
        num_global=num_global,
        extra=_read_only(extra),
        bias=_read_only(mask_to_bias(np.hstack([local_ok, extra_ok]))[:, None, :]),
    )
