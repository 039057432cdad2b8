"""Settings of a tiny-lsg model slot: encoder attention pattern, model shape, training.

Kept outside `chartsum.tinylsg` so that building or hashing a run's settings
does not import numpy: commands that never train or decode stay light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class LsgConfig:
    """Encoder attention pattern knobs; positions 0..num_global-1 are global tokens."""

    block_size: int = 16
    sparsity_stride: int = 4
    num_global: int = 1
    max_input_tokens: int = 512
    local_radius: int = 1

    def __post_init__(self):
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")
        if self.sparsity_stride < 0:
            raise ValueError(f"sparsity_stride must be >= 0, got {self.sparsity_stride}")
        if self.num_global < 0:
            raise ValueError(f"num_global must be >= 0, got {self.num_global}")
        if self.max_input_tokens < self.block_size:
            raise ValueError(
                f"max_input_tokens ({self.max_input_tokens}) must be >= block_size"
                f" ({self.block_size})"
            )
        if self.local_radius < 0:
            raise ValueError(f"local_radius must be >= 0, got {self.local_radius}")


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
