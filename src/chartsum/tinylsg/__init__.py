"""Desk-scale encoder-decoder transformer with local/sparse/global encoder attention."""

from ..config import LsgConfig, ModelConfig, TrainConfig
from .masks import lsg_mask, mask_density
from .vocab import Vocab, build_vocab
from .model import TinyModel, init_model
from .train import grad_check, train
from .checkpoint import load_checkpoint, save_model

__all__ = [
    "LsgConfig",
    "lsg_mask",
    "mask_density",
    "Vocab",
    "build_vocab",
    "ModelConfig",
    "TinyModel",
    "init_model",
    "TrainConfig",
    "grad_check",
    "train",
    "load_checkpoint",
    "save_model",
]
