"""Desk-scale encoder-decoder transformer with local/sparse/global encoder attention."""

from ..config import LsgConfig, ModelConfig, TrainConfig
from .masks import lsg_mask, mask_density
from .vocab import (
    BOS_ID,
    EOS_ID,
    GLOBAL_ID,
    RESERVED_TOKENS,
    UNK_ID,
    EmptyCorpus,
    Vocab,
    build_vocab,
)
from .model import SequenceTooLong, TinyModel, init_model
from .train import (
    EmptyTrainingSet,
    NonFiniteDecode,
    NonFiniteLoss,
    generate,
    grad_check,
    train,
)
from .checkpoint import Checkpoint, MalformedCheckpoint, load_checkpoint, save_model

__all__ = [
    "LsgConfig",
    "lsg_mask",
    "mask_density",
    "BOS_ID",
    "EOS_ID",
    "GLOBAL_ID",
    "UNK_ID",
    "RESERVED_TOKENS",
    "EmptyCorpus",
    "Vocab",
    "build_vocab",
    "ModelConfig",
    "SequenceTooLong",
    "TinyModel",
    "init_model",
    "EmptyTrainingSet",
    "NonFiniteDecode",
    "NonFiniteLoss",
    "TrainConfig",
    "generate",
    "grad_check",
    "train",
    "Checkpoint",
    "MalformedCheckpoint",
    "load_checkpoint",
    "save_model",
]
