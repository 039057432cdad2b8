"""Desk-scale encoder-decoder transformer with local/sparse/global encoder attention."""

from .masks import (
    LsgConfig,
    causal_mask,
    global_mask,
    lsg_mask,
    local_mask,
    mask_density,
    sparse_mask,
)
from .vocab import (
    BOS_ID,
    EOS_ID,
    GLOBAL_ID,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    EmptyCorpus,
    Vocab,
    build_vocab,
)
from .model import (
    DimensionMismatch,
    ModelConfig,
    SequenceTooLong,
    TinyModel,
    init_model,
)
from .train import (
    EmptyTrainingSet,
    NonFiniteLoss,
    TrainConfig,
    generate,
    grad_check,
    train,
)
from .checkpoint import MalformedCheckpoint, load_model, save_model

__all__ = [
    "LsgConfig",
    "causal_mask",
    "global_mask",
    "lsg_mask",
    "local_mask",
    "mask_density",
    "sparse_mask",
    "BOS_ID",
    "EOS_ID",
    "GLOBAL_ID",
    "PAD_ID",
    "UNK_ID",
    "RESERVED_TOKENS",
    "EmptyCorpus",
    "Vocab",
    "build_vocab",
    "DimensionMismatch",
    "ModelConfig",
    "SequenceTooLong",
    "TinyModel",
    "init_model",
    "EmptyTrainingSet",
    "NonFiniteLoss",
    "TrainConfig",
    "generate",
    "grad_check",
    "train",
    "MalformedCheckpoint",
    "load_model",
    "save_model",
]
