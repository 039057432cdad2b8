"""Versioned JSON checkpoints with bit-exact float64 weight round trips.

Besides the model's config and vocabulary, a checkpoint records the encoder
attention pattern (`lsg`) and the decode cap it was trained with: everything
inference needs. The weights are one field, `weights`: `TinyModel.flat` as
little-endian float64, base64-encoded; the config and vocabulary fix its layout.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..config import LsgConfig, ModelConfig
from ..corpus import MalformedFile, decode_utf8, parse_json, typed
from .model import TinyModel
from .vocab import Vocab

FORMAT_VERSION = 3


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: the model, the settings inference must reuse, and the
    sha256 hex digest of the bytes it was read from."""

    model: TinyModel
    lsg: LsgConfig
    max_summary_tokens: int
    sha256: str


def save_model(model: TinyModel, path: str | Path, lsg: LsgConfig, max_summary_tokens: int) -> None:
    """Write `model` with the attention pattern and decode cap that inference must reuse."""
    payload = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "lsg": asdict(lsg),
        "max_summary_tokens": max_summary_tokens,
        "vocab": list(model.vocab.id_to_token),
        "weights": base64.b64encode(model.flat.astype("<f8", copy=False).tobytes()).decode("ascii"),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def _integer_config(payload: dict, key: str, cls):
    """`cls` built from `payload[key]`, an object holding exactly cls's fields as integers."""
    block = typed(payload, key, dict)
    names = sorted(f.name for f in fields(cls))
    try:
        if sorted(block) != names:
            raise MalformedFile(key)
        values = {name: typed(block, name, int) for name in names}
    except MalformedFile:
        raise MalformedFile(f"{key} must be an object of the integers {', '.join(names)}") from None
    try:
        return cls(**values)
    except ValueError as exc:
        raise MalformedFile(f"{key}: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    data = Path(path).read_bytes()
    sha256 = hashlib.sha256(data).hexdigest()
    text = decode_utf8(data, path)
    del data  # no copy of the file is held while the weights decode
    payload = parse_json(text, path, "checkpoint")
    del text
    if not isinstance(payload, dict):
        raise MalformedFile(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION or not isinstance(version, int):
        raise MalformedFile(
            f"{path}: unsupported format version {version!r}; "
            f"retrain with `chartsum train` to write version {FORMAT_VERSION}"
        )
    try:
        config = _integer_config(payload, "model_config", ModelConfig)
        lsg = _integer_config(payload, "lsg", LsgConfig)
        max_summary_tokens = typed(payload, "max_summary_tokens", int)
        tokens = typed(payload, "vocab", list)
        weights = typed(payload, "weights", str)
    except MalformedFile as exc:
        raise MalformedFile(f"{path}: {exc}") from None
    if max_summary_tokens < 1:
        raise MalformedFile(
            f"{path}: max_summary_tokens must be an integer >= 1, got {max_summary_tokens!r}"
        )
    if not all(isinstance(token, str) for token in tokens):
        raise MalformedFile(f"{path}: vocab must be a list of strings")
    try:
        flat = np.frombuffer(base64.b64decode(weights, validate=True), dtype="<f8")
    except ValueError as exc:  # binascii.Error is a ValueError
        raise MalformedFile(f"{path}: weights are not base64 float64 values: {exc}") from None
    try:
        vocab = Vocab(id_to_token=tuple(tokens))
        model = TinyModel(config=config, vocab=vocab, flat=flat.astype(np.float64))
    except ValueError as exc:
        raise MalformedFile(f"{path}: {exc}") from None
    for name, value in model.params.items():
        if not np.isfinite(value).all():
            raise MalformedFile(f"{path}: parameter {name!r} holds a non-finite value")
    return Checkpoint(model=model, lsg=lsg, max_summary_tokens=max_summary_tokens, sha256=sha256)
