"""Versioned JSON checkpoints with bit-exact float64 parameter round trips."""

from __future__ import annotations

import base64
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..errors import ChartsumError
from .model import ModelConfig, TinyModel, _param_shapes
from .vocab import Vocab

FORMAT_VERSION = 1


class MalformedCheckpoint(ChartsumError):
    pass


def save_model(model: TinyModel, path: str | Path) -> None:
    payload = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "vocab": list(model.vocab.id_to_token),
        "params": {
            name: {
                "shape": list(value.shape),
                "data": base64.b64encode(np.ascontiguousarray(value, dtype=np.float64).tobytes()).decode("ascii"),
            }
            for name, value in model.params.items()
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> TinyModel:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedCheckpoint(f"{path}: not a valid checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise MalformedCheckpoint(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise MalformedCheckpoint(f"{path}: unsupported format version {version!r}")
    for key in ("model_config", "vocab", "params"):
        if key not in payload:
            raise MalformedCheckpoint(f"{path}: missing key {key!r}")
    tokens = payload["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(token, str) for token in tokens):
        raise MalformedCheckpoint(f"{path}: vocab must be a list of strings")
    try:
        config = ModelConfig(**payload["model_config"])
        vocab = Vocab(id_to_token=tuple(tokens))
        params = {}
        for name, record in payload["params"].items():
            raw = base64.b64decode(record["data"])
            shape = tuple(record["shape"])
            params[name] = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    except (AttributeError, TypeError, ValueError, KeyError) as exc:
        raise MalformedCheckpoint(f"{path}: {exc}") from exc
    expected = _param_shapes(config, vocab.size)
    if params.keys() != expected.keys():
        raise MalformedCheckpoint(
            f"{path}: missing parameters {sorted(expected.keys() - params.keys())}, "
            f"unexpected parameters {sorted(params.keys() - expected.keys())}"
        )
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise MalformedCheckpoint(
                f"{path}: parameter {name!r} has shape {params[name].shape}, expected {shape}"
            )
    return TinyModel(config=config, vocab=vocab, params=params)
