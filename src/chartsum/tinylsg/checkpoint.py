"""Versioned JSON checkpoints with bit-exact float64 parameter round trips.

Besides the model, a checkpoint records the encoder attention pattern (`lsg`)
and the decode cap it was trained with: everything inference needs.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..config import LsgConfig, ModelConfig
from ..errors import ChartsumError
from .model import TinyModel, _param_shapes
from .vocab import Vocab

FORMAT_VERSION = 2


class MalformedCheckpoint(ChartsumError):
    pass


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: the model and the settings inference must reuse."""

    model: TinyModel
    lsg: LsgConfig
    max_summary_tokens: int


def save_model(model: TinyModel, path: str | Path, lsg: LsgConfig, max_summary_tokens: int) -> None:
    """Write `model` with the attention pattern and decode cap that inference must reuse."""
    payload = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(model.config),
        "lsg": asdict(lsg),
        "max_summary_tokens": max_summary_tokens,
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer_config(path: Path, payload: dict, key: str, cls):
    """`cls` built from `payload[key]`, an object holding exactly cls's fields as integers."""
    block = payload[key]
    names = {f.name for f in fields(cls)}
    if not isinstance(block, dict) or block.keys() != names or not all(map(_is_int, block.values())):
        raise MalformedCheckpoint(
            f"{path}: {key} must be an object of the integers {', '.join(sorted(names))}"
        )
    try:
        return cls(**block)
    except ValueError as exc:
        raise MalformedCheckpoint(f"{path}: {key}: {exc}") from exc


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedCheckpoint(f"{path}: not a valid checkpoint ({exc})") from exc
    if not isinstance(payload, dict):
        raise MalformedCheckpoint(f"{path}: expected a JSON object")
    version = payload.get("format_version")
    if not _is_int(version) or version != FORMAT_VERSION:
        raise MalformedCheckpoint(
            f"{path}: unsupported format version {version!r}; "
            f"retrain with `chartsum train` to write version {FORMAT_VERSION}"
        )
    for key in ("model_config", "lsg", "max_summary_tokens", "vocab", "params"):
        if key not in payload:
            raise MalformedCheckpoint(f"{path}: missing key {key!r}")
    config = _integer_config(path, payload, "model_config", ModelConfig)
    lsg = _integer_config(path, payload, "lsg", LsgConfig)
    max_summary_tokens = payload["max_summary_tokens"]
    if not _is_int(max_summary_tokens) or max_summary_tokens < 1:
        raise MalformedCheckpoint(
            f"{path}: max_summary_tokens must be an integer >= 1, got {max_summary_tokens!r}"
        )
    tokens = payload["vocab"]
    if not isinstance(tokens, list) or not all(isinstance(token, str) for token in tokens):
        raise MalformedCheckpoint(f"{path}: vocab must be a list of strings")
    try:
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
        if not np.isfinite(params[name]).all():
            raise MalformedCheckpoint(f"{path}: parameter {name!r} holds a non-finite value")
    model = TinyModel(config=config, vocab=vocab, params=params)
    return Checkpoint(model=model, lsg=lsg, max_summary_tokens=max_summary_tokens)
