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

from ..errors import ChartsumError
from .masks import LsgConfig
from .model import ModelConfig, TinyModel, _param_shapes
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


def _inference_settings(path: Path, payload: dict) -> tuple[LsgConfig, int]:
    """The `lsg` block and decode cap of a payload, fully checked."""
    lsg = payload["lsg"]
    names = {f.name for f in fields(LsgConfig)}
    if not isinstance(lsg, dict) or lsg.keys() != names or not all(map(_is_int, lsg.values())):
        raise MalformedCheckpoint(
            f"{path}: lsg must be an object of the integers {', '.join(sorted(names))}"
        )
    cap = payload["max_summary_tokens"]
    if not _is_int(cap) or cap < 1:
        raise MalformedCheckpoint(f"{path}: max_summary_tokens must be an integer >= 1, got {cap!r}")
    try:
        return LsgConfig(**lsg), cap
    except ValueError as exc:
        raise MalformedCheckpoint(f"{path}: lsg: {exc}") from exc


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
    lsg, max_summary_tokens = _inference_settings(path, payload)
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
        if not np.isfinite(params[name]).all():
            raise MalformedCheckpoint(f"{path}: parameter {name!r} holds a non-finite value")
    model = TinyModel(config=config, vocab=vocab, params=params)
    return Checkpoint(model=model, lsg=lsg, max_summary_tokens=max_summary_tokens)
