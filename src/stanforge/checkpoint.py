"""Self-describing JSON checkpoints for every kind in ``baselines.MODEL_KINDS``.

A checkpoint holds the kind, its ``spec`` (the sizes the registry builds it
from) and the named parameter arrays. Floats serialize through ``repr``
(shortest round-trip form), so a saved model reloads bit-identically. Saving
refuses non-finite values and replaces the file atomically; loading checks
every parameter's name and shape against the shapes the kind derives from
the ``spec``, without building or drawing a fresh model.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .baselines import MODEL_KINDS
from .data import ScalerParams

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

FORMAT = "stanforge-checkpoint"
VERSION = 1


class CheckpointError(ValueError):
    """File is not a readable checkpoint of a known model kind."""


def save_checkpoint(path, model, scaler: ScalerParams | None = None) -> Path:
    """Write ``model`` (and optionally its scaler) as JSON; returns the path."""
    path = Path(path)
    if getattr(model, "kind", None) not in MODEL_KINDS:
        raise CheckpointError(f"cannot checkpoint object of type {type(model).__name__}")
    kind, params = MODEL_KINDS[model.kind], model.params
    sizes = model.spec if kind.sized else model  # unsized kinds carry lookback/horizon themselves
    order = sorted(params)
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "kind": model.kind,
        "spec": {key: getattr(sizes, key) for key in kind.spec_keys},
        "param_order": order,
        "params": {
            name: {"shape": list(params[name].shape), "data": params[name].ravel().tolist()}
            for name in order
        },
        "scaler": None if scaler is None else {"mean": scaler.mean, "std": scaler.std},
    }
    tmp = path.with_name(path.name + ".tmp")  # replaces ``path`` only once complete
    try:
        with open(tmp, "w") as handle:
            json.dump(doc, handle, allow_nan=False)
            handle.write("\n")
        os.replace(tmp, path)
    except ValueError:  # json refuses NaN and infinity
        raise CheckpointError(f"{path.name}: refusing to save non-finite parameters or scaler") from None
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _load_array(name: str, entry, shape: tuple[int, ...]) -> np.ndarray:
    try:
        if entry["shape"] != list(shape):
            raise ValueError(f"shape {entry['shape']!r} does not match spec shape {list(shape)}")
        arr = np.asarray(entry["data"], dtype=np.float64).reshape(shape)
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"parameter {name!r}: {exc!r}") from None
    if not np.isfinite(arr).all():
        raise CheckpointError(f"parameter {name!r} has non-finite values")
    return arr


def _parse(doc):
    """``(model, scaler_or_None)`` from a decoded checkpoint document."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise CheckpointError(f"not a {FORMAT} file")
    if doc.get("version") != VERSION:
        raise CheckpointError(f"unsupported version {doc.get('version')!r}")
    kind = MODEL_KINDS.get(str(doc.get("kind")))
    if kind is None:
        raise CheckpointError(f"unknown model kind {doc.get('kind')!r}; expected one of {tuple(MODEL_KINDS)}")
    spec, raw, scaler = doc.get("spec"), doc.get("params"), doc.get("scaler")
    if not isinstance(spec, dict) or sorted(spec) != sorted(kind.spec_keys) \
            or not all(type(v) is int and v >= 1 for v in spec.values()):
        raise CheckpointError(f"spec must map {list(kind.spec_keys)} to positive integers, got {spec!r}")
    shapes = kind.shapes(**spec)
    if not isinstance(raw, dict) or set(raw) != set(shapes):
        raise CheckpointError(f"params must be an object of the arrays {sorted(shapes)}")
    model = kind.build(**spec, params={name: _load_array(name, raw[name], shape) for name, shape in shapes.items()})
    try:
        return model, None if scaler is None else ScalerParams(mean=scaler["mean"], std=scaler["std"])
    except (TypeError, KeyError, ValueError) as exc:
        raise CheckpointError(f"scaler needs finite 'mean' and positive 'std': {exc!r}") from None


def load_checkpoint(path):
    """Load a checkpoint; returns ``(model, scaler_or_None)``."""
    path = Path(path)
    try:
        with open(path) as handle:
            return _parse(json.load(handle))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path.name}: not valid JSON: {exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path.name}: {exc}") from None
