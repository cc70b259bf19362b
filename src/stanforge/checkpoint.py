"""Self-describing JSON checkpoints for every kind in ``baselines.MODEL_KINDS``.

A checkpoint holds the kind, its ``spec`` (the sizes the registry builds it
from), the ``dtype`` the model computes in and the named parameter arrays.
Floats serialize through ``repr`` (shortest round-trip form) of their float64
value, which a float32 value converts to exactly, so a saved model reloads
bit-identically in its dtype. A file without ``dtype``, as written before
models trained in float32, loads as float64. A value past float32 range meant
for a float32 model is refused, naming its parameter. Saving
refuses non-finite values and replaces the file atomically. Loading checks
the document's structure and each array's data, then rebuilds the model
through the registry, whose store check rejects a missing, extra or
wrong-shaped parameter before any weights are allocated. A ``linreg`` file
as format v1 first wrote it, one ``weights`` array of shape
``(lookback + 1, horizon)`` with the intercept in row 0, is checked against
that shape and read as ``proj.W = weights[1:]``, ``proj.b = weights[0]``.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .baselines import MODEL_KINDS
from .data import ScalerParams
from .numerics import ShapeError

__all__ = ["CheckpointError", "save_checkpoint", "load_checkpoint"]

FORMAT = "stanforge-checkpoint"
VERSION = 1
DTYPES = ("float32", "float64")


class CheckpointError(ValueError):
    """File is not a readable checkpoint of a known model kind."""


def save_checkpoint(path, model, scaler: ScalerParams | None = None) -> Path:
    """Write ``model`` (and optionally its scaler) as JSON; returns the path."""
    path = Path(path)
    if getattr(model, "kind", None) not in MODEL_KINDS:
        raise CheckpointError(f"cannot checkpoint object of type {type(model).__name__}")
    kind, params = MODEL_KINDS[model.kind], model.params
    order = sorted(params)
    head = {
        "format": FORMAT,
        "version": VERSION,
        "kind": model.kind,
        "spec": {key: getattr(model, key) for key in kind.spec_keys},
        "dtype": params.vector.dtype.name,
        "param_order": order,
    }
    scaler_doc = None if scaler is None else {"mean": scaler.mean, "std": scaler.std}
    # The text of json.dump({**head, "params": {name: entry, ...}, "scaler": scaler_doc}),
    # made one array at a time: a one-shot encode runs the C encoder (json.dump
    # streams through a pure-Python one) and holds one array's text, not the file's.
    encode = json.JSONEncoder(allow_nan=False).encode
    tmp = path.with_name(path.name + ".tmp")  # replaces ``path`` only once complete
    try:
        with open(tmp, "w") as handle:
            handle.write(encode(head)[:-1] + ', "params": {')
            for i, name in enumerate(order):
                entry = {"shape": list(params[name].shape), "data": params[name].ravel().tolist()}
                handle.write(f'{", " if i else ""}{encode(name)}: {encode(entry)}')
            handle.write(f'}}, "scaler": {encode(scaler_doc)}}}\n')
        os.replace(tmp, path)
    except ValueError:  # json refuses NaN and infinity
        raise CheckpointError(f"{path.name}: refusing to save non-finite parameters or scaler") from None
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _load_array(name: str, entry, dtype: str) -> np.ndarray:
    try:
        shape = entry["shape"]
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"shape must be a list of non-negative integers, got {shape!r}")
        data = entry["data"]
        # JSON numbers decode as int or float; a bool, a string or a nested list is not one
        if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
            raise ValueError("data must be a flat list of numbers")
        arr = np.asarray(data, dtype=np.float64).reshape(shape)
    except (TypeError, KeyError, ValueError, OverflowError) as exc:  # OverflowError: an integer past float range
        raise CheckpointError(f"parameter {name!r}: {exc!r}") from None
    peak = float(np.abs(arr).max(initial=0.0))  # one pass: a NaN or an infinity anywhere makes it non-finite
    if not math.isfinite(peak):
        raise CheckpointError(f"parameter {name!r} has non-finite values")
    if peak > float(np.finfo(dtype).max):
        raise CheckpointError(f"parameter {name!r} has values past {dtype} range, up to magnitude {peak!r}")
    return arr.astype(dtype, copy=False)


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
    dtype = doc.get("dtype", "float64")
    if dtype not in DTYPES:
        raise CheckpointError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    if not isinstance(raw, dict):
        raise CheckpointError("params must be an object of named arrays")
    params = {name: _load_array(name, entry, dtype) for name, entry in raw.items()}
    if doc["kind"] == "linreg" and list(params) == ["weights"]:
        # format v1 stored linreg as one (lookback + 1, horizon) array, intercept in row 0
        weights, want = params["weights"], (spec["lookback"] + 1, spec["horizon"])
        if weights.shape != want:
            raise CheckpointError(f"parameter 'weights' has shape {weights.shape}, linreg needs {want}")
        params = {"proj.W": weights[1:], "proj.b": weights[0]}
    try:
        model = kind.build(**spec, params=params, dtype=dtype)
    except ShapeError as exc:
        raise CheckpointError(str(exc)) from None
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
    # a damaged byte may break the UTF-8 too, and nesting too deep to parse is a RecursionError
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise CheckpointError(f"{path.name}: not valid JSON: {exc}") from None
    except CheckpointError as exc:
        raise CheckpointError(f"{path.name}: {exc}") from None
