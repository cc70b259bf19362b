import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNDECODABLE_JSON
from stanforge import checkpoint
from stanforge.baselines import MODEL_KINDS, LinearNetwork, LinearRegressionModel, fit_linear_regression
from stanforge.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from stanforge.data import ScalerParams
from stanforge.numerics import affine_forward
from stanforge.stan_core import NetworkSpec, StanNetwork


def _perturbed_stan(seed=0):
    net = StanNetwork(NetworkSpec(6, 5, 2, 2), seed=seed)
    rng = np.random.default_rng(seed + 1)
    for i in range(2):
        net.params[f"layers.{i}.theta"] = rng.standard_normal(5).astype(np.float32)
        net.params[f"layers.{i}.c"] = rng.standard_normal(5).astype(np.float32)
    return net


def _random_model(kind, seed=0):
    """A registry-built model (lookback 6, horizon 2, 5 units, depth 2) with
    every parameter redrawn, so no gate, coefficient or intercept is trivial."""
    model = MODEL_KINDS[kind].build(6, 2, 5, 2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for arr in model.params.values():
        arr[...] = rng.standard_normal(arr.shape)
    return model


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_round_trip_is_bit_identical(tmp_path, kind):
    model = _random_model(kind)
    path = save_checkpoint(tmp_path / "model.json", model)
    loaded, scaler = load_checkpoint(path)
    assert scaler is None
    assert type(loaded) is type(model)
    assert loaded.kind == kind
    assert set(loaded.params) == set(model.params)
    for name in model.params:
        assert np.array_equal(loaded.params[name], model.params[name])
    x = np.random.default_rng(5).standard_normal((7, 6))
    assert np.array_equal(loaded.predict(x), model.predict(x))


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_checkpoint_records_the_dtype_and_reloads_its_bits(tmp_path, kind):
    model = _random_model(kind)
    path = save_checkpoint(tmp_path / "m.json", model)
    assert json.loads(path.read_text(encoding="utf-8"))["dtype"] == ("float64" if kind == "linreg" else "float32")
    loaded, _ = load_checkpoint(path)
    assert loaded.dtype == model.dtype
    assert loaded.params.vector.tobytes() == model.params.vector.tobytes()


def test_a_float64_network_reloads_as_float64(tmp_path):
    model = StanNetwork(NetworkSpec(6, 5, 2, 2), seed=4, dtype=np.float64)
    loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "m.json", model))
    assert loaded.dtype == np.float64 and loaded.params.vector.tobytes() == model.params.vector.tobytes()


# A stan checkpoint written by hand in the layout saved before checkpoints had
# a ``dtype``, and the predictions the float64 network of that layout made of
# _PARENT_X, read off with that code.
_PARENT_FORMAT = {
    "format": "stanforge-checkpoint", "version": 1, "kind": "stan",
    "spec": {"lookback": 2, "units": 2, "depth": 1, "horizon": 1},
    "param_order": ["layers.0.W", "layers.0.b", "layers.0.c", "layers.0.gamma", "layers.0.phi", "layers.0.theta",
                    "proj.W", "proj.b"],
    "params": {
        "layers.0.W": {"shape": [2, 2], "data": [0.5, -0.25, 1.0, 0.75]},
        "layers.0.b": {"shape": [2], "data": [0.1, -0.2]},
        "layers.0.c": {"shape": [2], "data": [0.1, -0.1]},
        "layers.0.gamma": {"shape": [2], "data": [1.5, 2.0]},
        "layers.0.phi": {"shape": [2], "data": [1.0, 0.5]},
        "layers.0.theta": {"shape": [2], "data": [0.3, -0.7]},
        "proj.W": {"shape": [2, 1], "data": [0.8, -0.6]},
        "proj.b": {"shape": [1], "data": [0.05]},
    },
    "scaler": None,
}
_PARENT_X = [[0.5, -1.0], [1.5, 0.25], [-2.0, 3.0]]
_PARENT_PRED = [-0.14750000000000008, 1.262089661715122, 2.5107779153512952]


def test_a_file_without_a_dtype_loads_as_float64_and_predicts_its_old_bits(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps(_PARENT_FORMAT), encoding="utf-8")
    model, scaler = load_checkpoint(path)
    assert scaler is None and model.dtype == np.float64
    assert model.predict(np.array(_PARENT_X)).ravel().tolist() == _PARENT_PRED


@pytest.mark.parametrize("data", [[math.nan], [math.inf], [1e39, math.nan], [-math.inf, 1e39]],
                         ids=["nan", "inf", "nan-beside-past-range", "inf-beside-past-range"])
def test_non_finite_values_are_named_before_the_range_check(tmp_path, data):
    path = tmp_path / "m.json"
    doc = json.loads(save_checkpoint(path, LinearNetwork(3, 1, seed=8)).read_text(encoding="utf-8"))
    doc["params"]["proj.W"]["data"][:len(data)] = data
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CheckpointError, match=r"^m\.json: parameter 'proj\.W' has non-finite values$"):
        load_checkpoint(path)


def test_values_past_float32_range_are_refused_for_a_float32_model_by_name(tmp_path):
    path = tmp_path / "m.json"
    doc = json.loads(save_checkpoint(path, LinearNetwork(3, 1, seed=8)).read_text(encoding="utf-8"))
    doc["params"]["proj.b"]["data"] = [1e39]
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CheckpointError, match=r"^m\.json: parameter 'proj\.b' has values past float32 range, up to magnitude 1e\+39$"):
        load_checkpoint(path)
    doc["dtype"] = "float64"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert load_checkpoint(path)[0].params["proj.b"].tolist() == [1e39]
    for bad in ("float16", None, 32):
        doc["dtype"] = bad
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(CheckpointError, match="dtype must be one of"):
            load_checkpoint(path)


@pytest.mark.parametrize("kind", [*MODEL_KINDS, "stan-45-64-3"])
def test_saved_bytes_are_what_the_streaming_encoder_writes(tmp_path, kind):
    model = (_random_model(kind) if kind in MODEL_KINDS
             else StanNetwork(NetworkSpec(45, 64, 3, 1), seed=0))  # the benchmark's size
    path = save_checkpoint(tmp_path / "m.json", model, ScalerParams(mean=1234.56789, std=98.7654321))
    stream = io.StringIO()  # ``json.dump`` encodes in pure Python, chunk by chunk
    json.dump(json.loads(path.read_text(encoding="utf-8")), stream, allow_nan=False)
    stream.write("\n")
    assert path.read_bytes() == stream.getvalue().encode()


def test_scaler_round_trips(tmp_path):
    model = LinearNetwork(4, 1, seed=7)
    scaler = ScalerParams(mean=1234.56789, std=98.7654321)
    _, loaded = load_checkpoint(save_checkpoint(tmp_path / "m.json", model, scaler))
    assert loaded == scaler


def test_checkpoint_is_self_describing(tmp_path):
    path = save_checkpoint(tmp_path / "m.json", _perturbed_stan())
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == "stanforge-checkpoint"
    assert doc["version"] == 1
    assert doc["kind"] == "stan"
    assert doc["spec"] == {"lookback": 6, "units": 5, "depth": 2, "horizon": 2}
    assert doc["param_order"] == sorted(doc["params"])
    first = doc["param_order"][0]
    entry = doc["params"][first]
    assert len(entry["data"]) == int(np.prod(entry["shape"]))


def test_load_rejects_non_checkpoints(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(bad)
    other = tmp_path / "other.json"
    other.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(CheckpointError, match="stanforge-checkpoint"):
        load_checkpoint(other)


@pytest.mark.parametrize("content,reason", UNDECODABLE_JSON)
def test_a_file_that_does_not_decode_is_a_checkpoint_error_naming_it(tmp_path, content, reason):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(CheckpointError) as raised:
        load_checkpoint(path)
    assert str(raised.value).startswith(f"m.json: not valid JSON: {reason}")


def test_load_rejects_unknown_version_and_kind(tmp_path):
    model = LinearNetwork(3, 1, seed=8)
    path = save_checkpoint(tmp_path / "m.json", model)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)
    doc["version"] = 1
    doc["kind"] = "transformer"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CheckpointError, match="transformer"):
        load_checkpoint(path)


def _v1_linreg_doc(weights, scaler):
    """A ``linreg`` checkpoint as format v1 wrote it before ``linreg`` was a
    layer stack: one ``weights`` array, intercept in row 0."""
    return {
        "format": "stanforge-checkpoint", "version": 1, "kind": "linreg",
        "spec": {"lookback": weights.shape[0] - 1, "horizon": weights.shape[1]},
        "param_order": ["weights"],
        "params": {"weights": {"shape": list(weights.shape), "data": weights.ravel().tolist()}},
        "scaler": {"mean": scaler.mean, "std": scaler.std},
    }


def test_v1_linreg_checkpoint_loads_and_predicts_bit_identically(tmp_path):
    rng = np.random.default_rng(11)
    x, y = rng.standard_normal((300, 45)), rng.standard_normal((300, 3))
    weights, scaler = fit_linear_regression(x, y), ScalerParams(mean=1.5, std=2.5)
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(_v1_linreg_doc(weights, scaler)) + "\n", encoding="utf-8")
    loaded, loaded_scaler = load_checkpoint(path)
    assert type(loaded) is LinearRegressionModel and loaded_scaler == scaler
    assert (loaded.lookback, loaded.horizon, loaded.num_params()) == (45, 3, 46 * 3)
    test_x = rng.standard_normal((200, 45))
    # what the closed-form model's own ``predict`` returned before it was a stack
    want = affine_forward(test_x, weights[1:], weights[0]).tobytes()
    assert loaded.predict(test_x).tobytes() == want
    assert LinearRegressionModel.fit(x, y).predict(test_x).tobytes() == want
    # saved again, it is written as the stack's store and still predicts the same bits
    again, _ = load_checkpoint(save_checkpoint(tmp_path / "again.json", loaded))
    assert sorted(again.params) == ["proj.W", "proj.b"]
    assert again.predict(test_x).tobytes() == want


def test_save_rejects_foreign_objects(tmp_path):
    with pytest.raises(CheckpointError, match="dict"):
        save_checkpoint(tmp_path / "m.json", {"not": "a model"})


# Each mutation turns a valid checkpoint of the kind into a malformed one.
MALFORMED = {
    "missing-shape": ("stan", lambda d: d["params"]["proj.W"].pop("shape")),
    "missing-spec-lookback": ("stan", lambda d: d["spec"].pop("lookback")),
    "spec-not-positive": ("mlp", lambda d: d["spec"].update(units=0)),
    "spec-of-another-kind": ("linear", lambda d: d["spec"].update(units=5, depth=2)),
    "depth-past-the-stored-arrays": ("mlp", lambda d: d["spec"].update(depth=10**30)),
    "units-past-the-stored-arrays": ("stan", lambda d: d["spec"].update(units=10**9)),  # refused before allocating
    "params-as-list": ("mlp", lambda d: d.update(params=list(d["params"].values()))),
    "missing-param": ("mlp", lambda d: d["params"].pop("layers.1.b")),
    "unexpected-param": ("linear", lambda d: d["params"].update(extra={"shape": [1], "data": [0.0]})),
    "shape-does-not-match-data": ("linear", lambda d: d["params"]["proj.W"].update(shape=[3, 3])),
    "data-does-not-fill-shape": ("linear", lambda d: d["params"]["proj.W"]["data"].pop()),
    "non-numeric-data": ("mlp", lambda d: d["params"]["proj.b"].update(data=["x", "y"])),
    "nan-in-data": ("stan", lambda d: d["params"]["proj.b"]["data"].__setitem__(0, float("nan"))),
    "integer-past-float-range": ("linear", lambda d: d["params"]["proj.W"]["data"].__setitem__(0, 10**400)),
    "linreg-without-proj.W": ("linreg", lambda d: d["params"].pop("proj.W")),
    "v1-linreg-weights-without-intercept-row": (
        "linreg", lambda d: d.update(params={"weights": {"shape": [6, 2], "data": [0.0] * 12}})),
    "v1-linreg-weights-without-rows": ("linreg", lambda d: d.update(params={"weights": {"shape": [0, 2], "data": []}})),
    "v1-linreg-weights-beside-the-stack": (
        "linreg", lambda d: d["params"].update(weights={"shape": [7, 2], "data": [0.0] * 14})),
    "scaler-without-std": ("linear", lambda d: d["scaler"].pop("std")),
    "scaler-as-list": ("linreg", lambda d: d.update(scaler=[1.0, 2.0])),
    "bool-in-data": ("linear", lambda d: d["params"]["proj.b"].update(data=[True, 0.5])),
    "number-as-text-in-data": ("linear", lambda d: d["params"]["proj.b"].update(data=["0.5", "0.5"])),
    "padded-number-as-text-in-data": ("linear", lambda d: d["params"]["proj.b"].update(data=[" 1e3 ", 0.5])),
    "nested-data": ("linear", lambda d: d["params"]["proj.b"].update(data=[[0.5], [0.5]])),
    "bool-scaler-mean": ("linear", lambda d: d["scaler"].update(mean=True)),
    "scaler-integer-past-float-range": ("linear", lambda d: d["scaler"].update(mean=10**400)),
}


@pytest.mark.parametrize("kind,mutate", MALFORMED.values(), ids=list(MALFORMED))
def test_load_rejects_malformed_checkpoints(tmp_path, kind, mutate):
    path = save_checkpoint(tmp_path / "m.json", _random_model(kind), ScalerParams(mean=1.0, std=2.0))
    doc = json.loads(path.read_text(encoding="utf-8"))
    mutate(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CheckpointError, match="m.json"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_save_refuses_non_finite_parameters_and_keeps_earlier_file(tmp_path, bad):
    model = _random_model("mlp")
    path = save_checkpoint(tmp_path / "m.json", model)
    before = path.read_bytes()
    model.params["proj.b"][0] = bad
    with pytest.raises(CheckpointError, match="non-finite"):
        save_checkpoint(path, model)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_failed_write_leaves_earlier_file_and_no_temp(tmp_path, monkeypatch):
    path = save_checkpoint(tmp_path / "m.json", _random_model("linear", seed=1))
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(checkpoint.os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, _random_model("linear", seed=2))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.json"]


def test_oversized_spec_is_refused_without_building_the_model(tmp_path):
    # 1500 units at depth 2 would be two 18 MB weight matrices per fresh build
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "format": "stanforge-checkpoint", "version": 1, "kind": "stan",
        "spec": {"lookback": 24, "units": 1500, "depth": 2, "horizon": 1},
        "params": {}, "scaler": None,
    }), encoding="utf-8")
    assert path.stat().st_size == 161
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="parameter store does not match StanNetwork"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ------------------------------------------------------------------ fuzzing --

_REPLACEMENTS = [None, "x", [], [1.0, 2.0], True, False, 1e308, -1e308, 10**30, 10**400]


def _json_paths(node, prefix=()):
    """Every key path into a decoded checkpoint; of a list, its first three items."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node[:3])
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _json_paths(child, prefix + (key,))


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(MODEL_KINDS)),
    scaled=st.booleans(),
    how=st.sampled_from(["flip", "truncate", "replace"]),
    edits=st.lists(st.tuples(st.integers(0, 2**32), st.integers(1, 255)), min_size=1, max_size=4),
    value=st.sampled_from(_REPLACEMENTS),
)
def test_damaged_checkpoint_loads_or_raises_checkpoint_error(kind, scaled, how, edits, value):
    """Flipped bytes, a truncated file or any value replaced by a value of
    another type or range: the load raises CheckpointError or returns a
    model, never another exception."""
    with tempfile.TemporaryDirectory() as tmp:
        path = save_checkpoint(Path(tmp) / "m.json", _random_model(kind),
                               ScalerParams(mean=1.5, std=2.5) if scaled else None)
        raw = path.read_bytes()
        if how == "flip":
            damaged = bytearray(raw)
            for at, mask in edits:
                damaged[at % len(raw)] ^= mask
        elif how == "truncate":
            damaged = raw[: edits[0][0] % len(raw)]
        else:
            doc = json.loads(raw)
            paths = list(_json_paths(doc))
            where = paths[edits[0][0] % len(paths)]
            node = doc
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = value
            damaged = json.dumps(doc).encode()
        path.write_bytes(bytes(damaged))
        try:
            model, _ = load_checkpoint(path)
        except CheckpointError:
            return
    assert model.kind in MODEL_KINDS
