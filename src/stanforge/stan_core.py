"""Smooth-transition autoregressive layers and the stacked forecasting net.

Each unit blends a linear response and a rectified response, mixed by a
logistic gate that reads the unit's own pre-activation:

    y = phi * u + theta * relu(u) * g(u)      with u = x @ w + b (per unit)
    g(u) = 1 / (1 + exp(-gamma * (u - c)))

so a layer degenerates to a plain affine map when every theta is zero and to
a rectifier-style layer when the gates saturate. ``LayerStack`` stacks
``depth`` such layers (relu layers when not gated) and finishes with an affine
projection onto the forecast horizon; the STAN, MLP and linear networks are
all layer stacks. Backward passes are derived by hand; the finite-difference
checker in ``numerics`` referees them in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import (
    ShapeError,
    affine_backward,
    affine_forward,
    as_matrix,
    relu,
    relu_grad,
)

__all__ = [
    "NetworkSpec",
    "ParamStore",
    "GradStore",
    "StanLayerParams",
    "StanLayerCache",
    "NetworkCache",
    "LayerStack",
    "StanNetwork",
    "transition_g",
    "stan_layer_forward",
    "stan_layer_backward",
    "MAX_PARAMETERS",
    "count_parameters",
    "check_size",
    "stack_shapes",
    "network_shapes",
    "check_store",
    "init_params",
    "init_network",
    "glorot_uniform",
]

# Flat name -> array mapping; layer parameters live under "layers.{i}.{field}"
# and the output projection under "proj.W" / "proj.b".
ParamStore = dict[str, np.ndarray]
GradStore = dict[str, np.ndarray]

LAYER_FIELDS = ("W", "b", "phi", "theta", "gamma", "c")

# The most trainable scalars a network may hold: 1 GiB as float64.
MAX_PARAMETERS = 2 ** 27

# Hard bounds on logistic output keep downstream g*(1-g) factors well defined
# while staying within one ulp of the ideal saturated value.
_G_LO = np.nextafter(0.0, 1.0)
_G_HI = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of one forecaster: lookback q, units d, depth L, horizon tau."""

    lookback: int
    units: int
    depth: int
    horizon: int

    def __post_init__(self):
        for field_name in ("lookback", "units", "depth", "horizon"):
            value = getattr(self, field_name)
            if int(value) != value or int(value) < 1:
                raise ValueError(f"{field_name} must be a positive integer, got {value!r}")
            object.__setattr__(self, field_name, int(value))


def transition_g(z, gamma, c):
    """Logistic transition ``1 / (1 + exp(-gamma * (z - c)))``, elementwise.

    With ``t = gamma * (z - c)`` it is evaluated branch-free as
    ``exp(min(t, 0)) / (1 + exp(-|t|))``: for ``t >= 0`` that is
    ``1 / (1 + exp(-t))`` and for ``t < 0`` it is ``exp(t) / (1 + exp(t))``,
    so no positive argument is ever exponentiated and arbitrarily large
    ``|t|`` cannot overflow. The result is clipped to the open interval
    (0, 1) at one ulp from each end, which keeps it strictly inside while
    staying within 1e-15 of the saturated limits. The shorter
    ``0.5 * (1 + tanh(t / 2))`` is not used: it differs in the last bits and
    loses relative precision deep in the negative tail, where the gate's
    ``g * (1 - g)`` slope feeds the gamma and c gradients.
    """
    t = np.asarray(
        np.asarray(gamma, dtype=np.float64)
        * (np.asarray(z, dtype=np.float64) - np.asarray(c, dtype=np.float64))
    )
    scalar = t.ndim == 0
    t = np.atleast_1d(t)  # a fresh array, reused below as the denominator
    out = np.minimum(t, 0.0)
    np.exp(out, out=out)
    np.abs(t, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    out /= t
    np.clip(out, _G_LO, _G_HI, out=out)
    return float(out[0]) if scalar else out


@dataclass
class StanLayerParams:
    """One layer's containers: dense input map plus four per-unit coefficient vectors."""

    w: np.ndarray      # (p, d) dense input map
    b: np.ndarray      # (d,)
    phi: np.ndarray    # (d,) linear path weight
    theta: np.ndarray  # (d,) gated rectified path weight
    gamma: np.ndarray  # (d,) gate steepness
    c: np.ndarray      # (d,) gate midpoint


@dataclass
class StanLayerCache:
    """Forward intermediates needed by the backward pass."""

    x: np.ndarray     # (m, p) layer input
    pre: np.ndarray   # (m, d) affine pre-activation
    act: np.ndarray   # (m, d) relu(pre)
    gate: np.ndarray | None  # (m, d) transition values; None in a relu layer


@dataclass
class NetworkCache:
    layers: list[StanLayerCache]
    proj_input: np.ndarray


def stan_layer_forward(x: np.ndarray, params: StanLayerParams) -> tuple[np.ndarray, StanLayerCache]:
    """Apply a smooth-transition layer to a batch ``x`` (m, p); returns
    ``(y, cache)`` with y of shape (m, d).

    Takes conforming float64 arrays, as ``LayerStack`` passes them.
    """
    pre = affine_forward(x, params.w, params.b)
    act = relu(pre)
    gate = transition_g(pre, params.gamma, params.c)
    y = pre * params.phi + params.theta * act * gate
    return y, StanLayerCache(x=x, pre=pre, act=act, gate=gate)


def stan_layer_backward(cache: StanLayerCache, params: StanLayerParams,
                        dy: np.ndarray) -> tuple[np.ndarray, StanLayerParams]:
    """Backward pass of one layer.

    Takes a float64 ``dy`` of the cached pre-activation's shape, as ``LayerStack`` passes it.

    With u the pre-activation, a = relu(u), g the gate and s = g*(1-g):

        dphi   = sum_m dy * u
        dtheta = sum_m dy * a * g
        dgamma = theta * sum_m dy * a * s * (u - c)
        dc     = -theta * gamma * sum_m dy * a * s
        du     = dy * (phi + theta * (relu'(u) * g + a * s * gamma))

    and (dx, dw, db) follow from the affine backward on du. Returns
    ``(dx, grads)`` with grads packed in a StanLayerParams of the same shapes.
    """
    pre, act, gate = cache.pre, cache.act, cache.gate
    slope = gate * (1.0 - gate)
    dy_act = dy * act
    weighted = dy_act * slope
    dphi = np.sum(dy * pre, axis=0)
    dtheta = np.sum(dy_act * gate, axis=0)
    dgamma = params.theta * np.sum(weighted * (pre - params.c), axis=0)
    dc = -params.theta * params.gamma * np.sum(weighted, axis=0)
    dpre = dy * (params.phi + params.theta * (relu_grad(pre) * gate + act * slope * params.gamma))
    dx, dw, db = affine_backward(cache.x, params.w, dpre)
    return dx, StanLayerParams(w=dw, b=db, phi=dphi, theta=dtheta, gamma=dgamma, c=dc)


def stack_shapes(lookback: int, horizon: int, units: int = 0, depth: int = 0,
                 gated: bool = False) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a layer stack, in ``init_params``
    order: the dense maps and biases q -> d, then d -> d for every later layer,
    the projection onto the horizon (q -> horizon at depth 0), then, when
    ``gated``, the four per-unit coefficient vectors of each layer. Draws no
    weights."""
    shapes: dict[str, tuple[int, ...]] = {}
    fan_in = lookback
    for i in range(depth):
        shapes[f"layers.{i}.W"] = (fan_in, units)
        shapes[f"layers.{i}.b"] = (units,)
        fan_in = units
    shapes["proj.W"] = (fan_in, horizon)
    shapes["proj.b"] = (horizon,)
    for i in range(depth if gated else 0):
        for field_name in LAYER_FIELDS[2:]:
            shapes[f"layers.{i}.{field_name}"] = (units,)
    return shapes


def network_shapes(spec: NetworkSpec, gated: bool = True) -> dict[str, tuple[int, ...]]:
    """``stack_shapes`` of the network ``spec`` describes; ``gated=False``
    gives the relu MLP of the same spec."""
    return stack_shapes(spec.lookback, spec.horizon, spec.units, spec.depth, gated)


def count_parameters(spec: NetworkSpec, gated: bool = True) -> int:
    """Exact number of trainable scalars in a network built from ``spec``, in
    closed form: the dense stack (q -> d, then d -> d for every later layer,
    then d -> horizon, each with its bias) plus, when ``gated``, four
    per-unit coefficient vectors in each layer."""
    q, d, depth, h = spec.lookback, spec.units, spec.depth, spec.horizon
    return (q + 1) * d + (depth - 1) * (d + 1) * d + (d + 1) * h + (4 * d * depth if gated else 0)


def check_size(spec: NetworkSpec, gated: bool = True) -> None:
    """Refuse, before anything is allocated, a network of more than
    MAX_PARAMETERS trainable scalars; the ValueError names units and depth."""
    size = count_parameters(spec, gated)
    if size > MAX_PARAMETERS:
        raise ValueError(
            f"units {spec.units} and depth {spec.depth} make {size} parameters, "
            f"above the limit of {MAX_PARAMETERS} (1 GiB as float64)"
        )


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


# Start values of the per-unit coefficients: with theta=0 an untrained layer is
# a well-conditioned affine map, and gamma=1, c=0 put its gates in the middle
# of their sensitive range for standardized inputs.
_UNIT_START = {"phi": 1.0, "theta": 0.0, "gamma": 1.0, "c": 0.0}


def init_params(shapes: dict[str, tuple[int, ...]], seed: int) -> ParamStore:
    """Fresh parameters of the given names and shapes, deterministic per seed
    (PCG64 generator): Glorot-uniform dense maps drawn in ``shapes`` order,
    zero biases, and per-unit coefficients at their start values."""
    rng = np.random.default_rng(seed)
    return {
        name: glorot_uniform(rng, *shape) if len(shape) == 2
        else np.full(shape, _UNIT_START.get(name.rsplit(".", 1)[1], 0.0))
        for name, shape in shapes.items()
    }


def init_network(spec: NetworkSpec, seed: int) -> ParamStore:
    """Fresh parameters, deterministic for a given seed. The dense maps are
    drawn before the coefficient vectors, so they equal a relu MLP's at the
    same spec and seed; phi=1, theta=0, gamma=1, c=0."""
    return init_params(network_shapes(spec), seed)


def check_store(params: ParamStore, expected: dict[str, tuple[int, ...]], owner: str) -> ParamStore:
    """Return ``params`` after checking that it holds exactly the names of
    ``expected``, each a float64 ndarray of the expected shape; ``owner``
    names the model in the messages. A missing, extra or wrong-shaped array
    raises ShapeError, any other array type or dtype TypeError."""
    if set(params) != set(expected):
        raise ShapeError(
            f"parameter store does not match {owner}: "
            f"missing {sorted(set(expected) - set(params))}, "
            f"unexpected {sorted(set(params) - set(expected))}"
        )
    for name, arr in params.items():
        if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
            raise TypeError(f"parameter '{name}' must be a float64 ndarray")
        if arr.shape != expected[name]:
            raise ShapeError(f"parameter '{name}' has shape {arr.shape}, {owner} needs {expected[name]}")
    return params


class LayerStack:
    """``depth`` hidden layers of ``units`` each, then an affine projection
    onto the forecast horizon.

    A hidden layer is a smooth-transition layer when the class is ``gated``
    and an affine map followed by ``relu`` otherwise; at depth 0 the stack is
    the projection alone. Exposes the contract shared by every trainable model
    in this package: ``params`` (flat name -> array store), ``forward(x) ->
    (pred, cache)``, ``backward(cache, dpred) -> grads``, ``predict(x)`` and
    ``num_params()``. A given store is checked against ``stack_shapes`` when
    the stack is built.
    """

    kind: ClassVar[str]
    gated: ClassVar[bool]

    def __init__(self, lookback: int, horizon: int, units: int, depth: int,
                 params: ParamStore | None, seed: int):
        self.lookback, self.horizon, self.units, self.depth = lookback, horizon, units, depth
        owner = f"{type(self).__name__}(lookback={lookback}, units={units}, depth={depth}, horizon={horizon})"
        if params is not None and depth > len(params):
            # every layer stores its own arrays; refused here, a depth read from a
            # file never makes ``stack_shapes`` list more names than the store holds
            raise ShapeError(f"parameter store does not match {owner}: {len(params)} arrays cannot hold {depth} layers")
        expected = stack_shapes(lookback, horizon, units, depth, self.gated)
        self.params = init_params(expected, seed) if params is None else check_store(params, expected, owner)

    def layer_params(self, i: int) -> StanLayerParams:
        return StanLayerParams(*(self.params[f"layers.{i}.{field_name}"] for field_name in LAYER_FIELDS))

    def forward(self, x) -> tuple[np.ndarray, NetworkCache]:
        x = as_matrix(x, "x")
        if x.shape[1] != self.lookback:
            raise ShapeError(f"input shape {x.shape} has {x.shape[1]} columns, network expects lookback {self.lookback}")
        p, h = self.params, x
        caches: list[StanLayerCache] = []
        for i in range(self.depth):
            if self.gated:
                h, cache = stan_layer_forward(h, self.layer_params(i))
            else:
                pre = affine_forward(h, p[f"layers.{i}.W"], p[f"layers.{i}.b"])
                cache = StanLayerCache(x=h, pre=pre, act=relu(pre), gate=None)
                h = cache.act
            caches.append(cache)
        pred = affine_forward(h, p["proj.W"], p["proj.b"])
        return pred, NetworkCache(layers=caches, proj_input=h)

    def backward(self, cache: NetworkCache, dpred) -> GradStore:
        dpred = as_matrix(dpred, "dpred")
        if dpred.shape != (cache.proj_input.shape[0], self.horizon):
            raise ShapeError(
                f"dpred shape {dpred.shape} does not match batch {cache.proj_input.shape[0]} "
                f"and horizon {self.horizon}"
            )
        p, grads = self.params, {}
        dh, grads["proj.W"], grads["proj.b"] = affine_backward(cache.proj_input, p["proj.W"], dpred)
        for i in reversed(range(self.depth)):
            layer = cache.layers[i]
            if self.gated:
                dh, layer_grads = stan_layer_backward(layer, self.layer_params(i), dh)
                for field_name, grad in zip(LAYER_FIELDS, vars(layer_grads).values()):
                    grads[f"layers.{i}.{field_name}"] = grad
            else:
                dh, grads[f"layers.{i}.W"], grads[f"layers.{i}.b"] = affine_backward(
                    layer.x, p[f"layers.{i}.W"], dh * relu_grad(layer.pre)
                )
        return grads

    def predict(self, x) -> np.ndarray:
        pred, _ = self.forward(x)
        return pred

    def num_params(self) -> int:
        return sum(arr.size for arr in self.params.values())


class StanNetwork(LayerStack):
    """Stacked smooth-transition forecaster: a gated ``LayerStack``."""

    kind = "stan"
    gated = True
    # the benchmark's tracer wraps only methods in the class's own __dict__
    forward, backward = LayerStack.forward, LayerStack.backward

    def __init__(self, spec: NetworkSpec, params: ParamStore | None = None, seed: int = 0):
        super().__init__(spec.lookback, spec.horizon, spec.units, spec.depth, params, seed)
