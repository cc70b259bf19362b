"""Smooth-transition autoregressive layers and the stacked forecasting net.

Each unit blends a linear response and a rectified response, mixed by a
logistic gate that reads the unit's own pre-activation:

    y = phi * u + theta * relu(u) * g(u)      with u = x @ w + b (per unit)
    g(u) = 1 / (1 + exp(-gamma * (u - c)))

so a layer degenerates to a plain affine map when every theta is zero and to
a rectifier-style layer when the gates saturate. A network stacks ``depth``
such layers and finishes with an affine projection onto the forecast horizon.
Backward passes are derived by hand; the finite-difference checker in
``numerics`` referees them in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    "StanNetwork",
    "transition_g",
    "stan_unit_forward",
    "stan_layer_forward",
    "stan_layer_backward",
    "count_parameters",
    "dense_stack_count",
    "init_dense_stack",
    "init_network",
    "glorot_uniform",
]

# Flat name -> array mapping; layer parameters live under "layers.{i}.{field}"
# and the output projection under "proj.W" / "proj.b".
ParamStore = dict[str, np.ndarray]
GradStore = dict[str, np.ndarray]

LAYER_FIELDS = ("W", "b", "phi", "theta", "gamma", "c")

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

    Evaluated on the branch that never exponentiates a positive argument, so
    arbitrarily large ``|gamma * (z - c)|`` cannot overflow. The result is
    clipped to the open interval (0, 1) at one ulp from each end, which keeps
    it strictly inside while staying within 1e-15 of the saturated limits.
    """
    t = np.asarray(
        np.asarray(gamma, dtype=np.float64)
        * (np.asarray(z, dtype=np.float64) - np.asarray(c, dtype=np.float64))
    )
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    np.clip(out, _G_LO, _G_HI, out=out)
    return float(out[0]) if scalar else out


def stan_unit_forward(y: float, phi: float, theta: float, gamma: float, c: float) -> float:
    """Scalar unit response ``phi*y + theta*relu(y)*g(y)``."""
    g = transition_g(y, gamma, c)
    return phi * y + theta * max(y, 0.0) * g


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
    gate: np.ndarray  # (m, d) transition values


@dataclass
class NetworkCache:
    layers: list[StanLayerCache]
    proj_input: np.ndarray


def stan_layer_forward(x, params: StanLayerParams) -> tuple[np.ndarray, StanLayerCache]:
    """Apply a smooth-transition layer to a batch.

    Parameters
    ----------
    x : array, shape (m, p)
    params : StanLayerParams with w (p, d) and four (d,) vectors.

    Returns
    -------
    (y, cache) where y has shape (m, d).
    """
    x = as_matrix(x, "x")
    pre = affine_forward(x, params.w, params.b)
    act = relu(pre)
    gate = transition_g(pre, params.gamma, params.c)
    y = pre * params.phi + params.theta * act * gate
    return y, StanLayerCache(x=x, pre=pre, act=act, gate=gate)


def stan_layer_backward(cache: StanLayerCache, params: StanLayerParams, dy) -> tuple[np.ndarray, StanLayerParams]:
    """Backward pass of one layer.

    With u the pre-activation, a = relu(u), g the gate and s = g*(1-g):

        dphi   = sum_m dy * u
        dtheta = sum_m dy * a * g
        dgamma = theta * sum_m dy * a * s * (u - c)
        dc     = -theta * gamma * sum_m dy * a * s
        du     = dy * (phi + theta * (relu'(u) * g + a * s * gamma))

    and (dx, dw, db) follow from the affine backward on du. Returns
    ``(dx, grads)`` with grads packed in a StanLayerParams of the same shapes.
    """
    dy = as_matrix(dy, "dy")
    if dy.shape != cache.pre.shape:
        raise ShapeError(f"dy shape {dy.shape} does not match cached pre-activation {cache.pre.shape}")
    if cache.x.shape != (cache.pre.shape[0], params.w.shape[0]):
        raise ShapeError(f"cache input {cache.x.shape} does not match params w {params.w.shape}")
    pre, act, gate = cache.pre, cache.act, cache.gate
    slope = gate * (1.0 - gate)
    weighted = dy * act * slope
    dphi = np.sum(dy * pre, axis=0)
    dtheta = np.sum(dy * act * gate, axis=0)
    dgamma = params.theta * np.sum(weighted * (pre - params.c), axis=0)
    dc = -params.theta * params.gamma * np.sum(weighted, axis=0)
    dpre = dy * (params.phi + params.theta * (relu_grad(pre) * gate + act * slope * params.gamma))
    dx, dw, db = affine_backward(cache.x, params.w, dpre)
    return dx, StanLayerParams(w=dw, b=db, phi=dphi, theta=dtheta, gamma=dgamma, c=dc)


def dense_stack_count(spec: NetworkSpec) -> int:
    """Trainable scalars in the dense maps and biases of ``spec``: q -> d,
    then d -> d for every later layer, then the d -> horizon projection."""
    q, d, depth, tau = spec.lookback, spec.units, spec.depth, spec.horizon
    return (q * d + d) + (depth - 1) * (d * d + d) + (d * tau + tau)


def count_parameters(spec: NetworkSpec) -> int:
    """Exact number of trainable scalars in a network built from ``spec``:
    the dense stack plus four per-unit coefficient vectors in each layer."""
    return dense_stack_count(spec) + 4 * spec.units * spec.depth


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_dense_stack(spec: NetworkSpec, seed: int) -> ParamStore:
    """Glorot-uniform dense maps with zero biases, deterministic per seed
    (PCG64 generator), drawn layer by layer and then the projection."""
    rng = np.random.default_rng(seed)
    store: ParamStore = {}
    fan_in = spec.lookback
    for i in range(spec.depth):
        store[f"layers.{i}.W"] = glorot_uniform(rng, fan_in, spec.units)
        store[f"layers.{i}.b"] = np.zeros(spec.units)
        fan_in = spec.units
    store["proj.W"] = glorot_uniform(rng, fan_in, spec.horizon)
    store["proj.b"] = np.zeros(spec.horizon)
    return store


def init_network(spec: NetworkSpec, seed: int) -> ParamStore:
    """Fresh parameters, deterministic for a given seed.

    The dense maps are ``init_dense_stack``'s, so they equal a relu MLP's at
    the same spec and seed. The unit coefficients start at phi=1, theta=0,
    gamma=1, c=0, so an untrained network is a well-conditioned affine map
    whose gates sit in the middle of their sensitive range for standardized
    inputs.
    """
    store = init_dense_stack(spec, seed)
    d = spec.units
    for i in range(spec.depth):
        store[f"layers.{i}.phi"] = np.ones(d)
        store[f"layers.{i}.theta"] = np.zeros(d)
        store[f"layers.{i}.gamma"] = np.ones(d)
        store[f"layers.{i}.c"] = np.zeros(d)
    return store


class StanNetwork:
    """Stacked smooth-transition forecaster.

    Exposes the contract shared by every trainable model in this package:
    ``params`` (flat name -> array store), ``forward(x) -> (pred, cache)``,
    ``backward(cache, dpred) -> grads``, ``predict(x)`` and ``num_params()``.
    """

    kind = "stan"

    def __init__(self, spec: NetworkSpec, params: ParamStore | None = None, seed: int = 0):
        self.spec = spec
        self.params = init_network(spec, seed) if params is None else params
        self._check_store()

    def _check_store(self) -> None:
        expected = set(init_network(self.spec, 0))
        if set(self.params) != expected:
            raise ShapeError(
                f"parameter store does not match spec {self.spec}: "
                f"missing {sorted(expected - set(self.params))}, "
                f"unexpected {sorted(set(self.params) - expected)}"
            )
        for name, arr in self.params.items():
            if not isinstance(arr, np.ndarray) or arr.dtype != np.float64:
                raise TypeError(f"parameter '{name}' must be a float64 ndarray")

    def layer_params(self, i: int) -> StanLayerParams:
        p = self.params
        return StanLayerParams(
            w=p[f"layers.{i}.W"], b=p[f"layers.{i}.b"], phi=p[f"layers.{i}.phi"],
            theta=p[f"layers.{i}.theta"], gamma=p[f"layers.{i}.gamma"], c=p[f"layers.{i}.c"],
        )

    def forward(self, x) -> tuple[np.ndarray, NetworkCache]:
        x = as_matrix(x, "x")
        if x.shape[1] != self.spec.lookback:
            raise ShapeError(f"input has {x.shape[1]} columns, network expects lookback {self.spec.lookback}")
        h = x
        caches: list[StanLayerCache] = []
        for i in range(self.spec.depth):
            h, cache = stan_layer_forward(h, self.layer_params(i))
            caches.append(cache)
        pred = affine_forward(h, self.params["proj.W"], self.params["proj.b"])
        return pred, NetworkCache(layers=caches, proj_input=h)

    def backward(self, cache: NetworkCache, dpred) -> GradStore:
        dpred = as_matrix(dpred, "dpred")
        if dpred.shape != (cache.proj_input.shape[0], self.spec.horizon):
            raise ShapeError(
                f"dpred shape {dpred.shape} does not match batch {cache.proj_input.shape[0]} "
                f"and horizon {self.spec.horizon}"
            )
        grads: GradStore = {}
        dh, grads["proj.W"], grads["proj.b"] = affine_backward(
            cache.proj_input, self.params["proj.W"], dpred
        )
        for i in reversed(range(self.spec.depth)):
            dh, layer_grads = stan_layer_backward(cache.layers[i], self.layer_params(i), dh)
            grads[f"layers.{i}.W"] = layer_grads.w
            grads[f"layers.{i}.b"] = layer_grads.b
            grads[f"layers.{i}.phi"] = layer_grads.phi
            grads[f"layers.{i}.theta"] = layer_grads.theta
            grads[f"layers.{i}.gamma"] = layer_grads.gamma
            grads[f"layers.{i}.c"] = layer_grads.c
        return grads

    def predict(self, x) -> np.ndarray:
        pred, _ = self.forward(x)
        return pred

    def num_params(self) -> int:
        return sum(arr.size for arr in self.params.values())
