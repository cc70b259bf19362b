"""Smooth-transition autoregressive layers and the stacked forecasting net.

Each unit blends a linear response and a rectified response, mixed by a
logistic gate that reads the unit's own pre-activation:

    y = phi * u + theta * relu(u) * g(u)      with u = x @ w + b (per unit)
    g(u) = 1 / (1 + exp(-gamma * (u - c)))

so a layer degenerates to a plain affine map when every theta is zero and to
a rectifier-style layer when the gates saturate. ``LayerStack`` stacks
``depth`` such layers (relu layers when not gated) and finishes with an affine
projection onto the forecast horizon; the STAN, MLP and linear networks are
all layer stacks. A layer kernel takes ``w``, ``b`` and a (4, d) block of rows
phi, theta, gamma and c, views of its stack's parameter vector, and computes in
the stack's dtype: float32 for the networks, float64 for the least-squares
``linreg`` and for the gradient check. Backward passes are derived by hand; the
finite-difference checker in ``numerics`` referees them, on float64 stacks, in
the test suite.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import (
    ShapeError,
    affine_backward,
    affine_forward,
    as_matrix,
    column_sums,
    float_array,
    integer_in,
    mse_loss,
    relu,
    relu_grad,
)

__all__ = [
    "NetworkSpec",
    "ParamStore",
    "VectorStore",
    "StanLayerCache",
    "NetworkCache",
    "LayerStack",
    "StanNetwork",
    "transition_g",
    "stan_layer_forward",
    "stan_layer_backward",
    "MAX_PARAMETERS",
    "check_allocation",
    "count_parameters",
    "stack_shapes",
    "init_params",
    "glorot_uniform",
    "gradcheck_problem",
]

# Flat name -> array mapping; layer parameters live under "layers.{i}.{field}"
# and the output projection under "proj.W" / "proj.b".
ParamStore = dict[str, np.ndarray]

# Per-unit coefficients in a layer block's row order, at their start values:
# theta=0 makes an untrained layer a well-conditioned affine map, and gamma=1,
# c=0 put its gates mid-range for standardized inputs.
_UNIT_START = {"phi": 1.0, "theta": 0.0, "gamma": 1.0, "c": 0.0}

# The most trainable scalars a network, or float64 values a draw, may hold: 1 GiB as float64.
MAX_PARAMETERS = 2 ** 27


def check_allocation(size: int, what: str, noun: str = "values") -> None:
    """The one allocation gate, taken before anything is allocated: a ValueError past MAX_PARAMETERS."""
    if size > MAX_PARAMETERS:
        raise ValueError(f"{what} make {size} {noun}, above the limit of {MAX_PARAMETERS} (1 GiB as float64)")


# Rows per tile of ``LayerStack.predict``'s gate and mix: the training batch,
# so a tile's temporaries are the size training already allocates.
PREDICT_TILE = 256


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of one forecaster: lookback q, units d, depth L, horizon tau,
    each a positive Python or NumPy integer (stored as ``int``); a bool or a
    float, even a whole one, is refused."""

    lookback: int
    units: int
    depth: int
    horizon: int

    def __post_init__(self):
        for field_name in ("lookback", "units", "depth", "horizon"):
            object.__setattr__(self, field_name, integer_in(getattr(self, field_name), field_name, 1))


# The clamp of the gate's exponent per dtype; ``transition_g`` says why each bound.
_GATE_CLAMP = {np.dtype(np.float32): (-16.0, 80.0), np.dtype(np.float64): (-36.0, 700.0)}


def transition_g(z, gamma, c):
    """Logistic transition ``1 / (1 + exp(-gamma * (z - c)))``, elementwise.

    With ``t = gamma * (c - z)`` it is evaluated as ``1 / (1 + exp(t))``,
    ``t`` clamped first to ``[-16, 80]`` in float32 or ``[-36, 700]`` in
    float64, with one ``exp`` and every pass in place. The clamp alone holds
    the result inside the open interval (0, 1), so no clip of the output is
    needed. The low end is the lowest integer at which ``exp(t)`` is still
    more than half an ulp of 1 (``e**-16`` about 1.1e-7 against ``2**-24``,
    ``e**-36`` about 2.3e-16 against ``2**-53``), so ``1 + exp(t)`` rounds
    above 1 and the top is exactly ``1 - 2**-23`` (float32) or
    ``1 - 2**-52`` (float64), which keeps downstream ``g * (1 - g)``
    factors nonzero. At the high end ``exp(t)`` cannot overflow (``e**80``
    is about 5.5e34, ``e**700`` about 1.0e304), and the floor is exactly
    ``1 / (1 + e**80)``, about 1.8e-35, or ``1 / (1 + e**700)``, about
    9.9e-305, both normal floats, so no subnormal reaches the slope. Past
    either end the clamp moves a gate by less than the top's distance from 1
    or than the floor. A NaN ``t`` gives NaN. It computes in ``z``'s dtype:
    float32 for a float32 ``z``, float64 otherwise. The shorter
    ``0.5 * (1 + tanh(t / 2))`` is not used: it differs in the last bits and
    loses relative precision deep in the negative tail, where the gate's
    ``g * (1 - g)`` slope feeds the gamma and c gradients.
    """
    z = float_array(z)
    t = np.asarray(np.asarray(gamma, dtype=z.dtype) * (np.asarray(c, dtype=z.dtype) - z))
    scalar = t.ndim == 0
    t = np.atleast_1d(t)  # a fresh array, which every pass below overwrites
    np.clip(t, *_GATE_CLAMP[t.dtype], out=t)
    np.exp(t, out=t)
    t += 1.0
    np.divide(1.0, t, out=t)
    return float(t[0]) if scalar else t


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


def _gate_and_mix(pre: np.ndarray, coefs: np.ndarray,
                  out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(y, relu(pre), gate)`` with ``y = pre * phi + theta * relu(pre) * gate``
    written to ``out``, which may be ``pre`` itself; ``coefs`` is the (4, d)
    block of rows phi, theta, gamma and c."""
    phi, theta, gamma, c = coefs
    act = relu(pre)
    gate = transition_g(pre, gamma, c)
    gated = theta * act
    gated *= gate
    y = np.multiply(pre, phi, out=out)
    y += gated
    return y, act, gate


def stan_layer_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                       coefs: np.ndarray) -> tuple[np.ndarray, StanLayerCache]:
    """Apply a smooth-transition layer, ``x @ w + b`` then the gate and mix of
    ``coefs``, the (4, d) block of rows phi, theta, gamma and c, to a batch
    ``x`` (m, p); returns ``(y, cache)`` with y of shape (m, d).

    Takes conforming arrays of one float dtype, as ``LayerStack`` passes them.
    """
    pre = affine_forward(x, w, b)
    y, act, gate = _gate_and_mix(pre, coefs)
    return y, StanLayerCache(x=x, pre=pre, act=act, gate=gate)


def stan_layer_backward(cache: StanLayerCache, coefs: np.ndarray, dy: np.ndarray,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Backward pass of one layer's gate and mix, down to its pre-activation.

    Takes a ``dy`` of the cached pre-activation's shape and dtype, as ``LayerStack`` passes it.

    With u the pre-activation, a = relu(u), g the gate and s = g*(1-g):

        dphi   = sum_m dy * u
        dtheta = sum_m dy * a * g
        dgamma = theta * sum_m dy * a * s * (u - c)
        dc     = -theta * gamma * sum_m dy * a * s
        du     = dy * (phi + theta * (relu'(u) * g + a * s * gamma))

    ``coefs`` is the layer's (4, d) block of rows phi, theta, gamma and c.
    Returns ``(du, dcoefs)``: ``du`` (m, d), from which ``LayerStack.backward``
    takes the dense map's gradients ``x.T @ du`` and ``column_sums(du)`` and
    the input gradient ``du @ w.T``, and ``dcoefs`` (4, d), whose rows are
    dphi, dtheta, dgamma and dc, written into the given ``out`` array if any.
    """
    phi, theta, gamma, c = coefs
    pre, act, gate = cache.pre, cache.act, cache.gate
    terms = np.empty((4, *pre.shape), dtype=pre.dtype)  # the four column-sum operands, reduced together
    slope = np.subtract(1.0, gate)
    slope *= gate
    np.multiply(dy, pre, out=terms[0])
    dy_act = np.multiply(dy, act, out=terms[1])
    weighted = np.multiply(dy_act, slope, out=terms[3])
    dy_act *= gate
    np.subtract(pre, c, out=terms[2])
    terms[2] *= weighted
    dcoefs = column_sums(terms, out=out)
    dcoefs[2] *= theta
    dcoefs[3] *= -theta * gamma
    # du in the slope buffer; relu'(u) * g + a * s * gamma is (a * s * gamma + g) * (u > 0)
    slope *= act
    slope *= gamma
    slope += gate
    np.multiply(slope, pre > 0.0, out=slope, dtype=slope.dtype)
    slope *= theta
    slope += phi
    slope *= dy
    return slope, dcoefs


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
    if gated:
        shapes.update({f"layers.{i}.{name}": (units,) for i in range(depth) for name in _UNIT_START})
    return shapes


def count_parameters(spec: NetworkSpec, gated: bool = True) -> int:
    """Exact number of trainable scalars in a network built from ``spec``, in
    closed form: the dense stack (q -> d, then d -> d for every later layer,
    then d -> horizon, each with its bias) plus, when ``gated``, four
    per-unit coefficient vectors in each layer."""
    q, d, depth, h = spec.lookback, spec.units, spec.depth, spec.horizon
    return (q + 1) * d + (depth - 1) * (d + 1) * d + (d + 1) * h + (4 * d * depth if gated else 0)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(shapes: dict[str, tuple[int, ...]], seed: int, dtype=np.float64) -> ParamStore:
    """Fresh parameters of the given names and shapes, deterministic per seed
    (PCG64 generator): Glorot-uniform dense maps drawn in ``shapes`` order,
    zero biases, and per-unit coefficients at their start values, in
    ``dtype`` (the draws are float64, rounded to it). ``seed`` is a
    non-negative integer."""
    rng = np.random.default_rng(integer_in(seed, "seed", 0))
    return {
        name: glorot_uniform(rng, *shape).astype(dtype, copy=False) if len(shape) == 2
        else np.full(shape, _UNIT_START.get(name.rsplit(".", 1)[1], 0.0), dtype=dtype)
        for name, shape in shapes.items()
    }


class VectorStore(Mapping):
    """Name -> array store over one flat ``vector`` of ``dtype``, each entry a
    view of its slice in ``shapes`` order; the names are fixed. Arrays put
    in, as ``values`` (every name, checked before the zero-filled vector is
    allocated) or by assigning an entry, are checked and copied into their
    views: ShapeError for a missing, extra, unknown or wrong-shaped array,
    naming ``owner``; TypeError for one that is not an ndarray of ``dtype``."""

    def __init__(self, shapes: dict[str, tuple[int, ...]], owner: str, values: ParamStore | None = None,
                 dtype=np.float64):
        self.shapes, self.owner, self.dtype = shapes, owner, np.dtype(dtype)
        if values is not None and set(values) != set(shapes):
            missing, extra = sorted(set(shapes) - set(values)), sorted(set(values) - set(shapes))
            raise ShapeError(f"parameter store does not match {owner}: missing {missing}, unexpected {extra}")
        for name, arr in (values or {}).items():
            self._check(name, arr)
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.vector = np.zeros(sum(sizes), dtype=self.dtype)
        parts = np.split(self.vector, np.cumsum(sizes)[:-1])
        self._views = {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}
        for name, arr in (values or {}).items():
            self._views[name][...] = arr

    def _check(self, name: str, arr) -> None:
        if name not in self.shapes:
            raise ShapeError(f"{self.owner} has no parameter '{name}'")
        if not isinstance(arr, np.ndarray) or arr.dtype != self.dtype:
            raise TypeError(f"parameter '{name}' must be a {self.dtype} ndarray")
        if arr.shape != self.shapes[name]:
            raise ShapeError(f"parameter '{name}' has shape {arr.shape}, {self.owner} needs {self.shapes[name]}")

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __setitem__(self, name: str, arr: np.ndarray) -> None:
        self._check(name, arr)
        self._views[name][...] = arr

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)


class LayerStack:
    """``depth`` hidden layers of ``units`` each, then an affine projection
    onto the forecast horizon.

    A hidden layer is a smooth-transition layer when the class is ``gated``
    and an affine map followed by ``relu`` otherwise; at depth 0 the stack is
    the projection alone. Exposes the contract shared by every trainable model
    in this package: ``params`` and ``grads``, ``forward(x) -> (pred, cache)``,
    ``backward(cache, dpred) -> grads``, ``predict(x)`` and ``num_params()``.

    The model computes in one ``dtype``: the class's, float32 unless a
    subclass says otherwise, or float64 when the constructor is given
    ``dtype=np.float64``, as the gradient check and old checkpoints need.
    ``forward``, ``backward`` and ``predict`` cast their inputs to it.
    The model owns one parameter vector and one gradient vector of that
    dtype, in ``stack_shapes`` order: ``params`` and ``grads`` are
    ``VectorStore``s of views into them. A given store, and an array assigned to
    ``params[name]``, is checked and copied in. ``backward`` writes into
    ``grads`` and returns a fresh name -> view mapping of it, valid until
    the next ``backward``. A gated stack's coefficients are the tail of each
    vector, a (depth, 4, units) block: layer i's rows phi, theta, gamma and
    c, as the layer kernels take them.
    """

    kind: ClassVar[str]
    gated: ClassVar[bool]
    dtype: np.dtype = np.dtype(np.float32)

    def __init__(self, lookback: int, horizon: int, units: int, depth: int,
                 params: ParamStore | None, seed: int, dtype=None):
        self.lookback, self.horizon, self.units, self.depth = lookback, horizon, units, depth
        if dtype is not None:
            if np.dtype(dtype) not in (np.float32, np.float64):
                raise ValueError(f"dtype must be float32 or float64, got {dtype!r}")
            self.dtype = np.dtype(dtype)
        owner = f"{type(self).__name__}(lookback={lookback}, units={units}, depth={depth}, horizon={horizon})"
        if params is not None and depth > len(params):
            # every layer stores its own arrays; refused here, a depth read from a
            # file never makes ``stack_shapes`` list more names than the store holds
            raise ShapeError(f"parameter store does not match {owner}: {len(params)} arrays cannot hold {depth} layers")
        expected = stack_shapes(lookback, horizon, units, depth, self.gated)
        values = init_params(expected, seed, self.dtype) if params is None else params
        self.params = VectorStore(expected, owner, values, self.dtype)
        self.grads = VectorStore(expected, owner, dtype=self.dtype)
        if self.gated:  # stack_shapes lists each layer's phi, theta, gamma and c last, layer by layer
            self._coefs, self._coef_grads = (
                store.vector[-4 * units * depth:].reshape(depth, 4, units) for store in (self.params, self.grads))

    def _check_input(self, x) -> np.ndarray:
        x = as_matrix(x, "x").astype(self.dtype, copy=False)
        if x.shape[1] != self.lookback:
            raise ShapeError(f"input shape {x.shape} has {x.shape[1]} columns, network expects lookback {self.lookback}")
        return x

    def forward(self, x) -> tuple[np.ndarray, NetworkCache]:
        h = self._check_input(x)
        p = self.params
        caches: list[StanLayerCache] = []
        for i in range(self.depth):
            if self.gated:
                h, cache = stan_layer_forward(h, p[f"layers.{i}.W"], p[f"layers.{i}.b"], self._coefs[i])
            else:
                pre = affine_forward(h, p[f"layers.{i}.W"], p[f"layers.{i}.b"])
                cache = StanLayerCache(x=h, pre=pre, act=relu(pre), gate=None)
                h = cache.act
            caches.append(cache)
        pred = affine_forward(h, p["proj.W"], p["proj.b"])
        return pred, NetworkCache(layers=caches, proj_input=h)

    def backward(self, cache: NetworkCache, dpred) -> ParamStore:
        dpred = as_matrix(dpred, "dpred").astype(self.dtype, copy=False)
        if dpred.shape != (cache.proj_input.shape[0], self.horizon):
            raise ShapeError(
                f"dpred shape {dpred.shape} does not match batch {cache.proj_input.shape[0]} "
                f"and horizon {self.horizon}"
            )
        p, g = self.params, self.grads
        dh = affine_backward(cache.proj_input, p["proj.W"], dpred, g["proj.W"], g["proj.b"])[0]
        for i in reversed(range(self.depth)):
            layer = cache.layers[i]
            if self.gated:
                du, _ = stan_layer_backward(layer, self._coefs[i], dh, self._coef_grads[i])
            else:
                du = dh * relu_grad(layer.pre)
            np.matmul(layer.x.T, du, out=g[f"layers.{i}.W"])
            column_sums(du, out=g[f"layers.{i}.b"])
            if i:  # nothing reads the first layer's input gradient
                dh = du @ p[f"layers.{i}.W"].T
        return dict(g)

    def predict(self, x) -> np.ndarray:
        """``forward(x)[0]``, bit for bit, without building caches. Each GEMM
        is one call on the whole matrix, as in ``forward``; a gated layer's
        gate and mix run over ``PREDICT_TILE``-row tiles written over the
        pre-activation."""
        h = self._check_input(x)
        p = self.params
        for i in range(self.depth):
            pre = affine_forward(h, p[f"layers.{i}.W"], p[f"layers.{i}.b"])
            if self.gated:
                for start in range(0, len(pre), PREDICT_TILE):
                    tile = pre[start:start + PREDICT_TILE]
                    _gate_and_mix(tile, self._coefs[i], out=tile)
                h = pre
            else:
                h = relu(pre)
        return affine_forward(h, p["proj.W"], p["proj.b"])

    def num_params(self) -> int:
        return self.params.vector.size


class StanNetwork(LayerStack):
    """Stacked smooth-transition forecaster: a gated ``LayerStack``."""

    kind = "stan"
    gated = True
    # the benchmark's tracer wraps only methods in the class's own __dict__
    forward, backward = LayerStack.forward, LayerStack.backward

    def __init__(self, spec: NetworkSpec, params: ParamStore | None = None, seed: int = 0, dtype=None):
        super().__init__(spec.lookback, spec.horizon, spec.units, spec.depth, params, seed, dtype)


# Ranges the gradient check re-draws each layer's coefficients from, in draw order
_GRADCHECK_COEFS = {"phi": (0.5, 1.5), "theta": (0.5, 1.5), "gamma": (0.5, 2.0), "c": (-0.5, 0.5)}


def gradcheck_problem(spec: NetworkSpec, seed: int, batch: int):
    """``(loss_fn, params)`` for ``numerics.finite_diff_errors``: the MSE of a
    float64 STAN network drawn at ``seed``, its phi, theta, gamma and c
    re-drawn off their start values (theta=0 would zero the gamma and c
    gradients, hiding bugs), on a standard normal batch and target. Float64,
    since central differences at eps=1e-5 need its precision; the kernels
    are the ones the float32 networks train with."""
    model = StanNetwork(spec, seed=seed, dtype=np.float64)
    rng = np.random.default_rng(seed)
    for i in range(spec.depth):
        for field_name, (low, high) in _GRADCHECK_COEFS.items():
            model.params[f"layers.{i}.{field_name}"] = rng.uniform(low, high, spec.units)
    x = rng.standard_normal((batch, spec.lookback))
    target = rng.standard_normal((batch, spec.horizon))

    def loss_fn(params):
        pred, cache = model.forward(x)
        loss, dpred = mse_loss(pred, target)
        return loss, model.backward(cache, dpred)

    return loss_fn, model.params
