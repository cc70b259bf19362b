"""Reference models the smooth-transition network is benchmarked against,
and ``MODEL_KINDS``, the one registry of model kinds.

Three baselines share the training contract from ``stan_core``: a single
affine map trained by gradient descent, a plain relu MLP of matching width
and depth, and closed-form multi-output linear regression (fit once, no
gradient descent). The CLI, the benchmark matrix and checkpoints name, size,
build and fit every kind through the registry; a new kind is one entry there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import ShapeError, affine_backward, affine_forward, as_matrix, relu, relu_grad
from .stan_core import (
    GradStore,
    NetworkSpec,
    ParamStore,
    StanNetwork,
    dense_stack_count,
    dense_stack_shapes,
    glorot_uniform,
    init_dense_stack,
    network_shapes,
)

__all__ = [
    "MODEL_KINDS",
    "ModelKind",
    "ConditioningError",
    "fit_linear_regression",
    "LinearRegressionModel",
    "LinearNetwork",
    "MlpNetwork",
    "mlp_count_parameters",
    "linear_count_parameters",
    "init_mlp",
    "init_linear",
]


class ConditioningError(ValueError):
    """Normal equations too ill-conditioned to solve reliably."""


def fit_linear_regression(x, y, ridge: float = 1e-8, cond_limit: float = 1e12) -> np.ndarray:
    """Least squares with intercept via ridge-stabilized normal equations.

    Parameters
    ----------
    x : array, shape (n, q)
    y : array, shape (n, tau)
    ridge : small diagonal loading added to the Gram matrix.
    cond_limit : reject the solve when the loaded Gram matrix is worse
        conditioned than this.

    Returns
    -------
    weights : array, shape (q + 1, tau); row 0 is the intercept.
    """
    x = as_matrix(x, "x")
    y = as_matrix(y, "y")
    n, q = x.shape
    if y.shape[0] != n:
        raise ShapeError(f"x has {n} rows but y has {y.shape[0]}")
    if n <= q:
        raise ValueError(f"need more rows than regressors to fit: {n} rows, {q} columns plus intercept")
    a = np.hstack([np.ones((n, 1)), x])
    gram = a.T @ a + ridge * np.eye(q + 1)
    eigs = np.linalg.eigvalsh(gram)
    low = max(float(eigs[0]), np.finfo(np.float64).tiny)
    cond = float(eigs[-1]) / low
    if cond > cond_limit:
        raise ConditioningError(
            f"normal equations are too ill-conditioned even with ridge {ridge:g}: "
            f"condition estimate {cond:.3e} exceeds {cond_limit:.1e}"
        )
    return np.linalg.solve(gram, a.T @ y)


@dataclass
class LinearRegressionModel:
    """Closed-form linear forecaster; one independent regression per horizon step."""

    weights: np.ndarray  # (q + 1, tau), row 0 is the intercept

    kind: ClassVar[str] = "linreg"

    @classmethod
    def fit(cls, x, y, ridge: float = 1e-8, cond_limit: float = 1e12) -> "LinearRegressionModel":
        return cls(weights=fit_linear_regression(x, y, ridge=ridge, cond_limit=cond_limit))

    def predict(self, x) -> np.ndarray:
        x = as_matrix(x, "x")
        if x.shape[1] + 1 != self.weights.shape[0]:
            raise ShapeError(f"input has {x.shape[1]} columns, model expects {self.weights.shape[0] - 1}")
        return self.weights[0] + x @ self.weights[1:]

    @property
    def params(self) -> ParamStore:
        return {"weights": self.weights}

    def num_params(self) -> int:
        return int(self.weights.size)

    @property
    def lookback(self) -> int:
        return int(self.weights.shape[0] - 1)

    @property
    def horizon(self) -> int:
        return int(self.weights.shape[1])


# A relu MLP is the smooth-transition network's dense stack without the gates.
mlp_count_parameters = dense_stack_count
init_mlp = init_dense_stack


def linear_count_parameters(lookback: int, horizon: int) -> int:
    return lookback * horizon + horizon


def init_linear(lookback: int, horizon: int, seed: int) -> ParamStore:
    rng = np.random.default_rng(seed)
    return {
        "proj.W": glorot_uniform(rng, lookback, horizon),
        "proj.b": np.zeros(horizon),
    }


@dataclass
class MlpLayerCache:
    x: np.ndarray
    pre: np.ndarray


@dataclass
class MlpCache:
    layers: list[MlpLayerCache]
    proj_input: np.ndarray


class MlpNetwork:
    """Plain relu MLP sharing the forecaster contract."""

    kind = "mlp"

    def __init__(self, spec: NetworkSpec, params: ParamStore | None = None, seed: int = 0):
        self.spec = spec
        self.params = init_mlp(spec, seed) if params is None else params

    def forward(self, x) -> tuple[np.ndarray, MlpCache]:
        x = as_matrix(x, "x")
        if x.shape[1] != self.spec.lookback:
            raise ShapeError(f"input has {x.shape[1]} columns, network expects lookback {self.spec.lookback}")
        h = x
        caches: list[MlpLayerCache] = []
        for i in range(self.spec.depth):
            pre = affine_forward(h, self.params[f"layers.{i}.W"], self.params[f"layers.{i}.b"])
            caches.append(MlpLayerCache(x=h, pre=pre))
            h = relu(pre)
        pred = affine_forward(h, self.params["proj.W"], self.params["proj.b"])
        return pred, MlpCache(layers=caches, proj_input=h)

    def backward(self, cache: MlpCache, dpred) -> GradStore:
        dpred = as_matrix(dpred, "dpred")
        grads: GradStore = {}
        dh, grads["proj.W"], grads["proj.b"] = affine_backward(
            cache.proj_input, self.params["proj.W"], dpred
        )
        for i in reversed(range(self.spec.depth)):
            layer = cache.layers[i]
            dpre = dh * relu_grad(layer.pre)
            dh, grads[f"layers.{i}.W"], grads[f"layers.{i}.b"] = affine_backward(
                layer.x, self.params[f"layers.{i}.W"], dpre
            )
        return grads

    def predict(self, x) -> np.ndarray:
        pred, _ = self.forward(x)
        return pred

    def num_params(self) -> int:
        return sum(arr.size for arr in self.params.values())


class LinearNetwork:
    """Single affine map trained by gradient descent; the sanity-floor baseline."""

    kind = "linear"

    def __init__(self, lookback: int, horizon: int, params: ParamStore | None = None, seed: int = 0):
        self.lookback = int(lookback)
        self.horizon = int(horizon)
        self.params = init_linear(self.lookback, self.horizon, seed) if params is None else params

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        x = as_matrix(x, "x")
        if x.shape[1] != self.lookback:
            raise ShapeError(f"input has {x.shape[1]} columns, network expects lookback {self.lookback}")
        pred = affine_forward(x, self.params["proj.W"], self.params["proj.b"])
        return pred, x

    def backward(self, cache: np.ndarray, dpred) -> GradStore:
        _, dw, db = affine_backward(cache, self.params["proj.W"], as_matrix(dpred, "dpred"))
        return {"proj.W": dw, "proj.b": db}

    def predict(self, x) -> np.ndarray:
        pred, _ = self.forward(x)
        return pred

    def num_params(self) -> int:
        return sum(arr.size for arr in self.params.values())


@dataclass(frozen=True)
class ModelKind:
    """How one model kind is named, sized, built and fit."""

    column: str  # benchmark column name; sized kinds fill in {units} and {depth}
    # (lookback, horizon, units, depth, params=None, seed=0) -> model, rebuilt
    # from ``params`` or drawn fresh from ``seed``; unsized kinds ignore units and depth
    build: Callable[..., object]
    # (lookback, horizon, units, depth) -> {name: shape} of the parameters
    # ``build`` makes at those sizes, derived without drawing any weights
    shapes: Callable[..., dict[str, tuple[int, ...]]]
    sized: bool = False
    fit: Callable[..., object] | None = None  # closed-form fit(x, y), no gradient descent

    @property
    def spec_keys(self) -> tuple[str, ...]:  # the checkpoint ``spec``, in saved order
        return ("lookback", "units", "depth", "horizon") if self.sized else ("lookback", "horizon")


def _network(cls):
    return lambda lookback, horizon, units, depth, params=None, seed=0: \
        cls(NetworkSpec(lookback, units, depth, horizon), params, seed)


def _network_shapes(shapes):
    return lambda lookback, horizon, units, depth: shapes(NetworkSpec(lookback, units, depth, horizon))


MODEL_KINDS: dict[str, ModelKind] = {
    "stan": ModelKind("STAN-{units}-{depth}", _network(StanNetwork), _network_shapes(network_shapes), sized=True),
    "mlp": ModelKind("MLP-{units}-{depth}", _network(MlpNetwork), _network_shapes(dense_stack_shapes), sized=True),
    "linear": ModelKind("LinearNN", lambda lookback, horizon, units=None, depth=None, params=None, seed=0:
                        LinearNetwork(lookback, horizon, params, seed),
                        lambda lookback, horizon, units=None, depth=None:
                        {"proj.W": (lookback, horizon), "proj.b": (horizon,)}),
    "linreg": ModelKind("LinReg", lambda lookback, horizon, units=None, depth=None, params=None, seed=0:
                        LinearRegressionModel(np.zeros((lookback + 1, horizon)) if params is None
                                              else params["weights"]),
                        lambda lookback, horizon, units=None, depth=None: {"weights": (lookback + 1, horizon)},
                        fit=LinearRegressionModel.fit),
}
