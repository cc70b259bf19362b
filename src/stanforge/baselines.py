"""Reference models the smooth-transition network is benchmarked against,
and ``MODEL_KINDS``, the one registry of model kinds.

Three baselines share the training contract from ``stan_core``: a plain relu
MLP of matching width and depth and a single affine map trained by gradient
descent, which are ``stan_core.LayerStack`` without gates (the linear one at
depth 0), and closed-form multi-output linear regression (fit once, no
gradient descent). The CLI, the benchmark matrix and checkpoints name, size,
build and fit every kind through the registry; a new kind is one entry there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .numerics import ShapeError, affine_forward, as_matrix
from .stan_core import LayerStack, NetworkSpec, ParamStore, StanNetwork, check_size, check_store

__all__ = [
    "MODEL_KINDS",
    "ModelKind",
    "ConditioningError",
    "fit_linear_regression",
    "LinearRegressionModel",
    "LinearNetwork",
    "MlpNetwork",
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
        return affine_forward(x, self.weights[1:], self.weights[0])

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


class MlpNetwork(LayerStack):
    """Plain relu MLP: a ``LayerStack`` without gates."""

    kind = "mlp"
    gated = False
    # the benchmark's tracer wraps only methods in the class's own __dict__
    forward, backward, predict = LayerStack.forward, LayerStack.backward, LayerStack.predict

    def __init__(self, spec: NetworkSpec, params: ParamStore | None = None, seed: int = 0):
        super().__init__(spec.lookback, spec.horizon, spec.units, spec.depth, params, seed)


class LinearNetwork(LayerStack):
    """Single affine map trained by gradient descent (the depth-0 stack); the sanity floor."""

    kind = "linear"
    gated = False
    # the benchmark's tracer wraps only methods in the class's own __dict__
    forward, backward, predict = LayerStack.forward, LayerStack.backward, LayerStack.predict

    def __init__(self, lookback: int, horizon: int, params: ParamStore | None = None, seed: int = 0):
        super().__init__(int(lookback), int(horizon), 0, 0, params, seed)


@dataclass(frozen=True)
class ModelKind:
    """How one model kind is named, sized, built and fit."""

    column: str  # benchmark column name; sized kinds fill in {units} and {depth}
    # (lookback, horizon, units, depth, params=None, seed=0) -> model, rebuilt
    # from ``params`` after a name and shape check or drawn fresh from ``seed``;
    # unsized kinds ignore units and depth
    build: Callable[..., object]
    sized: bool = False
    fit: Callable[..., object] | None = None  # closed-form fit(x, y), no gradient descent
    gated: bool = False  # sized kinds: smooth-transition layers, which ``check_size`` counts

    def check_size(self, lookback: int, horizon: int, units: int, depth: int) -> None:
        """For a sized kind, ``stan_core.check_size`` of the network it would
        build, computed in closed form before anything is allocated."""
        if self.sized:
            check_size(NetworkSpec(lookback, units, depth, horizon), self.gated)

    @property
    def spec_keys(self) -> tuple[str, ...]:  # the checkpoint ``spec``, in saved order
        return ("lookback", "units", "depth", "horizon") if self.sized else ("lookback", "horizon")


def _network(cls):
    """``build`` of a sized ``LayerStack`` kind; its ``NetworkSpec`` rejects depth 0."""
    return (lambda lookback, horizon, units, depth, params=None, seed=0:
            cls(NetworkSpec(lookback, units, depth, horizon), params, seed))


def _build_linreg(lookback, horizon, units=None, depth=None, params=None, seed=0):
    """Zero weights, or the given store after ``check_store``; nothing is drawn."""
    shapes = {"weights": (lookback + 1, horizon)}
    if params is None:
        return LinearRegressionModel(np.zeros(shapes["weights"]))
    owner = f"LinearRegressionModel(lookback={lookback}, horizon={horizon})"
    return LinearRegressionModel(check_store(params, shapes, owner)["weights"])


MODEL_KINDS: dict[str, ModelKind] = {
    "stan": ModelKind("STAN-{units}-{depth}", _network(StanNetwork), sized=True, gated=True),
    "mlp": ModelKind("MLP-{units}-{depth}", _network(MlpNetwork), sized=True),
    "linear": ModelKind("LinearNN", lambda lookback, horizon, units=None, depth=None, params=None, seed=0:
                        LinearNetwork(lookback, horizon, params, seed)),
    "linreg": ModelKind("LinReg", _build_linreg, fit=LinearRegressionModel.fit),
}
