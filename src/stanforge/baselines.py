"""Reference models the smooth-transition network is benchmarked against,
and ``MODEL_KINDS``, the one registry of model kinds.

Every baseline is a ``stan_core.LayerStack`` without gates: a plain relu MLP
of matching width and depth, a single affine map trained by gradient descent
(the depth-0 stack), and closed-form multi-output linear regression, the same
depth-0 stack solved once by least squares instead of trained. The trained
kinds run in float32 and linear regression in float64. The CLI, the
benchmark matrix and checkpoints name, size, build and fit every kind through
the registry; a new kind is one entry there.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

# ``affine_forward`` is unused here but kept as a module binding: the perfbench
# tracer test checks that it wraps ``stanforge.baselines.affine_forward``.
from .numerics import ShapeError, affine_forward, as_matrix, integer_in  # noqa: F401
from .stan_core import MAX_PARAMETERS, LayerStack, NetworkSpec, ParamStore, StanNetwork, count_parameters

__all__ = [
    "MODEL_KINDS",
    "ModelKind",
    "ConditioningError",
    "fit_linear_regression",
    "LinearRegressionModel",
    "LinearNetwork",
    "MlpNetwork",
]


# the diagonal loading added to the Gram matrix, and the worst condition
# estimate of the loaded matrix that the normal equations are solved at
RIDGE = 1e-8
COND_LIMIT = 1e12


class ConditioningError(ValueError):
    """Normal equations too ill-conditioned to solve reliably."""


def fit_linear_regression(x, y) -> np.ndarray:
    """Least squares with intercept via normal equations loaded with ``RIDGE``.

    The solve is refused when the loaded Gram matrix's condition estimate
    exceeds ``COND_LIMIT``.

    Parameters
    ----------
    x : array, shape (n, q)
    y : array, shape (n, tau)

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
    gram = a.T @ a + RIDGE * np.eye(q + 1)
    eigs = np.linalg.eigvalsh(gram)
    low = max(float(eigs[0]), np.finfo(np.float64).tiny)
    cond = float(eigs[-1]) / low
    if cond > COND_LIMIT:
        raise ConditioningError(
            f"normal equations are too ill-conditioned even with ridge {RIDGE:g}: "
            f"condition estimate {cond:.3e} exceeds {COND_LIMIT:.1e}"
        )
    return np.linalg.solve(gram, a.T @ y)


class MlpNetwork(LayerStack):
    """Plain relu MLP: a ``LayerStack`` without gates."""

    kind = "mlp"
    gated = False
    # the benchmark's tracer wraps only methods in the class's own __dict__
    forward, backward, predict = LayerStack.forward, LayerStack.backward, LayerStack.predict

    def __init__(self, spec: NetworkSpec, params: ParamStore | None = None, seed: int = 0, dtype=None):
        super().__init__(spec.lookback, spec.horizon, spec.units, spec.depth, params, seed, dtype)


class LinearNetwork(LayerStack):
    """Single affine map trained by gradient descent (the depth-0 stack); the sanity floor. Its ``lookback``
    and ``horizon`` are positive integers."""

    kind = "linear"
    gated = False
    # the benchmark's tracer wraps only methods in the class's own __dict__
    forward, backward, predict = LayerStack.forward, LayerStack.backward, LayerStack.predict

    def __init__(self, lookback: int, horizon: int, params: ParamStore | None = None, seed: int = 0,
                 dtype=None):
        lookback, horizon = integer_in(lookback, "lookback", 1), integer_in(horizon, "horizon", 1)
        super().__init__(lookback, horizon, 0, 0, params, seed, dtype)


class LinearRegressionModel(LinearNetwork):
    """Closed-form linear forecaster: the depth-0 stack, its ``proj.W`` and
    ``proj.b`` solved by ``fit_linear_regression``; float64, the precision
    the normal equations are solved in."""

    kind = "linreg"
    dtype = np.dtype(np.float64)

    @classmethod
    def fit(cls, x, y) -> "LinearRegressionModel":
        w = fit_linear_regression(x, y)  # intercept in row 0
        return cls(w.shape[0] - 1, w.shape[1], {"proj.W": w[1:], "proj.b": w[0]})


@dataclass(frozen=True)
class ModelKind:
    """How one model kind is named, sized, built and fit."""

    column: str  # benchmark column name; sized kinds fill in {units} and {depth}
    cls: type[LayerStack]
    sized: bool = False  # built from a ``NetworkSpec``, so it takes units and depth
    fit: Callable[..., LayerStack] | None = None  # closed-form fit(x, y), no gradient descent

    def build(self, lookback: int, horizon: int, units: int | None = None, depth: int | None = None,
              params: ParamStore | None = None, seed: int = 0, dtype=None) -> LayerStack:
        """The model rebuilt from ``params`` after its store check, or drawn from
        ``seed``, in the kind's dtype unless ``dtype`` is given; unsized kinds
        ignore units and depth, sized ones reject depth 0."""
        if self.sized:
            return self.cls(NetworkSpec(lookback, units, depth, horizon), params, seed, dtype)
        return self.cls(lookback, horizon, params, seed, dtype)

    def check_size(self, lookback: int, horizon: int, units: int, depth: int) -> None:
        """The one size gate: for a sized kind, a ValueError naming units and
        depth when its ``NetworkSpec`` refuses them or the network would hold
        more than MAX_PARAMETERS scalars, counted before anything is allocated."""
        if self.sized and (size := count_parameters(NetworkSpec(lookback, units, depth, horizon),
                                                    self.cls.gated)) > MAX_PARAMETERS:
            raise ValueError(f"units {units} and depth {depth} make {size} parameters, "
                             f"above the limit of {MAX_PARAMETERS} (1 GiB as float64)")

    @property
    def spec_keys(self) -> tuple[str, ...]:  # the checkpoint ``spec``, in saved order
        return ("lookback", "units", "depth", "horizon") if self.sized else ("lookback", "horizon")


MODEL_KINDS: dict[str, ModelKind] = {
    "stan": ModelKind("STAN-{units}-{depth}", StanNetwork, sized=True),
    "mlp": ModelKind("MLP-{units}-{depth}", MlpNetwork, sized=True),
    "linear": ModelKind("LinearNN", LinearNetwork),
    "linreg": ModelKind("LinReg", LinearRegressionModel, fit=LinearRegressionModel.fit),
}
