"""Dense layer math, losses, Adam, and a finite-difference gradient referee.

The kernels run on float32 or float64 numpy arrays, in the dtype of their
operands: "matrices" are 2-D row-major, "vectors" are 1-D. A float32
operand stays float32 and anything else is read as float64, so the trained
networks run in float32 while the least-squares fit, the gradient check and
the classical oracles keep float64. All gradients are derived by hand, so the
checker at the bottom of this module is the oracle every backward pass has
to answer to; it runs in float64.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "NondeterministicLossError",
    "AdamState",
    "affine_forward",
    "affine_backward",
    "relu",
    "relu_grad",
    "mse_loss",
    "adam_step",
    "finite_diff_errors",
    "integer_in",
    "finite_real",
]

# loss_fn(params) -> (loss, grads); must be a pure function of the arrays.
LossFn = Callable[[Mapping[str, np.ndarray]], tuple[float, Mapping[str, np.ndarray]]]


class ShapeError(ValueError):
    """Operand shapes do not conform."""


class NonFiniteError(FloatingPointError):
    """A quantity that must stay finite came out NaN or infinite."""


class NondeterministicLossError(RuntimeError):
    """Two evaluations of a supposedly pure loss function disagreed."""


def is_integer(value) -> bool:
    """A Python or NumPy integer; not a bool, which Python counts as one, nor a float."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def integer_in(value, name: str, least: int, most: int | None = None) -> int:
    """A Python or NumPy integer in [least, most] (no upper end if ``most`` is None), as an ``int``; anything else (a
    bool, any float, even ``2.0``, text, ``None``, an integer out of range) raises a ValueError that starts with
    ``name``."""
    if is_integer(value) and least <= value and (most is None or value <= most):
        return int(value)
    rule = (f"an integer in [{least}, {most}]" if most is not None
            else {0: "a non-negative integer", 1: "a positive integer"}.get(least, f"an integer of at least {least}"))
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def finite_real(value, name: str) -> float:
    """A finite Python or NumPy integer or float, as a float; anything else (a bool, text, bytes, ``None``, a
    complex number, NaN, infinity, an integer past float range) raises a ValueError that starts with ``name``."""
    try:
        number = float(value) if is_integer(value) or isinstance(value, (float, np.floating)) else math.nan
    except OverflowError:  # an integer no float can hold
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return number


def float_array(x) -> np.ndarray:
    """``x`` as an array: a float32 array as itself, anything else as float64 (a float64 array as itself)."""
    a = np.asarray(x)
    return a if a.dtype == np.float32 else a.astype(np.float64, copy=False)


def as_matrix(x, name: str = "x") -> np.ndarray:
    a = float_array(x)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def column_sums(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sums over the rows of ``a`` (m, d), or of each matrix of a stack (k, m, d), in ``a``'s dtype, written
    into ``out`` if given. Taken by BLAS as ``ones @ a``: several times faster than ``a.sum(axis=-2)`` at the
    training shapes, and the same sum in another order, so within the same float error bound."""
    return np.matmul(np.ones(a.shape[-2], dtype=a.dtype), a, out=out)


def affine_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Compute ``x @ w + b``: (m, p) @ (p, q) + (q,) -> (m, q).

    Takes conforming arrays of one float dtype, as ``LayerStack`` passes them.
    """
    return x @ w + b


def affine_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray, dw: np.ndarray | None = None,
                    db: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``y = x @ w + b`` given upstream ``dy``: ``(dx, dw, db)``
    with ``dx = dy @ w.T``, ``dw = x.T @ dy`` and ``db`` the column sums of
    ``dy`` (``column_sums``); ``dw`` and ``db`` are written into the given
    arrays if any.

    Takes conforming arrays of one float dtype, as ``LayerStack`` passes them.
    """
    return dy @ w.T, np.matmul(x.T, dy, out=dw), column_sums(dy, out=db)


def relu(x):
    """Elementwise max(0, x)."""
    return np.maximum(x, 0.0)


def relu_grad(x):
    """Derivative of relu, in ``x``'s float dtype; the subgradient at exactly zero is taken as 0."""
    x = float_array(x)
    return (x > 0.0).astype(x.dtype)


def mse_loss(pred, target) -> tuple[float, np.ndarray]:
    """Mean squared error over all entries plus its gradient in ``pred``.

    Returns ``(loss, dpred)`` with ``dpred = 2 * (pred - target) / pred.size``.
    The difference and the loss are taken in float64 whatever the dtypes, and
    ``dpred`` is returned in ``pred``'s dtype, the one its model computes in.
    """
    pred = as_matrix(pred, "pred")
    target = as_matrix(target, "target")
    if pred.shape != target.shape:
        raise ShapeError(f"pred shape {pred.shape} does not match target shape {target.shape}")
    if pred.size == 0:
        raise ShapeError("mse_loss needs at least one element")
    diff = pred.astype(np.float64, copy=False) - target
    loss = float(np.mean(diff * diff))
    dpred = ((2.0 / pred.size) * diff).astype(pred.dtype, copy=False)
    return loss, dpred


# Adam's fixed moment decays and denominator guard: part of the one training recipe
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Moment accumulators, step count and learning rate of one parameter array; the rest is ``ADAM_*``."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    t: int = 0

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float) -> "AdamState":
        """Zero moments in ``param``'s float dtype."""
        param = float_array(param)
        return cls(m=np.zeros_like(param), v=np.zeros_like(param), lr=lr)


def adam_step(param: np.ndarray, grad: np.ndarray, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``param`` in place.

    Takes ``param``, ``grad``, ``state.m`` and ``state.v`` of one shape and float dtype, as ``training`` passes them.
    Raises NonFiniteError if the gradient holds NaN or infinity; the caller names the parameter.
    """
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("non-finite gradient")
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    param -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def finite_diff_errors(loss_fn: LossFn, params: dict[str, np.ndarray], eps: float = 1e-5) -> dict[str, float]:
    """Worst relative error per parameter between analytic and numeric gradients.

    Central differences: for each entry of each array in ``params`` the loss
    is evaluated at +eps and -eps and the slope compared against the analytic
    gradient returned by ``loss_fn``. The relative error for a pair (a, n) is
    ``|a - n| / max(|a|, |n|, 1e-8)``. A NaN slope, from a loss that is NaN
    at +eps or -eps, makes that parameter's error NaN, so the check fails
    against any tolerance. ``eps`` must be positive and finite.

    ``loss_fn`` is called twice on the unperturbed parameters first; if the
    two losses differ the function is not deterministic and the check would
    be meaningless, so NondeterministicLossError is raised. The first call's
    gradients are copied at once: ``LayerStack.backward`` returns views that each call rewrites.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    loss0, grads = loss_fn(params)
    grads = {name: np.array(g, dtype=np.float64) for name, g in grads.items()}
    loss1, _ = loss_fn(params)
    if loss0 != loss1:
        raise NondeterministicLossError(
            f"loss_fn returned {loss0!r} and then {loss1!r} on identical parameters"
        )
    errors: dict[str, float] = {}
    for name, p in params.items():
        if not isinstance(p, np.ndarray) or p.dtype != np.float64:
            raise TypeError(f"parameter '{name}' must be a float64 ndarray")
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"analytic gradient for '{name}' has shape {g.shape}, expected {p.shape}")
        rels = []
        for idx in np.ndindex(p.shape):
            saved = p[idx]
            p[idx] = saved + eps
            lo_plus, _ = loss_fn(params)
            p[idx] = saved - eps
            lo_minus, _ = loss_fn(params)
            p[idx] = saved
            numeric = (lo_plus - lo_minus) / (2.0 * eps)
            analytic = float(g[idx])
            rels.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
        errors[name] = float(np.max(rels, initial=0.0))  # np.max lets a NaN win
    return errors
