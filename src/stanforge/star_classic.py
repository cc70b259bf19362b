"""Classical two-regime logistic smooth transition autoregression.

Provides the synthetic ground truth the rest of the package is validated
against: ``simulate_lstar`` generates series from known coefficients, and
``estimate_lstar`` recovers coefficients by concentrated least squares over
a (gamma, c) grid. The transition variable is the lagged series value itself
(self-exciting), the same convention the network layers use for their gates.

This module intentionally keeps its own logistic implementation so the
estimator stays an independent oracle for the layer code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import TimeSeries

__all__ = [
    "ExplosiveDynamicsError",
    "EstimationError",
    "LstarParams",
    "DEFAULT_GAMMA_GRID",
    "default_c_grid",
    "simulate_lstar",
    "estimate_lstar",
]

DIVERGENCE_LIMIT = 1e12

DEFAULT_GAMMA_GRID = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0)

# simulation steps whose noise is converted to floats, and values stored, at once
_SIM_BLOCK = 256


class ExplosiveDynamicsError(RuntimeError):
    """Simulated series exceeded the divergence limit."""


class EstimationError(RuntimeError):
    """Estimation failed at every grid point."""


def _logistic(t):
    """Overflow-safe logistic, evaluated without exponentiating positive arguments.

    Computes ``exp(min(t, 0)) / (1 + exp(-|t|))`` over the whole array, with
    no mask and no clip. For t >= 0 the numerator is exp(0) = 1 and the
    denominator is 1 + exp(-t); for t < 0 the numerator is exp(t) and the
    denominator 1 + exp(t). Each side is therefore the same sequence of
    rounded operations as the two-branch form ``1 / (1 + exp(-t))`` and
    ``e / (1 + e)``, so every value, and every grid SSE built on it, keeps
    its bits.
    """
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.minimum(t, 0.0)
    np.exp(out, out=out)
    den = np.abs(t)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out /= den
    return out


def _logistic_scalar(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


@dataclass
class LstarParams:
    """Coefficients of a logistic STAR process of order q.

    y_t = phi0 + sum_i phi_i y_{t-i} + G(y_{t-delay}) * sum_i theta_i y_{t-i} + eps_t

    with G the logistic transition with steepness ``gamma`` and midpoint
    ``c``, and eps_t ~ N(0, sigma^2); ``sigma`` is a standard deviation.
    """

    phi0: float
    phi: np.ndarray
    theta: np.ndarray
    gamma: float
    c: float
    delay: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=np.float64))
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        if self.phi.ndim != 1 or self.theta.shape != self.phi.shape:
            raise ValueError(
                f"phi and theta must be 1-D and the same length, got {self.phi.shape} and {self.theta.shape}"
            )
        if self.phi.size == 0:
            raise ValueError("order must be at least 1")
        if not 1 <= int(self.delay) <= self.phi.size:
            raise ValueError(f"delay must lie in [1, {self.phi.size}], got {self.delay}")
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    @property
    def order(self) -> int:
        return int(self.phi.size)


def simulate_lstar(params: LstarParams, n: int, burn_in: int = 0, seed: int = 0,
                   name: str = "lstar") -> TimeSeries:
    """Simulate ``n`` observations after discarding ``burn_in``.

    Initial conditions are zero (the implicit pre-sample lags are zeros).
    Noise is drawn from numpy's PCG64 generator, so the same seed always
    yields the same series. Raises ExplosiveDynamicsError as soon as a value
    exceeds 1e12 in magnitude.

    The recursion runs on Python floats: the lag window, the coefficients,
    ``phi0``, ``gamma`` and ``c``. Each AR sum starts from 0.0 and adds the
    products lag 1 first, and y_t adds ``phi0``, the AR sum, the gated sum
    and the noise in that order. That is the order of the float64 array form
    ``phi0 + lags @ phi + gate * (lags @ theta) + eps``, where ``lags`` is
    the reversed view ``y[t-q:t][::-1]`` and NumPy sums a dot product over a
    view with a negative stride element by element from 0.0, so the series
    is the same bit for bit.

    The noise is converted to floats and the values written back a block of
    steps at a time, so no full-length list is held.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be non-negative, got {burn_in}")
    total = n + burn_in
    rng = np.random.default_rng(seed)
    # the noise buffer becomes the series: step t reads its draw, then writes y_t
    y = rng.normal(0.0, params.sigma, size=total) if params.sigma > 0 else np.zeros(total)
    phi0, gamma, c = float(params.phi0), float(params.gamma), float(params.c)
    phi, theta = params.phi.tolist(), params.theta.tolist()
    at = int(params.delay) - 1
    lags = [0.0] * params.order  # y_{t-1}, ..., y_{t-q}
    for start in range(0, total, _SIM_BLOCK):
        block = y[start: start + _SIM_BLOCK].tolist()
        for i, eps in enumerate(block):
            linear = nonlinear = 0.0
            for lag, p, th in zip(lags, phi, theta):
                linear += lag * p
                nonlinear += lag * th
            value = phi0 + linear + _logistic_scalar(gamma * (lags[at] - c)) * nonlinear + eps
            if abs(value) > DIVERGENCE_LIMIT:
                raise ExplosiveDynamicsError(
                    f"series diverged at step {start + i}: |y| = {abs(value):.3e} exceeds {DIVERGENCE_LIMIT:.0e}"
                )
            block[i] = value
            lags.pop()
            lags.insert(0, value)
        y[start: start + len(block)] = block
    values = y[burn_in:].copy() if burn_in else y
    return TimeSeries(name=name, timestamps=np.arange(n, dtype=np.int64), values=values)


def default_c_grid(values, count: int = 15) -> np.ndarray:
    """Evenly spaced interior quantiles of the observed values."""
    probs = np.arange(1, count + 1) / (count + 1)
    return np.quantile(np.asarray(values, dtype=np.float64), probs)


def estimate_lstar(series, order: int, delay: int = 1, gamma_grid=None, c_grid=None) -> tuple[LstarParams, float]:
    """Fit a logistic STAR by concentrated least squares over a (gamma, c) grid.

    For each grid point the gate values are fixed, which makes the remaining
    coefficients (intercept, AR terms, gated AR terms) an ordinary least
    squares problem on the regressor matrix ``[1, lags, lags * gate]``. The
    grid point with the smallest sum of squared residuals wins; exact ties go
    to the smallest gamma, then the smallest c. Grid points whose regressor
    matrix is numerically rank deficient are skipped; if every point is
    skipped, EstimationError is raised.

    The search factors the fixed block ``[1, lags]`` once, as Q1 R1. By
    Frisch-Waugh-Lovell a grid point then needs only the gated block
    residualized on Q1, next to the target residualized the same way, and
    the R factor of that narrow matrix: its last diagonal entry is the
    residual norm, so the SSE is its square (Teräsvirta 1994, JASA 89:208).
    The points are then refit by ``np.linalg.lstsq`` on the full design in
    order of that SSE, and the first one lstsq finds full rank, by its
    default ``rcond = eps * max(M, N)`` rule, wins. Usually that is the
    first point; the rank rule and the returned coefficients and SSE are
    exactly those of a full lstsq search whenever the SSE order agrees.

    Parameters
    ----------
    series : TimeSeries or 1-D array of observations.
    order : autoregressive order q.
    delay : index of the lag used as transition variable, in [1, order].
    gamma_grid : candidate steepness values; defaults to DEFAULT_GAMMA_GRID.
    c_grid : candidate midpoints; defaults to 15 evenly spaced interior
        quantiles of the series.

    Returns
    -------
    (params, sse) : the fitted LstarParams (its ``sigma`` is the residual
        standard deviation) and the winning sum of squared residuals.
    """
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    n = len(values)
    q = int(order)
    if q < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    if not 1 <= int(delay) <= q:
        raise ValueError(f"delay must lie in [1, {q}], got {delay}")
    min_rows = 2 * q + 2
    if n - q < min_rows:
        raise ValueError(
            f"series of length {n} is too short to fit order {q}: need at least {q + min_rows} points"
        )
    gamma_candidates = sorted(float(g) for g in (DEFAULT_GAMMA_GRID if gamma_grid is None else gamma_grid))
    c_candidates = sorted(float(c) for c in (default_c_grid(values) if c_grid is None else np.asarray(c_grid, dtype=np.float64)))
    if not gamma_candidates or not c_candidates:
        raise ValueError("gamma_grid and c_grid must be non-empty")
    if any(g <= 0 for g in gamma_candidates):
        raise ValueError("gamma candidates must be positive")

    target = values[q:]
    # column-major like ``aug`` below, so the per-point product streams
    lags = np.stack([values[q - i: n - i] for i in range(1, q + 1)]).T
    z = values[q - int(delay): n - int(delay)]
    m, ncols = n - q, 1 + 2 * q  # rows and columns of the full design

    basis = np.linalg.qr(np.column_stack([np.ones(m), lags]))[0]
    # columns: the residualized gated block, then the residualized target
    aug = np.empty((m, q + 1), order="F")
    aug[:, q] = target - basis @ (basis.T @ target)
    gated = aug[:, :q]
    tmp = np.empty_like(gated)
    sse = np.empty((len(gamma_candidates), len(c_candidates)))
    for i, gamma in enumerate(gamma_candidates):
        for j, c in enumerate(c_candidates):
            np.multiply(lags, _logistic(gamma * (z - c))[:, None], out=gated)
            gated -= np.matmul(basis, basis.T @ gated, out=tmp)
            sse[i, j] = np.linalg.qr(aug, mode="r")[q, q] ** 2
    del basis, aug, gated, tmp

    # from the smallest SSE on, the first point whose design lstsq finds full
    # rank wins; the stable sort keeps exact ties on the smallest gamma, then c
    for flat in np.argsort(sse, axis=None, kind="stable"):
        gamma, c = gamma_candidates[flat // len(c_candidates)], c_candidates[flat % len(c_candidates)]
        gate = _logistic(gamma * (z - c))
        # row-major, as column_stack of row-major lags makes it: the layout moves lstsq's bits
        design = np.empty((m, ncols))
        design[:, 0] = 1.0
        design[:, 1: q + 1] = lags
        np.multiply(lags, gate[:, None], out=design[:, q + 1:])
        coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank == ncols:
            break
    else:
        raise EstimationError(
            f"regressor matrix was rank deficient at all {sse.size} grid points; "
            "the series may not excite both regimes"
        )
    resid = target - design @ coef
    best_sse = float(resid @ resid)
    params = LstarParams(
        phi0=float(coef[0]),
        phi=coef[1: q + 1].copy(),
        theta=coef[q + 1:].copy(),
        gamma=gamma,
        c=c,
        delay=int(delay),
        sigma=float(np.sqrt(best_sse / m)),
    )
    return params, best_sse
