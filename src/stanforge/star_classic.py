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

from .data import TimeSeries, overflow_refused, series_values
from .numerics import finite_real, integer_in

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

# rows of the grid screen handled at once, for every grid point together
_SCREEN_BLOCK = 256
# safety factors of the screen: its resolution test and its SSE error bound
_SCREEN_RESOLVE = 64.0
_SCREEN_BOUND = 32.0
_UNIT_ROUNDOFF = 2.0 ** -53
# |gamma * (z - c)| past which a float64 logistic gate is 1 to the last bit, or below e**-37
_SATURATED = 37.0


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


@dataclass
class LstarParams:
    """Coefficients of a logistic STAR process of order q.

    y_t = phi0 + sum_i phi_i y_{t-i} + G(y_{t-delay}) * sum_i theta_i y_{t-i} + eps_t

    with G the logistic transition with steepness ``gamma`` and midpoint
    ``c``, and eps_t ~ N(0, sigma^2); ``sigma`` is a standard deviation.
    ``delay`` is a Python or NumPy integer in [1, q], stored as an ``int``,
    ``phi0``, ``gamma``, ``c`` and ``sigma`` finite Python or NumPy numbers,
    stored as floats, and ``phi`` and ``theta`` sequences of them;
    ``numerics.integer_in`` and ``numerics.finite_real`` refuse anything
    else naming the field or the entry, as ``phi entry 1``.
    """

    phi0: float
    phi: np.ndarray
    theta: np.ndarray
    gamma: float
    c: float
    delay: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        for name in ("phi0", "gamma", "c", "sigma"):
            setattr(self, name, finite_real(getattr(self, name), name))
        for name in ("phi", "theta"):  # entry by entry: float64 conversion would read True as 1.0 and "0.5" as 0.5
            entries = np.atleast_1d(np.asarray(getattr(self, name), dtype=object))
            setattr(self, name, np.array([finite_real(e, f"{name} entry {i}") for i, e in enumerate(entries.flat)],
                                         dtype=np.float64).reshape(entries.shape))
        if self.phi.ndim != 1 or self.theta.shape != self.phi.shape:
            raise ValueError(
                f"phi and theta must be 1-D and the same length, got {self.phi.shape} and {self.theta.shape}"
            )
        if self.phi.size == 0:
            raise ValueError("order must be at least 1")
        self.delay = integer_in(self.delay, "delay", 1, self.phi.size)
        if self.sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")

    @property
    def order(self) -> int:
        return int(self.phi.size)


def simulate_lstar(params: LstarParams, n: int, burn_in: int = 0, seed: int = 0,
                   name: str = "lstar") -> TimeSeries:
    """Simulate ``n`` observations after discarding ``burn_in``.

    The pre-sample lags are zeros and the noise comes from numpy's PCG64
    generator, so the same seed always yields the same series. Raises
    ExplosiveDynamicsError as soon as a value exceeds 1e12 in magnitude or is
    NaN (an overflowed product, as inf - inf), so every lag read is finite.

    The recursion runs on Python floats a block of 256 steps at a time, so no
    full-length list is held: a block list starts with the last q values of
    the one before (zeros at first), then its noise, and step i reads y_{t-k}
    as ``block[i - k]`` and writes y_t over its draw. Each AR sum adds lag 1
    first, from 0.0, and y_t adds ``phi0``, that sum, the gated sum and the
    noise: the order NumPy takes for ``phi0 + lags @ phi + gate * (lags @
    theta) + eps`` with ``lags = y[t-q:t][::-1]``, so the bits are the same.
    Zero coefficients are skipped, as a finite lag times a zero is a zero and
    a zero added to a sum that starts at +0.0 never changes its bits.
    ``n`` is a positive integer, ``burn_in`` and ``seed`` non-negative ones.
    """
    n, burn_in, seed = integer_in(n, "n", 1), integer_in(burn_in, "burn_in", 0), integer_in(seed, "seed", 0)
    total = n + burn_in
    rng = np.random.default_rng(seed)
    # the noise buffer becomes the series: step t reads its draw, then writes y_t
    y = rng.normal(0.0, params.sigma, size=total) if params.sigma > 0 else np.zeros(total)
    phi0, gamma, c = params.phi0, params.gamma, params.c
    q, delay = params.order, params.delay
    ar = [(k, p) for k, p in enumerate(params.phi.tolist(), 1) if p]
    gated = [(k, th) for k, th in enumerate(params.theta.tolist(), 1) if th]
    block = [0.0] * q
    for start in range(0, total, _SIM_BLOCK):
        block = block[-q:] + y[start: start + _SIM_BLOCK].tolist()
        for i in range(q, len(block)):
            linear = nonlinear = 0.0
            for k, p in ar:
                linear += block[i - k] * p
            for k, th in gated:
                nonlinear += block[i - k] * th
            # the two-branch logistic gate, both branches from one exp(-|t|)
            t = gamma * (block[i - delay] - c)
            e = math.exp(-abs(t))
            value = phi0 + linear + (1.0 if t >= 0.0 else e) / (1.0 + e) * nonlinear + block[i]
            if not abs(value) <= DIVERGENCE_LIMIT:  # NaN too: it would pass a > test
                raise ExplosiveDynamicsError(
                    f"series diverged at step {start + i - q}: |y| = {abs(value):.3e} exceeds {DIVERGENCE_LIMIT:.0e}"
                )
            block[i] = value
        y[start: start + _SIM_BLOCK] = block[q:]
    values = y[burn_in:].copy() if burn_in else y
    return TimeSeries(name=name, timestamps=np.arange(n, dtype=np.int64), values=values)


def default_c_grid(values, count: int = 15) -> np.ndarray:
    """``count`` evenly spaced interior quantiles of the observed values; ``count`` is a positive integer."""
    count = integer_in(count, "count", 1)
    probs = np.arange(1, count + 1) / (count + 1)
    return np.quantile(series_values(values), probs)


def _sorted_grid(name: str, grid) -> list[float]:
    """The entries of a grid as sorted floats; each must be a finite real number."""
    return sorted(finite_real(entry, f"{name} entry {i}") for i, entry in enumerate(grid))


def _gamma_n(count: int) -> float:
    """Higham's gamma_n = n u / (1 - n u): the relative error bound of a sum
    of n rounded products in float64."""
    nu = count * _UNIT_ROUNDOFF
    return nu / (1.0 - nu)


def _screen_grid(lags, target, z, gammas, cs):
    """Bounds ``(lower, upper)`` on the SSE of every grid point ``(gammas[p],
    cs[p])`` from its normal equations; ``(-inf, inf)`` where the screen
    cannot resolve the point. ``estimate_lstar`` explains the bounds."""
    m, q = lags.shape
    k = 2 * q + 2  # columns of a point's design, here ordered [lags, 1, y, lags * gate]
    fixed = q + 2
    pair_i, pair_j = np.triu_indices(q)  # the lag pairs i <= j
    pairs = len(pair_i)
    # per row t: l_ti l_tj for each pair, then l_t, then y_t l_t
    rows = np.empty((_SCREEN_BLOCK, pairs + 2 * q))
    cross = np.zeros((len(gammas), pairs + 2 * q))  # sum_t G_t of each
    gated = np.zeros((len(gammas), pairs))  # sum_t G_t^2 l_ti l_tj
    for start in range(0, m, _SCREEN_BLOCK):
        block = lags[start: start + _SCREEN_BLOCK]
        b = len(block)
        row = rows[:b]
        np.multiply(block[:, pair_i], block[:, pair_j], out=row[:, :pairs])
        row[:, pairs: pairs + q] = block
        np.multiply(block, target[start: start + b, None], out=row[:, pairs + q:])
        # the same elementwise operations as the verifier's gamma * (z - c); past
        # float range they give an infinity, which saturates the gate at 0 or 1
        with np.errstate(over="ignore"):
            gate = np.subtract(z[start: start + b], cs[:, None])
            gate *= gammas[:, None]
        gate = _logistic(gate)
        cross += gate @ row
        gate *= gate
        gated += gate @ row[:, :pairs]

    # the fixed block [lags, 1, y], from lags and target themselves
    fixed_gram = np.empty((fixed, fixed))
    fixed_gram[:q, :q] = lags.T @ lags
    fixed_gram[:q, q] = fixed_gram[q, :q] = lags.sum(axis=0)
    fixed_gram[:q, q + 1] = fixed_gram[q + 1, :q] = target @ lags
    fixed_gram[q, q] = m
    fixed_gram[q, q + 1] = fixed_gram[q + 1, q] = target.sum()
    fixed_gram[q + 1, q + 1] = target @ target
    gram = np.empty((len(gammas), k, k))
    gram[:, :fixed, :fixed] = fixed_gram
    # the gated block against the fixed block and itself
    gram[:, pair_i, fixed + pair_j] = gram[:, pair_j, fixed + pair_i] = cross[:, :pairs]
    gram[:, q, fixed:] = cross[:, pairs: pairs + q]
    gram[:, q + 1, fixed:] = cross[:, pairs + q:]
    gram[:, fixed:, :fixed] = gram[:, :fixed, fixed:].transpose(0, 2, 1)
    gram[:, fixed + pair_i, fixed + pair_j] = gram[:, fixed + pair_j, fixed + pair_i] = gated

    reg = np.r_[0: q + 1, q + 2: k]  # the regressors; y is column q + 1
    # below this squared column norm, products that underflow could carry
    # more error than the bound allows
    floor = 2.0 ** -1000 * max(1.0, lags.max(), -lags.min(), target.max(), -target.min()) ** 2
    with np.errstate(all="ignore"):
        squares = np.diagonal(gram, axis1=1, axis2=2)
        norms = np.sqrt(squares)
        scaled = gram / norms[:, :, None] / norms[:, None, :]
        unresolved = ~(np.all(np.isfinite(scaled), axis=(1, 2)) & (squares.min(axis=1) >= floor))
        n11 = scaled[:, reg[:, None], reg]
        n12 = scaled[:, reg, q + 1]
        n11[unresolved] = np.eye(k - 1)
        eig = np.linalg.eigvalsh(n11)
        unresolved |= ~(eig[:, 0] > _SCREEN_RESOLVE * k * _gamma_n(m) * eig[:, -1])
        n11[unresolved] = np.eye(k - 1)
        x = np.linalg.solve(n11, n12[:, :, None])[:, :, 0]
        y_norm = norms[:, q + 1]
        estimate = y_norm * y_norm * (scaled[:, q + 1, q + 1] - np.einsum("pi,pi->p", n12, x))
        weight = y_norm * (1.0 + np.abs(x).sum(axis=1))  # sum_i |w_i| ||a_i||
        bound = _SCREEN_BOUND * _gamma_n(m + k) * weight * weight
        lower, upper = estimate - bound, estimate + bound
    unresolved |= ~(np.isfinite(lower) & np.isfinite(upper))
    lower[unresolved], upper[unresolved] = -np.inf, np.inf
    return lower, upper


def _qr_sse(lags, target, z, points) -> np.ndarray:
    """The SSE of each ``(gamma, c)`` in ``points`` by the fixed-block QR:
    the gated block residualized on the orthonormal basis of ``[1, lags]``,
    next to the residualized target, and the square of the last diagonal
    entry of that narrow matrix's R factor."""
    m, q = lags.shape
    basis = np.linalg.qr(np.column_stack([np.ones(m), lags]))[0]
    # columns: the residualized gated block, then the residualized target
    aug = np.empty((m, q + 1), order="F")
    aug[:, q] = target - basis @ (basis.T @ target)
    gated = aug[:, :q]
    tmp = np.empty_like(gated)
    sse = np.empty(len(points))
    for i, (gamma, c) in enumerate(points):
        with np.errstate(over="ignore"):  # as in _screen_grid
            t = gamma * (z - c)
        np.multiply(lags, _logistic(t)[:, None], out=gated)
        gated -= np.matmul(basis, basis.T @ gated, out=tmp)
        sse[i] = np.linalg.qr(aug, mode="r")[q, q] ** 2
    return sse


def _rank_deficient_message(z, points) -> str:
    """Why no grid point could be fit, with the smallest ``|gamma * (z - c)|``
    over the grid: past ``_SATURATED`` at every point, as for a series in
    units much larger than the default grid's, every gate is saturated and
    the cause is the grid, not the series."""
    with np.errstate(over="ignore"):  # an infinite distance is as saturated as a finite one
        smallest = min(gamma * float(np.abs(z - c).min()) for gamma, c in points)
    reach = f"the smallest |gamma * (z - c)| over the grid is {smallest:.3g}, and the gamma grid is in the series' units"
    cause = (f"every gate saturates: {reach}" if smallest > _SATURATED
             else f"the series may not excite both regimes ({reach})")
    return f"regressor matrix was rank deficient at all {len(points)} grid points; {cause}"


def estimate_lstar(series, order: int, delay: int = 1, gamma_grid=None, c_grid=None) -> tuple[LstarParams, float]:
    """Fit a logistic STAR by concentrated least squares over a (gamma, c) grid.

    For each grid point the gate values are fixed, which makes the remaining
    coefficients (intercept, AR terms, gated AR terms) an ordinary least
    squares problem on the regressor matrix ``[1, lags, lags * gate]``. The
    grid point with the smallest sum of squared residuals wins; exact ties go
    to the smallest gamma, then the smallest c. Grid points whose regressor
    matrix is numerically rank deficient are skipped; if every point is
    skipped, EstimationError is raised, naming the smallest ``|gamma * (z -
    c)|`` over the grid and whether every gate saturates.

    The SSE of a point is taken by a fixed-block QR (Teräsvirta 1994, JASA
    89:208): the fixed block ``[1, lags]`` is factored once, as Q1 R1, and by
    Frisch-Waugh-Lovell a point needs only its gated block residualized on
    Q1, next to the target residualized the same way, and the R factor of
    that narrow matrix, whose last diagonal entry is the residual norm.

    Only the points that can win are factored. A screen first bounds every
    point's SSE by its normal equations, all points at once: one pass over
    blocks of rows accumulates ``sum_t G_t l_t f_t^T`` and ``sum_t G_t^2 l_t
    l_t^T`` for every point with two matrix products, where ``G_t`` is the
    point's gate at row t, ``l_t`` holds the lags of row t and ``f_t = [lags,
    1, y]`` its fixed columns. With the fixed block's own products, taken
    once, each point has the Gram matrix ``N = A^T A`` of its full design
    ``A = [1, lags, lags * gate, y]`` (k = 2q + 2 columns ``a_i`` over m
    rows), split as ``[[N11, n12], [n12^T, n22]]`` with y last. Scaled to
    unit diagonal, one batched solve gives ``x = N11^-1 n12`` and the
    estimate ``est = n22 - n12 . x``.

    The bound: with ``w = [-x; 1]``, the SSE is ``w^T N w`` at the minimum.
    Forming N rounds each entry by ``|dN_ij| <= gamma_m ||a_i|| ||a_j||``
    (``gamma_n = n u / (1 - n u)``, u the unit roundoff, ``||a_i|| =
    sqrt(N_ii)``); the solve's backward error is a perturbation of N of the
    same form; and the QR SSE is the exact SSE of a design perturbed column
    by column by ``gamma ||a_i||``. Each moves the SSE by about ``w^T dN w
    <= gamma (sum_i |w_i| ||a_i||)^2``, so the screen takes ``|est - SSE| <=
    F gamma_{m+k} (sum_i |w_i| ||a_i||)^2``, with the safety factor F = 32.

    The resolution test: the bound presumes a well-posed solve and no
    underflow, so a point stays unresolved, with bounds (-inf, inf), when a
    design column has zero or non-finite norm (a saturated gate underflows
    to exactly 0), when a squared column norm falls below 2^-1000 times the
    largest squared observation (where underflowed products could outgrow
    the bound), when its unit-diagonal N11 has ``lambda_min <= C k gamma_m
    lambda_max`` with C = 64, or when its bounds are not finite.

    The verification order: let U be the least upper bound of all points.
    The QR SSE is taken for every point whose lower bound is at most U,
    which includes every unresolved point. The factored points are then
    walked in (SSE, gamma, c) order and refit by ``np.linalg.lstsq`` on the
    full design; the first one lstsq finds full rank, by its default
    ``rcond = eps * max(m, 2q + 1)`` rule, wins. Before a point of SSE s is
    refit, every point not yet factored whose lower bound is at most s (or
    at most the least upper bound of the points not yet factored, if that is
    smaller) is factored and joins the walk, so no point outside the walk
    can precede the one refit. Whenever the bounds hold, this takes the
    points in the order, with the tie rule, of a QR search over the whole
    grid, and its winner, coefficients and SSE are those of that search; at
    worst it factors every point. Usually one point is factored and refit.

    Parameters
    ----------
    series : TimeSeries or 1-D array of finite observations.
    order : autoregressive order q.
    delay : index of the lag used as transition variable, in [1, order].
    gamma_grid : candidate steepness values; defaults to DEFAULT_GAMMA_GRID.
    c_grid : candidate midpoints; defaults to 15 evenly spaced interior
        quantiles of the series.

    Every grid entry must pass ``numerics.finite_real``, every gamma be
    positive and the series pass ``data.series_values``, or a ValueError
    naming the entry, or the series and its index, is raised before any work.
    A series whose squares leave float range raises a ValueError naming its
    largest magnitude (``data.overflow_refused``).

    Returns
    -------
    (params, sse) : the fitted LstarParams (its ``sigma`` is the residual
        standard deviation) and the winning sum of squared residuals.
    """
    values = series_values(series)
    n = len(values)
    q = integer_in(order, "order", 1)
    delay = integer_in(delay, "delay", 1, q)
    min_rows = 2 * q + 2
    if n - q < min_rows:
        raise ValueError(
            f"series of length {n} is too short to fit order {q}: need at least {q + min_rows} points"
        )
    with overflow_refused(values, "series"):  # squares past float range are refused, not warned about
        gamma_candidates = _sorted_grid("gamma_grid", DEFAULT_GAMMA_GRID if gamma_grid is None else gamma_grid)
        c_candidates = _sorted_grid("c_grid", default_c_grid(values) if c_grid is None else c_grid)
        if not gamma_candidates or not c_candidates:
            raise ValueError("gamma_grid and c_grid must be non-empty")
        if any(g <= 0 for g in gamma_candidates):
            raise ValueError("gamma candidates must be positive")

        target = values[q:]
        # column-major, so the verifier's per-point product streams
        lags = np.stack([values[q - i: n - i] for i in range(1, q + 1)]).T
        z = values[q - delay: n - delay]
        m, ncols = n - q, 1 + 2 * q  # rows and columns of the full design
        # grid points in flat order: gamma major, then c
        points = [(gamma, c) for gamma in gamma_candidates for c in c_candidates]
        lower, upper = _screen_grid(lags, target, z, np.repeat(gamma_candidates, len(c_candidates)),
                                    np.tile(c_candidates, len(gamma_candidates)))

        sse = np.full(len(points), np.nan)
        factored = np.zeros(len(points), dtype=bool)
        refused = np.zeros(len(points), dtype=bool)
        while True:
            walk = np.flatnonzero(factored & ~refused)
            # the next point of the walk: least SSE, then least flat index; NaN last
            flat = walk[np.argsort(sse[walk], kind="stable")[0]] if walk.size else None
            reach = np.fmin(np.inf if flat is None else sse[flat], upper[~factored].min(initial=np.inf))
            due = np.flatnonzero(~factored & (lower <= reach))
            if due.size:
                sse[due] = _qr_sse(lags, target, z, [points[i] for i in due])
                factored[due] = True
                continue
            if flat is None:
                raise EstimationError(_rank_deficient_message(z, points))
            gamma, c = points[flat]
            with np.errstate(over="ignore"):  # as in _screen_grid
                gate = _logistic(gamma * (z - c))
            # row-major, as column_stack of row-major lags makes it: the layout moves lstsq's bits
            design = np.empty((m, ncols))
            design[:, 0] = 1.0
            design[:, 1: q + 1] = lags
            np.multiply(lags, gate[:, None], out=design[:, q + 1:])
            coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
            if rank == ncols:
                break
            refused[flat] = True
        resid = target - design @ coef
        best_sse = float(resid @ resid)
    params = LstarParams(
        phi0=float(coef[0]),
        phi=coef[1: q + 1],
        theta=coef[q + 1:],
        gamma=gamma,
        c=c,
        delay=delay,
        sigma=float(np.sqrt(best_sse / m)),
    )
    return params, best_sse
