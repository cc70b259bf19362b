import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import nonlinear_generator
from stanforge.star_classic import (
    DEFAULT_GAMMA_GRID,
    DIVERGENCE_LIMIT,
    EstimationError,
    ExplosiveDynamicsError,
    LstarParams,
    _logistic,
    _rank_deficient_message,
    _screen_grid,
    default_c_grid,
    estimate_lstar,
    simulate_lstar,
)


# -------------------------------------------------------------- referees ---

def _two_branch_logistic(t):
    """The masked two-branch logistic this package used to ship, kept as the
    referee of ``_logistic`` and of the lstsq grid search below."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _scalar_logistic(t):
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _reference_simulate(params, n, burn_in=0, seed=0):
    """The float64-array simulation loop this package used to ship, kept as
    the referee of ``simulate_lstar``: the values, or ExplosiveDynamicsError."""
    q = params.order
    total = n + burn_in
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, params.sigma, size=total) if params.sigma > 0 else np.zeros(total)
    y = np.zeros(total + q)
    for t in range(q, total + q):
        lags = y[t - q: t][::-1]  # y_{t-1}, ..., y_{t-q}
        z = y[t - params.delay]
        gate = _scalar_logistic(params.gamma * (z - params.c))
        value = params.phi0 + lags @ params.phi + gate * (lags @ params.theta) + noise[t - q]
        if abs(value) > DIVERGENCE_LIMIT:
            raise ExplosiveDynamicsError(
                f"series diverged at step {t - q}: |y| = {abs(value):.3e} exceeds {DIVERGENCE_LIMIT:.0e}"
            )
        y[t] = value
    return y[q + burn_in:].copy()


# -------------------------------------------------------------- simulation --

def test_degenerate_process_is_constant_intercept():
    params = LstarParams(phi0=3.25, phi=[0.0], theta=[0.0], gamma=1.0, c=0.0, sigma=0.0)
    series = simulate_lstar(params, n=20)
    assert np.array_equal(series.values, np.full(20, 3.25))


def test_geometric_recursion_converges_to_fixed_point():
    # y_t = 1 + 0.5 y_{t-1} -> 2
    params = LstarParams(phi0=1.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0, sigma=0.0)
    series = simulate_lstar(params, n=200)
    assert series.values[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(series.values) >= -1e-15)


def test_simulation_deterministic_per_seed():
    params = LstarParams(phi0=0.1, phi=[0.6], theta=[-0.9], gamma=5.0, c=0.0, sigma=0.2)
    a = simulate_lstar(params, n=300, seed=9)
    b = simulate_lstar(params, n=300, seed=9)
    c = simulate_lstar(params, n=300, seed=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_burn_in_drops_transient():
    params = LstarParams(phi0=1.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0, sigma=0.0)
    full = simulate_lstar(params, n=150, burn_in=0)
    tail = simulate_lstar(params, n=100, burn_in=50)
    assert np.array_equal(tail.values, full.values[50:])


def test_explosive_process_raises_with_step():
    params = LstarParams(phi0=0.0, phi=[1.5], theta=[0.0], gamma=1.0, c=0.0, sigma=1.0)
    with pytest.raises(ExplosiveDynamicsError, match="step"):
        simulate_lstar(params, n=5000, seed=0)


def test_two_regime_series_visits_both_regimes():
    # the upper regime is self-limiting (0.9 - 1.4 < 0), so time above c is
    # structurally scarcer than time below; both sides must still be visited
    params = LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.1)
    series = simulate_lstar(params, n=2000, seed=1)
    values = series.values
    assert (values > 0.05).mean() > 0.08
    assert (values < -0.05).mean() > 0.4
    crossings = np.count_nonzero(np.diff(values > 0.0))
    assert crossings > 100


def test_simulation_input_validation():
    params = LstarParams(phi0=0.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0)
    with pytest.raises(ValueError):
        simulate_lstar(params, n=0)
    with pytest.raises(ValueError):
        simulate_lstar(params, n=10, burn_in=-1)


@pytest.mark.parametrize("field,value,least", [
    ("n", True, 1), ("n", 3.0, 1), ("n", np.float64(5.0), 1), ("n", "5", 1), ("n", 0, 1),
    ("burn_in", 2.0, 0), ("burn_in", np.True_, 0), ("burn_in", -1, 0),
    ("seed", True, 0), ("seed", 1.0, 0), ("seed", None, 0), ("seed", -1, 0),
])
def test_simulation_sizes_and_seed_must_be_integers_naming_the_field(field, value, least):
    params = LstarParams(phi0=0.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0, sigma=0.1)
    kwargs = {"n": 10, "burn_in": 0, "seed": 0, field: value}
    rule = "a positive integer" if least == 1 else "a non-negative integer"
    with pytest.raises(ValueError, match=f"^{field} must be {rule}, got {re.escape(repr(value))}$"):
        simulate_lstar(params, **kwargs)


def test_simulation_takes_numpy_integer_sizes_and_seed():
    params = LstarParams(phi0=0.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0, sigma=0.1)
    a = simulate_lstar(params, n=np.int64(30), burn_in=np.uint8(5), seed=np.int32(4))
    assert a.values.tobytes() == simulate_lstar(params, n=30, burn_in=5, seed=4).values.tobytes()


def test_params_validation():
    with pytest.raises(ValueError, match="same length"):
        LstarParams(phi0=0.0, phi=[0.5, 0.1], theta=[0.0], gamma=1.0, c=0.0)
    with pytest.raises(ValueError, match="delay"):
        LstarParams(phi0=0.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0, delay=2)
    with pytest.raises(ValueError, match="sigma"):
        LstarParams(phi0=0.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0, sigma=-0.1)
    with pytest.raises(ValueError, match="^order must be at least 1$"):
        LstarParams(phi0=0.0, phi=[], theta=[], gamma=1.0, c=0.0)


@pytest.mark.parametrize("field,value", [
    ("phi0", math.nan), ("gamma", math.nan), ("gamma", math.inf), ("c", -math.inf),
    ("sigma", math.nan), ("sigma", math.inf), ("phi", [0.5, math.nan]), ("theta", [math.inf, 0.0]),
])
def test_params_refuse_non_finite_values(field, value):
    fields = dict(phi0=0.0, phi=[0.5, 0.1], theta=[0.0, 0.0], gamma=1.0, c=0.0, sigma=0.1)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} .*must be a finite real number"):
        LstarParams(**fields)


@pytest.mark.parametrize("field,value", [("delay", 1.5), ("delay", 1.0), ("delay", True),
                                         ("phi0", True), ("gamma", True), ("c", False), ("sigma", True),
                                         ("phi0", np.True_), ("gamma", "1"), ("sigma", None),
                                         ("phi", [True, 0.1]), ("phi", [0.5, np.True_]),
                                         ("theta", ["0.5", 0.0]), ("theta", [0.0, b"1"])])
def test_params_refuse_bools_and_fractional_delays(field, value):
    fields = dict(phi0=0.0, phi=[0.5, 0.1], theta=[0.0, 0.0], gamma=1.0, c=0.0, sigma=0.1)
    fields[field] = value
    shown = repr(next(v for v in value if type(v) is not float) if isinstance(value, list) else value)
    with pytest.raises(ValueError, match=f"^{field}( entry [01])? must be (an integer|a finite real number).*got {re.escape(shown)}$"):
        LstarParams(**fields)


def test_params_take_a_numpy_integer_delay():
    params = LstarParams(phi0=0.0, phi=[0.5, 0.1], theta=[0.0, 0.0], gamma=1.0, c=0.0, delay=np.int64(2))
    assert simulate_lstar(params, n=20, seed=1).values.tobytes() == simulate_lstar(
        LstarParams(phi0=0.0, phi=[0.5, 0.1], theta=[0.0, 0.0], gamma=1.0, c=0.0, delay=2), n=20, seed=1).values.tobytes()


def test_sharp_gate_approaches_hard_threshold_switch():
    """As gamma grows the smooth gate becomes a two-regime switch."""
    sharp = LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=1e4, c=0.0, sigma=0.05)
    series = simulate_lstar(sharp, n=1000, seed=2)
    y = series.values
    prev = y[:-1]
    away_from_c = np.abs(prev) > 2e-3  # gamma * 2e-3 = 20, and exp(-20) << 1e-6
    gate = 1.0 / (1.0 + np.exp(-np.clip(sharp.gamma * prev[away_from_c], -700, 700)))
    assert away_from_c.mean() > 0.9
    assert np.all(np.minimum(gate, 1.0 - gate) < 1e-6)


_coefficients = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.5, 1.5))


@st.composite
def _lstar_params(draw):
    q = draw(st.integers(1, 8))
    return LstarParams(
        phi0=draw(_coefficients),
        phi=draw(st.lists(_coefficients, min_size=q, max_size=q)),
        theta=draw(st.lists(_coefficients, min_size=q, max_size=q)),
        gamma=draw(st.one_of(st.sampled_from([0.0, 1e300]), st.floats(0.0, 1e300))),
        c=draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))),
        delay=draw(st.integers(1, q)),
        sigma=draw(st.sampled_from([0.0, 0.05, 0.5, 2.0])),
    )


@settings(max_examples=100, deadline=None)
@given(params=_lstar_params(), n=st.integers(1, 300), burn_in=st.integers(0, 100), seed=st.integers(0, 2**16))
def test_simulation_matches_array_loop_reference(params, n, burn_in, seed):
    try:
        with np.errstate(over="ignore"):  # gamma * (z - c) may overflow to +-inf, as a float does
            expected = _reference_simulate(params, n, burn_in, seed)
    except ExplosiveDynamicsError as exc:
        with pytest.raises(ExplosiveDynamicsError) as raised:
            simulate_lstar(params, n=n, burn_in=burn_in, seed=seed)
        assert str(raised.value) == str(exc)
        return
    assert simulate_lstar(params, n=n, burn_in=burn_in, seed=seed).values.tobytes() == expected.tobytes()


# sha256 of the float64 bytes of the series the benchmark simulates
SIMULATION_SHA256 = {
    # the lstar_oracle input: 20000 steps, 78 block boundaries
    "nonlinear_generator_n20000_seed1": "ba47ead435b9a60b625d2f711421e3dfbf3df89d281baf7d601b0211a808e06f",
    # the LSTAR(1) of `fixtures` and of `simulate` at its defaults, at --n 4000 --burn-in 200
    "lstar1_n4000_burn200_seed0": "b14b640979fb063c5990c371b3ce248862f42f3d128ddcd07a25ca474c91604a",
}


def test_simulation_keeps_its_bytes_at_the_benchmark_series():
    lstar1 = LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.05)
    series = {
        "nonlinear_generator_n20000_seed1": simulate_lstar(nonlinear_generator(), n=20_000, seed=1),
        "lstar1_n4000_burn200_seed0": simulate_lstar(lstar1, n=4000, burn_in=200, seed=0),
    }
    digests = {name: hashlib.sha256(s.values.tobytes()).hexdigest() for name, s in series.items()}
    assert digests == SIMULATION_SHA256


def test_nan_step_raises_as_divergence():
    # at this seed theta_2 y_0 overflows to inf, and the gate of y_0 - 1e11 is 0.0,
    # so y_2 = 0.0 * inf is NaN; the finite-lag sums skip zero coefficients only as
    # long as no NaN is written
    params = LstarParams(phi0=0.0, phi=[0.0, 0.5], theta=[0.0, 1e300], gamma=1.0, c=1e11, delay=2, sigma=1e8)
    with pytest.raises(ExplosiveDynamicsError, match=r"^series diverged at step 2: \|y\| = nan exceeds 1e\+12$"):
        simulate_lstar(params, n=1, burn_in=3, seed=68)


def test_simulation_peak_memory_stays_bounded():
    """At 20k points the simulator holds the noise buffer that becomes the
    series and one block of floats, never a full-length list of them."""
    params = LstarParams(phi0=0.4, phi=[0.35, 0.12, 0.10, 0.08, 0.06, 0.05, 0.04, 0.03],
                         theta=[-1.5, 0, 0, 0, 0, 0, 0, 0], gamma=10.0, c=0.7, sigma=0.05)
    simulate_lstar(params, n=300, seed=0)  # lazy set-up, such as the generator's, is not the loop's
    tracemalloc.start()
    try:
        series = simulate_lstar(params, n=20_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(series) == 20_000
    assert peak <= 1_000_000, f"tracemalloc peak {peak} bytes"


_logistic_inputs = st.lists(
    st.one_of(
        st.floats(-1e6, 1e6),
        st.floats(-40.0, 40.0),  # where 1 + exp(-|t|) still differs from 1
        st.sampled_from([745.0, -745.0, 0.0, -0.0, math.inf, -math.inf]),
        st.floats(-2.3e-308, 2.3e-308),  # subnormals and the smallest normals
    ),
    max_size=70,  # past every SIMD width, with a remainder
)


@settings(max_examples=100, deadline=None)
@given(values=_logistic_inputs)
def test_logistic_matches_two_branch_form(values):
    t = np.array(values, dtype=np.float64)
    assert _logistic(t).tobytes() == _two_branch_logistic(t).tobytes()


# -------------------------------------------------------------- estimation --

def test_noiseless_round_trip_recovers_generator():
    truth = LstarParams(phi0=0.05, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.0)
    series = simulate_lstar(truth, n=1500, seed=3)
    est, sse = estimate_lstar(
        series, order=1,
        gamma_grid=(0.5, 1, 2, 5, 10, 20, 50),
        c_grid=(-0.5, -0.25, 0.0, 0.25, 0.5),
    )
    assert est.gamma == 20.0
    assert est.c == 0.0
    assert est.phi0 == pytest.approx(0.05, abs=1e-6)
    assert est.phi[0] == pytest.approx(0.9, abs=1e-6)
    assert est.theta[0] == pytest.approx(-1.4, abs=1e-6)
    assert sse < 1e-10


def test_pure_ar_data_yields_near_zero_theta():
    truth = LstarParams(phi0=0.2, phi=[0.7], theta=[0.0], gamma=5.0, c=0.0, sigma=0.1)
    series = simulate_lstar(truth, n=2000, seed=11)
    est, _ = estimate_lstar(series, order=1)
    assert abs(est.theta[0]) < 0.05
    assert est.phi[0] == pytest.approx(0.7, abs=0.1)


def test_noisy_recovery_within_tolerance():
    truth = LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.1)
    series = simulate_lstar(truth, n=2000, seed=5)
    est, _ = estimate_lstar(series, order=1, c_grid=(-0.2, -0.1, 0.0, 0.1, 0.2))
    assert est.phi[0] == pytest.approx(0.9, abs=0.1)
    assert est.theta[0] == pytest.approx(-1.4, abs=0.1)


def test_estimated_sigma_is_residual_scale():
    truth = LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.1)
    series = simulate_lstar(truth, n=2000, seed=6)
    est, sse = estimate_lstar(series, order=1, c_grid=(0.0,))
    assert est.sigma == pytest.approx(np.sqrt(sse / (2000 - 1)), rel=1e-12)
    assert est.sigma == pytest.approx(0.1, abs=0.02)


def test_refined_grid_never_does_worse():
    truth = LstarParams(phi0=0.1, phi=[0.8], theta=[-1.2], gamma=8.0, c=0.1, sigma=0.05)
    series = simulate_lstar(truth, n=800, seed=7)
    coarse_gammas = (1.0, 10.0)
    fine_gammas = (0.5, 1.0, 5.0, 8.0, 10.0, 20.0)
    cs = (-0.2, 0.0, 0.1, 0.2)
    _, sse_coarse = estimate_lstar(series, order=1, gamma_grid=coarse_gammas, c_grid=cs)
    _, sse_fine = estimate_lstar(series, order=1, gamma_grid=fine_gammas, c_grid=cs)
    assert sse_fine <= sse_coarse


def test_ties_resolve_to_smallest_gamma_then_c():
    # constant series: every grid point is rank deficient except none survive,
    # so use a flat-gate equivalence instead: theta = 0 makes all gates equal
    truth = LstarParams(phi0=0.3, phi=[0.5], theta=[0.0], gamma=2.0, c=0.0, sigma=0.05)
    series = simulate_lstar(truth, n=600, seed=8)
    c_values = default_c_grid(series.values, count=5)
    est, _ = estimate_lstar(series, order=1, gamma_grid=(1.0, 2.0), c_grid=c_values)
    assert est.gamma in (1.0, 2.0)
    assert min(c_values) <= est.c <= max(c_values)


def test_constant_series_fails_estimation():
    flat = LstarParams(phi0=1.0, phi=[0.0], theta=[0.0], gamma=1.0, c=0.0, sigma=0.0)
    series = simulate_lstar(flat, n=300)
    with pytest.raises(EstimationError, match="rank deficient"):
        estimate_lstar(series, order=1, c_grid=(0.5, 1.0, 1.5))


def test_estimation_input_validation():
    truth = LstarParams(phi0=0.0, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0, sigma=0.1)
    series = simulate_lstar(truth, n=50, seed=9)
    with pytest.raises(ValueError, match="order"):
        estimate_lstar(series, order=0)
    with pytest.raises(ValueError, match="delay"):
        estimate_lstar(series, order=2, delay=3)
    with pytest.raises(ValueError, match="^order must be a positive integer, got 1.0$"):
        estimate_lstar(series, order=1.0)
    with pytest.raises(ValueError, match="^delay must be an integer in \\[1, 2\\], got True$"):
        estimate_lstar(series, order=2, delay=True)
    with pytest.raises(ValueError, match="too short"):
        estimate_lstar(series.values[:5], order=2)
    with pytest.raises(ValueError, match="positive"):
        estimate_lstar(series, order=1, gamma_grid=(-1.0, 2.0))
    for grids in ({"gamma_grid": ()}, {"c_grid": []}):
        with pytest.raises(ValueError, match="^gamma_grid and c_grid must be non-empty$"):
            estimate_lstar(series, order=1, **grids)
    for name, grid, shown in [("gamma_grid", [True, 2.0], "True"), ("c_grid", ["0.1"], "'0.1'"),
                              ("gamma_grid", [math.nan, 2.0], "nan"), ("c_grid", [math.inf, 0.0], "inf"),
                              ("c_grid", [math.nan], "nan"), ("gamma_grid", [math.inf], "inf"),
                              ("c_grid", [0.0, None], "None"), ("gamma_grid", np.array([1.0, np.nan]), "np.float64(nan)")]:
        with pytest.raises(ValueError, match=f"^{name} entry [01] must be a finite real number, got {re.escape(shown)}$"):
            estimate_lstar(series, order=1, **{name: grid})
    for bad in (math.nan, math.inf):
        values = series.values.copy()
        values[20] = bad
        with pytest.raises(ValueError, match=f"^series must hold no NaN or infinity, got {bad!r} at index 20$"):
            estimate_lstar(values, order=1)


def test_default_c_grid_spans_interior_quantiles():
    values = np.arange(160.0)
    grid = default_c_grid(values)
    assert len(grid) == 15
    assert np.all(np.diff(grid) > 0)
    assert values.min() < grid[0] and grid[-1] < values.max()


@pytest.mark.parametrize("count", [0, -3, True, 2.5, np.float64(3.0), "15", None])
def test_default_c_grid_count_must_be_a_positive_integer(count):
    with pytest.raises(ValueError, match=f"^count must be a positive integer, got {re.escape(repr(count))}$"):
        default_c_grid(np.arange(160.0), count)


def test_default_c_grid_takes_a_numpy_integer_count():
    assert default_c_grid(np.arange(160.0), np.int64(4)).tolist() == default_c_grid(np.arange(160.0), 4).tolist()
    assert len(default_c_grid(np.arange(160.0), 1)) == 1


def test_a_gate_input_past_float_range_saturates_the_gate():
    """gamma * (z - c) past float range is an infinity, a gate of exactly 0 or 1, not an overflow warning."""
    series = simulate_lstar(LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.1), n=80, seed=3)
    expected = estimate_lstar(series, order=1, c_grid=[0.0])
    for far in (8.98846567431158e306, -1.7e308, 1.7e308):
        assert estimate_lstar(series, order=1, c_grid=[0.0, far]) == expected


def test_estimate_accepts_plain_arrays():
    truth = LstarParams(phi0=0.05, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.0)
    series = simulate_lstar(truth, n=400, seed=3)
    est_ts, sse_ts = estimate_lstar(series, order=1, gamma_grid=(20.0,), c_grid=(0.0,))
    est_arr, sse_arr = estimate_lstar(series.values, order=1, gamma_grid=(20.0,), c_grid=(0.0,))
    assert sse_ts == sse_arr
    assert est_ts.phi[0] == est_arr.phi[0]


# ------------------------------------------- screened search vs lstsq ---

def _reference_search(values, order, delay, gamma_grid, c_grid):
    """The full-design lstsq search over the whole grid that this package
    used to ship, kept as the referee of the screened search: ``(gamma, c,
    coef, sse)`` of the winner, the least SSE with ties to the smallest
    gamma, then c, skipping the points lstsq finds rank deficient; or
    EstimationError with the estimator's text."""
    n, q = len(values), order
    points = [(float(g), float(c)) for g in sorted(gamma_grid) for c in sorted(c_grid)]
    target = values[q:]
    lags = np.column_stack([values[q - i: n - i] for i in range(1, q + 1)])
    z = values[q - delay: n - delay]
    ones = np.ones(n - q)
    best = None
    for gamma, c in points:
        design = np.column_stack([ones, lags, lags * _two_branch_logistic(gamma * (z - c))[:, None]])
        coef, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < 1 + 2 * q:
            continue
        resid = target - design @ coef
        sse = float(resid @ resid)
        if best is None or sse < best[3]:
            best = (gamma, c, coef, sse)
    if best is None:
        raise EstimationError(_rank_deficient_message(z, points))
    return best


def _same_as_reference(values, order, delay, gamma_grid, c_grid):
    """Assert estimate_lstar returns the reference's winner, SSE and
    coefficients byte for byte, or raises an EstimationError of its text."""
    try:
        gamma, c, coef, sse = _reference_search(values, order, delay, gamma_grid, c_grid)
    except EstimationError as exc:
        with pytest.raises(EstimationError) as raised:
            estimate_lstar(values, order=order, delay=delay, gamma_grid=gamma_grid, c_grid=c_grid)
        assert str(raised.value) == str(exc)
        return
    est, est_sse = estimate_lstar(values, order=order, delay=delay, gamma_grid=gamma_grid, c_grid=c_grid)
    assert (est.gamma, est.c) == (gamma, c)
    assert np.float64(est_sse).tobytes() == np.float64(sse).tobytes()
    assert np.concatenate([[est.phi0], est.phi, est.theta]).tobytes() == coef.tobytes()


@st.composite
def _screen_cases(draw):
    q = draw(st.integers(1, 8))
    truth = LstarParams(
        phi0=draw(st.floats(-0.5, 0.5)),
        phi=[draw(st.floats(-0.6, 0.6))] + draw(st.lists(st.floats(-0.1, 0.1), min_size=q - 1, max_size=q - 1)),
        theta=[draw(st.floats(-1.5, 1.5))] + [0.0] * (q - 1),
        gamma=draw(st.sampled_from([1.0, 5.0, 20.0])),
        c=draw(st.floats(-0.5, 0.5)),
        delay=draw(st.integers(1, q)),
        sigma=draw(st.sampled_from([0.0, 1e-4, 1e-3, 0.01, 0.1, 0.5])),
    )
    n = draw(st.integers(60, 800))
    seed = draw(st.integers(0, 2**16))
    delay = draw(st.integers(1, q))
    gamma_grid = draw(st.lists(st.sampled_from(DEFAULT_GAMMA_GRID + (0.1, 200.0)), min_size=1, max_size=7, unique=True))
    c_count = draw(st.integers(1, 12))
    # midpoints beyond the data: gates saturate to exactly 1, underflow to 0, or nearly so
    saturated = draw(st.lists(st.sampled_from([-40.0, -8.0, -3.0, 3.0, 8.0, 40.0]), max_size=3, unique=True))
    # near twins of interior midpoints: SSEs that differ by rounding alone
    twins = draw(st.lists(st.sampled_from([1e-15, 1e-12, 1e-9]), max_size=3))
    return truth, n, seed, delay, gamma_grid, c_count, saturated, twins


@settings(max_examples=100, deadline=None)
@given(case=_screen_cases())
def test_screened_search_matches_full_lstsq_search(case):
    truth, n, seed, delay, gamma_grid, c_count, saturated, twins = case
    try:
        values = simulate_lstar(truth, n=n, burn_in=20, seed=seed).values
    except ExplosiveDynamicsError:
        assume(False)
    low, high = values.min(), values.max()
    c_grid = list(default_c_grid(values, count=c_count))
    c_grid += [c + step * (high - low) for c, step in zip(c_grid, twins)]
    c_grid += [low + s if s < 0 else high + s for s in saturated]
    _same_as_reference(values, truth.order, delay, gamma_grid, c_grid)


def test_saturated_gates_are_skipped_like_lstsq():
    """Below every observation a steep gate is exactly 1 (the gated block
    repeats the lags); far above it underflows to exactly 0. Both make the
    design rank deficient, so both searches skip those points."""
    truth = LstarParams(phi0=0.1, phi=[0.6, 0.1], theta=[-0.9, 0.0], gamma=10.0, c=0.0, sigma=0.2)
    values = simulate_lstar(truth, n=500, seed=4).values
    low, high = values.min(), values.max()
    saturated = (low - 10.0, low - 5.0, high + 20.0)
    for gamma in (10.0, 50.0):
        for c in saturated:
            with pytest.raises(EstimationError, match="rank deficient at all 1 grid points"):
                estimate_lstar(values, order=2, gamma_grid=(gamma,), c_grid=(c,))
    with pytest.raises(EstimationError, match="rank deficient at all 6 grid points"):
        estimate_lstar(values, order=2, gamma_grid=(10.0, 50.0), c_grid=saturated)
    mixed = saturated + tuple(default_c_grid(values, count=3))
    _same_as_reference(values, 2, 1, (10.0, 50.0), mixed)
    est, _ = estimate_lstar(values, order=2, gamma_grid=(10.0, 50.0), c_grid=mixed)
    assert low < est.c < high


def test_a_series_in_units_past_the_gamma_grid_is_refused_as_saturated():
    """Scaled by 1e150, a series that fits puts every default grid point's
    gate past saturation; the refusal names the grid, not the series."""
    truth = LstarParams(phi0=0.1, phi=[0.6], theta=[-0.9], gamma=5.0, c=0.0, sigma=0.2)
    values = simulate_lstar(truth, n=80, seed=3).values
    estimate_lstar(values, order=1)
    with pytest.raises(EstimationError) as raised:
        estimate_lstar(values * 1e150, order=1)
    message = str(raised.value)
    assert message.startswith("regressor matrix was rank deficient at all 105 grid points; every gate saturates: ")
    assert "the gamma grid is in the series' units" in message
    smallest = float(re.search(r"the smallest \|gamma \* \(z - c\)\| over the grid is (\S+),", message)[1])
    assert smallest > 1e140
    # a series that does not excite both regimes keeps that reading
    flat = simulate_lstar(LstarParams(phi0=1.0, phi=[0.0], theta=[0.0], gamma=1.0, c=0.0, sigma=0.0), n=300)
    with pytest.raises(EstimationError, match=r"the series may not excite both regimes \(the smallest "):
        estimate_lstar(flat, order=1, c_grid=(0.5, 1.0, 1.5))


def test_near_twin_midpoints_keep_the_full_search_order():
    """Each midpoint has a twin 1e-15 of the data's range above it, so the two
    SSEs differ by rounding alone, below what the normal equations resolve:
    the bound keeps both twins in the walk, and the lstsq SSE orders them."""
    truth = LstarParams(phi0=0.1, phi=[0.5, 0.1], theta=[-0.9, 0.0], gamma=5.0, c=0.2, sigma=0.1)
    for seed in range(10):
        values = simulate_lstar(truth, n=600, seed=seed).values
        c_grid = list(default_c_grid(values, count=6))
        c_grid += [c + 1e-15 * (values.max() - values.min()) for c in c_grid]
        _same_as_reference(values, 2, 1, DEFAULT_GAMMA_GRID, c_grid)


_BENCHMARK_GENERATOR = LstarParams(phi0=0.4, phi=[0.35, 0.12, 0.10, 0.08, 0.06, 0.05, 0.04, 0.03],
                                   theta=[-1.5, 0, 0, 0, 0, 0, 0, 0], gamma=10.0, c=0.7, sigma=0.05)


def test_screen_factors_few_grid_points_at_benchmark_scale(monkeypatch):
    """On 20k points of the benchmark's generator, the screen leaves at most
    3 of the 105 default grid points to lstsq."""
    values = simulate_lstar(_BENCHMARK_GENERATOR, n=20_000, seed=1).values
    calls, lstsq = [], np.linalg.lstsq

    def counted(a, b, rcond=None):
        calls.append(a.shape)  # one per factored grid point
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    est, _ = estimate_lstar(values, order=8)
    assert est.gamma == 10.0 and abs(est.c - 0.7) < 0.05
    assert 1 <= len(calls) <= 3, f"{len(calls)} grid points factored"


def test_rank_deficient_screen_winner_widens_the_walk_exactly():
    """Midpoints far above the data give gates near 1e-20: the screen resolves
    those points, and ranks them best, but lstsq finds their designs rank
    deficient. The walk must then fit the points the screen first ruled out,
    and return what the full lstsq search returns."""
    truth = LstarParams(phi0=0.0, phi=[0.5], theta=[-0.3 * math.exp(20.0)], gamma=2.0, c=10.0, sigma=0.2)
    values = simulate_lstar(truth, n=400, seed=0).values
    low, high = values.min(), values.max()
    c_grid = [high + 23.0, low - 6.0, low - 7.0] + list(default_c_grid(values, count=3))
    lags, z = values[:-1, None], values[:-1]
    lower, upper = _screen_grid(lags, values[1:], z, np.full(len(c_grid), 2.0), np.array(c_grid))
    assert np.isfinite(upper[0]) and upper[0] < upper[1:].min()  # resolved, and ranked best
    with pytest.raises(EstimationError, match="rank deficient at all 1 grid points"):
        estimate_lstar(values, order=1, gamma_grid=(2.0,), c_grid=c_grid[:1])
    _same_as_reference(values, 1, 1, (2.0,), c_grid)
    est, _ = estimate_lstar(values, order=1, gamma_grid=(2.0,), c_grid=c_grid)
    assert low < est.c < high


def test_estimate_peak_memory_stays_bounded():
    """At 20k points the estimate peaks within 0.5 MB of the 4.50 MB it
    measured with one full design buffer that every lstsq fit reuses: the
    screen holds blocks of rows, never a full-length copy of [1, lags, y],
    and no per-point basis or residualized copy of the lags is kept."""
    values = simulate_lstar(_BENCHMARK_GENERATOR, n=20_000, seed=1).values
    estimate_lstar(values[:2_000], order=8)  # lazy set-up, such as LAPACK's, is not the estimate's
    tracemalloc.start()
    try:
        estimate_lstar(values, order=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4_500_418 + 500_000, f"tracemalloc peak {peak} bytes"
