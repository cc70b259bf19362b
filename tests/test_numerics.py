import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanforge.baselines import LinearNetwork
from stanforge.data import ScalerParams, hourly_timestamps, lookback_for, make_windows, split_windows
from stanforge.eval_bench import BenchmarkPlan, DatasetRef, ModelEntry
from stanforge.numerics import (
    AdamState,
    NondeterministicLossError,
    NonFiniteError,
    ShapeError,
    adam_step,
    affine_backward,
    affine_forward,
    finite_diff_errors,
    finite_real,
    integer_in,
    mse_loss,
    relu,
    relu_grad,
)
from stanforge.stan_core import NetworkSpec, StanNetwork
from stanforge.star_classic import LstarParams, default_c_grid, estimate_lstar, simulate_lstar
from stanforge.training import LR_MIN, TrainConfig


# ---------------------------------------------------------------- affine ----

def test_affine_forward_identity():
    out = affine_forward(np.array([[1.0, 2.0]]), np.eye(2), np.zeros(2))
    assert np.array_equal(out, [[1.0, 2.0]])


def test_affine_forward_sums_plus_bias():
    out = affine_forward(np.array([[1.0, 1.0]]), np.ones((2, 1)), np.array([1.0]))
    assert np.array_equal(out, [[3.0]])


def test_affine_forward_scaling_case():
    out = affine_forward(np.array([[0.5, -0.5]]), 2.0 * np.eye(2), np.ones(2))
    assert np.allclose(out, [[2.0, 0.0]])


def test_affine_backward_zero_upstream():
    dx, dw, db = affine_backward(np.ones((3, 2)), np.ones((2, 4)), np.zeros((3, 4)))
    assert not dx.any() and not dw.any() and not db.any()


def test_affine_backward_scalar_case():
    dx, dw, db = affine_backward(np.array([[3.0]]), np.array([[2.0]]), np.array([[1.0]]))
    assert dx == [[2.0]] and dw == [[3.0]] and db == [1.0]


def test_affine_backward_unit_case():
    dx, dw, db = affine_backward(np.ones((1, 1)), np.ones((1, 1)), np.ones((1, 1)))
    assert dx == [[1.0]] and dw == [[1.0]] and db == [1.0]


def test_affine_backward_matches_finite_differences():
    # loss = sum(r * (x @ w + b)) for a fixed random r
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 2))
    w = rng.standard_normal((2, 4))
    b = rng.standard_normal(4)
    r = rng.standard_normal((3, 4))

    def loss(x_, w_, b_):
        return float(np.sum(r * (x_ @ w_ + b_)))

    dx, dw, db = affine_backward(x, w, r)
    eps = 1e-6
    worst = 0.0
    for arr, grad in ((x, dx), (w, dw), (b, db)):
        for idx in np.ndindex(arr.shape):
            saved = arr[idx]
            arr[idx] = saved + eps
            hi = loss(x, w, b)
            arr[idx] = saved - eps
            lo = loss(x, w, b)
            arr[idx] = saved
            numeric = (hi - lo) / (2.0 * eps)
            analytic = float(grad[idx])
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8))
    assert worst < 1e-6


# ------------------------------------------------------------------ relu ----

def test_relu_values():
    assert relu(-3.0) == 0.0
    assert relu(2.5) == 2.5


def test_relu_grad_values():
    assert relu_grad(0.0) == 0.0
    assert relu_grad(-1.0) == 0.0
    assert relu_grad(3.0) == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_relu_idempotent(seed):
    x = np.random.default_rng(seed).standard_normal(64)
    assert np.array_equal(relu(relu(x)), relu(x))


# ------------------------------------------------------------------- mse ----

def test_mse_zero_when_equal():
    loss, dpred = mse_loss([[1.0, 2.0]], [[1.0, 2.0]])
    assert loss == 0.0
    assert not dpred.any()


def test_mse_unit_case():
    loss, dpred = mse_loss([[1.0, 1.0]], [[0.0, 0.0]])
    assert loss == 1.0
    assert np.array_equal(dpred, [[1.0, 1.0]])


def test_mse_direct_evaluation():
    loss, _ = mse_loss([[2.0, 2.0, 2.0]], [[1.0, 2.0, 3.0]])
    assert loss == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_mse_rejects_empty_and_mismatched():
    with pytest.raises(ShapeError):
        mse_loss(np.empty((0, 3)), np.empty((0, 3)))
    with pytest.raises(ShapeError):
        mse_loss(np.ones((2, 2)), np.ones((2, 3)))


@pytest.mark.parametrize("seed", range(4))
def test_mse_nonnegative_and_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal((5, 3))
    loss, _ = mse_loss(a, b)
    assert loss > 0.0
    assert mse_loss(a, a.copy())[0] == 0.0


def test_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    pred = rng.standard_normal((4, 2))
    target = rng.standard_normal((4, 2))
    _, dpred = mse_loss(pred, target)
    eps = 1e-6
    for idx in np.ndindex(pred.shape):
        saved = pred[idx]
        pred[idx] = saved + eps
        hi, _ = mse_loss(pred, target)
        pred[idx] = saved - eps
        lo, _ = mse_loss(pred, target)
        pred[idx] = saved
        assert (hi - lo) / (2.0 * eps) == pytest.approx(dpred[idx], abs=1e-9)


# ------------------------------------------------------------------ adam ----

def test_adam_zero_gradient_is_identity():
    param = np.array([1.0, -2.0, 3.0])
    state = AdamState.for_param(param, lr=0.001)
    before = param.copy()
    adam_step(param, np.zeros(3), state)
    assert np.array_equal(param, before)
    assert state.t == 1


def test_adam_first_step_moves_by_lr():
    param = np.array([0.0])
    state = AdamState.for_param(param, lr=0.001)
    adam_step(param, np.array([0.5]), state)
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) on step one
    assert param[0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_constant_gradient_keeps_step_near_lr():
    param = np.array([0.0])
    state = AdamState.for_param(param, lr=0.001)
    adam_step(param, np.array([0.5]), state)
    first = param[0]
    adam_step(param, np.array([0.5]), state)
    assert state.t == 2
    assert abs(param[0] - first) == pytest.approx(0.001, rel=1e-5)


def test_adam_second_moment_stays_nonnegative():
    param = np.zeros(4)
    state = AdamState.for_param(param, lr=0.001)
    rng = np.random.default_rng(2)
    for _ in range(20):
        adam_step(param, rng.standard_normal(4), state)
    assert np.all(state.v >= 0.0)
    assert state.t == 20


def test_adam_rejects_nonfinite_gradient_by_name():
    # the caller names the parameter: see test_train_names_epoch_batch_and_parameter_of_a_non_finite_gradient
    param = np.zeros(2)
    state = AdamState.for_param(param, lr=0.001)
    with pytest.raises(NonFiniteError, match="non-finite gradient"):
        adam_step(param, np.array([np.nan, 0.0]), state)
    assert state.t == 0 and not param.any()


# --------------------------------------------------------- finite differences

def _quadratic(params):
    p = params["p"]
    return float(np.sum(p * p)), {"p": 2.0 * p}


def test_finite_diff_quadratic_is_clean():
    errors = finite_diff_errors(_quadratic, {"p": np.array([3.0, -1.5])})
    assert errors["p"] < 1e-9


def test_finite_diff_flags_corrupted_gradient():
    def corrupted(params):
        loss, grads = _quadratic(params)
        return loss, {"p": 2.0 * grads["p"]}

    worst = finite_diff_errors(corrupted, {"p": np.array([3.0])})["p"]
    assert worst == pytest.approx(0.5, abs=1e-6)


def test_finite_diff_detects_nondeterministic_loss():
    calls = [0]

    def noisy(params):
        calls[0] += 1
        return float(calls[0]), {"p": np.zeros(1)}

    with pytest.raises(NondeterministicLossError):
        finite_diff_errors(noisy, {"p": np.zeros(1)})


def test_finite_diff_reads_a_nan_slope_as_failure():
    center = np.array([3.0, -1.5])

    def nan_off_center(params):
        loss, grads = _quadratic(params)
        return (loss if np.array_equal(params["p"], center) else math.nan), grads

    assert math.isnan(finite_diff_errors(nan_off_center, {"p": center.copy()})["p"])

    def nan_at_second_entry(params):
        loss, grads = _quadratic(params)
        return (loss if params["p"][1] == center[1] else math.nan), grads

    # a NaN after a clean entry still wins the parameter's maximum
    assert math.isnan(finite_diff_errors(nan_at_second_entry, {"p": center.copy()})["p"])


def test_finite_diff_referees_the_first_gradient_when_later_calls_rewrite_it():
    buffer = np.empty(3)  # one gradient array that every call rewrites, as LayerStack.backward's views are

    def rewriting(params):
        np.multiply(params["p"], 2.0, out=buffer)
        return float(np.sum(params["p"] ** 2)), {"p": buffer}

    # entries small against eps: a gradient read at a perturbed point would be off by eps / |p|, 2-5%
    assert finite_diff_errors(rewriting, {"p": np.array([2e-4, -3e-4, 5e-4])})["p"] < 1e-8


def test_finite_diff_rejects_bad_eps_and_bad_grads():
    for eps in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            finite_diff_errors(_quadratic, {"p": np.zeros(1)}, eps=eps)

    def wrong_shape(params):
        return 0.0, {"p": np.zeros(3)}

    with pytest.raises(ShapeError):
        finite_diff_errors(wrong_shape, {"p": np.zeros(2)})
    with pytest.raises(TypeError, match="^parameter 'p' must be a float64 ndarray$"):
        finite_diff_errors(_quadratic, {"p": np.zeros(2, dtype=np.float32)})


# ------------------------------------------------------------ scalar gate ---

_SCALARS = st.one_of(
    st.booleans(), st.just(np.True_), st.text(max_size=4), st.binary(max_size=2), st.none(), st.complex_numbers(),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400, np.float64(np.nan), np.float32(np.inf)]),
    st.integers(-2 ** 1100, 2 ** 1100), st.floats(), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32), st.floats().map(np.float64),
)
_LSTAR_SERIES = simulate_lstar(LstarParams(phi0=0.0, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.1), n=80, seed=3)


def _finite_real_number(value) -> bool:
    """The rule, written out apart from ``finite_real``."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _verdict(call, field):
    try:
        call()
    except ValueError as exc:
        assert str(exc).startswith(f"{field} must be a finite real number, got "), str(exc)
        return "refused"
    return "accepted"


@settings(max_examples=150, deadline=None)
@given(value=_SCALARS)
def test_every_scalar_site_accepts_and_refuses_the_same_values(value):
    sites = {
        "c": lambda: LstarParams(phi0=0.0, phi=[0.5], theta=[0.0], gamma=1.0, c=value),
        "phi entry 1": lambda: LstarParams(phi0=0.0, phi=[0.5, value], theta=[0.0, 0.0], gamma=1.0, c=0.0),
        "c_grid entry 1": lambda: estimate_lstar(_LSTAR_SERIES, order=1, gamma_grid=[20.0], c_grid=[0.0, value]),
        "scaler mean": lambda: ScalerParams(mean=value, std=1.0),
        "value": lambda: finite_real(value, "value"),
    }
    expected = _finite_real_number(value)
    if not expected or value >= LR_MIN:  # a finite rate below the floor is refused by the floor, not the gate
        sites["lr"] = lambda: TrainConfig(lr=value)
    verdicts = {field: _verdict(call, field) for field, call in sites.items()}
    assert set(verdicts.values()) == {"accepted" if expected else "refused"}, verdicts
    if expected:
        assert type(finite_real(value, "value")) is float and finite_real(value, "value") == float(value)


# ----------------------------------------------------------- integer gate ---

_INTEGER_CANDIDATES = st.one_of(
    st.booleans(), st.just(np.True_), st.text(max_size=4), st.none(), st.floats(), st.floats().map(np.float64),
    st.sampled_from([0.0, 1.0, 2.0, np.float32(3.0), 1j, b"1", [1]]), st.integers(-3, 70),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-3, 70).map(np.int64), st.integers(0, 70).map(np.uint8),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.integers(0, 2 ** 64 - 1).map(np.uint64),
)
_SPEC = {"lookback": 1, "units": 1, "depth": 1, "horizon": 1}
_PLAN = {"datasets": [DatasetRef("x.csv", "X_MW")], "horizons": [1], "models": [ModelEntry(kind="linreg")]}
_WINDOWS = make_windows(_LSTAR_SERIES, 5, 1)
_ONE_POINT_GRID = {"gamma_grid": [20.0], "c_grid": [0.0]}


def _ran(_) -> None:
    """What a site keeps of the value when it keeps nothing: the call ran."""


def _lstar(**kwargs):
    return LstarParams(phi0=0.0, phi=[0.5, 0.0, 0.0], theta=[0.0, 0.0, 0.0], gamma=1.0, c=0.0, **kwargs)


# (field, least, most, cap, call): ``call(value)`` returns what the site keeps of the value, or None if it keeps
# nothing; an integer above ``cap`` would allocate that much or fail a later size rule, so it is not tried there
_INTEGER_SITES = [
    *((field, 1, None, None, lambda v, field=field: getattr(NetworkSpec(**{**_SPEC, field: v}), field))
      for field in _SPEC),
    ("seed", 0, None, None, lambda v: _ran(StanNetwork(NetworkSpec(2, 1, 1, 1), seed=v))),
    ("lookback", 1, None, 70, lambda v: LinearNetwork(v, 1).lookback),
    ("horizon", 1, None, 70, lambda v: LinearNetwork(1, v).horizon),
    *((field, least, None, None, lambda v, field=field: getattr(TrainConfig(**{field: v}), field))
      for field, least in (("max_epochs", 1), ("batch_size", 1), ("es_start_epoch", 1), ("seed", 0))),
    ("n", 0, None, 70, lambda v: _ran(hourly_timestamps(v))),
    ("horizon", 1, None, None, lambda v: _ran(lookback_for(v))),
    ("lookback", 1, None, 70, lambda v: _ran(make_windows(_LSTAR_SERIES, v, 1))),
    ("horizon", 1, None, 70, lambda v: _ran(make_windows(_LSTAR_SERIES, 1, v))),
    ("seed", 0, None, None, lambda v: _ran(split_windows(_WINDOWS, seed=v))),
    ("delay", 1, 3, None, lambda v: _lstar(delay=v).delay),
    ("n", 1, None, 70, lambda v: _ran(simulate_lstar(_lstar(), n=v))),
    ("burn_in", 0, None, 70, lambda v: _ran(simulate_lstar(_lstar(), n=5, burn_in=v))),
    ("seed", 0, None, None, lambda v: _ran(simulate_lstar(_lstar(), n=5, seed=v))),
    ("count", 1, None, 70, lambda v: _ran(default_c_grid(_LSTAR_SERIES, v))),
    ("order", 1, None, 3, lambda v: _ran(estimate_lstar(_LSTAR_SERIES, order=v, **_ONE_POINT_GRID))),
    ("delay", 1, 2, None, lambda v: estimate_lstar(_LSTAR_SERIES, order=2, delay=v, **_ONE_POINT_GRID)[0].delay),
    ("runs", 1, None, None, lambda v: BenchmarkPlan(**_PLAN, runs=v).validate()),
    ("base_seed", 0, None, None, lambda v: BenchmarkPlan(**_PLAN, base_seed=v).validate()),
    ("horizon", 1, None, None, lambda v: BenchmarkPlan(**{**_PLAN, "horizons": [v]}).validate()),
    ("value", -2, 5, None, lambda v: integer_in(v, "value", -2, 5)),
    ("value", 0, None, None, lambda v: integer_in(v, "value", 0)),
]


def _integer_rule(least, most) -> str:
    """The wording the gate's refusal must use, written out apart from ``integer_in``."""
    if most is not None:
        return f"an integer in [{least}, {most}]"
    return "a positive integer" if least == 1 else "a non-negative integer"


@settings(max_examples=150, deadline=None)
@given(value=_INTEGER_CANDIDATES)
def test_every_integer_site_accepts_and_refuses_the_same_values(value):
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    for field, least, most, cap, call in _INTEGER_SITES:
        expected = integer and least <= value and (most is None or value <= most)
        if expected and cap is not None and value > cap:
            continue
        try:
            kept = call(value)
        except ValueError as exc:
            assert not expected, f"{field} refused {value!r}: {exc}"
            assert str(exc) == f"{field} must be {_integer_rule(least, most)}, got {value!r}"
            continue
        assert expected, f"{field} accepted {value!r}"
        assert kept is None or (type(kept) is int and kept == value), (field, kept)


@pytest.mark.parametrize("call,message", [
    (lambda: TrainConfig(seed=-1), "seed must be a non-negative integer, got -1"),
    (lambda: LinearNetwork(2.7, 1), "lookback must be a positive integer, got 2.7"),
    (lambda: LinearNetwork(True, 1), "lookback must be a positive integer, got True"),
    (lambda: LinearNetwork(0, 1), "lookback must be a positive integer, got 0"),
    (lambda: LinearNetwork(1, -1), "horizon must be a positive integer, got -1"),
    (lambda: hourly_timestamps(2.5), "n must be a non-negative integer, got 2.5"),
    (lambda: StanNetwork(NetworkSpec(2, 1, 1, 1), seed=-1), "seed must be a non-negative integer, got -1"),
], ids=["TrainConfig-seed", "LinearNetwork-float", "LinearNetwork-bool", "LinearNetwork-zero",
        "LinearNetwork-negative", "hourly_timestamps-float", "StanNetwork-seed"])
def test_sizes_and_seeds_that_numpy_or_a_cast_used_to_judge_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
