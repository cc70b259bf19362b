import math

import numpy as np
import pytest

from stanforge.numerics import (
    AdamState,
    NondeterministicLossError,
    NonFiniteError,
    ShapeError,
    adam_step,
    affine_backward,
    affine_forward,
    finite_diff_check,
    finite_diff_errors,
    mse_loss,
    relu,
    relu_grad,
)


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

    worst = finite_diff_check(corrupted, {"p": np.array([3.0])})
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
    assert math.isnan(finite_diff_check(nan_off_center, {"p": center.copy()}))

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
