import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import stan_fd_problem
from stanforge.baselines import MODEL_KINDS
from stanforge.numerics import ShapeError, finite_diff_errors, mse_loss, relu_grad
from stanforge.stan_core import (
    MAX_PARAMETERS,
    NetworkSpec,
    StanNetwork,
    count_parameters,
    stan_layer_backward,
    stan_layer_forward,
    transition_g,
)

COEFS = ("phi", "theta", "gamma", "c")  # the rows of a layer's (4, d) coefficient block


def _layer(p, d, rng):
    """``(w, b, coefs)`` of one layer, its coefficients off their start values."""
    w, b = rng.standard_normal((p, d)), rng.standard_normal(d)
    coefs = np.stack([rng.uniform(0.5, 1.5, d), rng.uniform(0.5, 1.5, d),
                      rng.uniform(0.5, 2.0, d), rng.uniform(-0.5, 0.5, d)])
    return w, b, coefs


# ------------------------------------------------------------------ gate ----

@pytest.mark.parametrize("gamma", [0.5, 1.0, 20.0, 1e4])
def test_gate_is_half_at_midpoint(gamma):
    assert transition_g(0.7, gamma, 0.7) == 0.5


def test_gate_flat_when_gamma_zero():
    z = np.linspace(-50.0, 50.0, 11)
    assert np.array_equal(transition_g(z, 0.0, 0.0), np.full(11, 0.5))


def test_gate_logistic_value():
    assert transition_g(1.0, 1.0, 0.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)), abs=1e-12)


def test_gate_strictly_inside_unit_interval_without_overflow():
    z = np.array([-1e6, -700.0, -50.0, 0.0, 50.0, 700.0, 1e6])
    with np.errstate(over="raise"):
        g = transition_g(z, 3.0, 0.0)
    assert np.all(g > 0.0) and np.all(g < 1.0)


def test_gate_saturates_within_one_ulp():
    # |gamma * (z - c)| > 40 puts the ideal value within 1e-15 of {0, 1}
    assert 1.0 - transition_g(41.0, 1.0, 0.0) <= 1e-15
    assert transition_g(-41.0, 1.0, 0.0) <= 1e-15
    assert 1.0 - transition_g(5.0, 1000.0, 0.0) <= 1e-15


@pytest.mark.parametrize("seed", range(3))
def test_gate_monotone_in_z(seed):
    z = np.sort(np.random.default_rng(seed).uniform(-5.0, 5.0, 200))
    rising = transition_g(z, 2.5, 0.3)
    falling = transition_g(z, -2.5, 0.3)
    assert np.all(np.diff(rising) >= 0.0)
    assert np.all(np.diff(falling) <= 0.0)


def test_gate_scalar_in_scalar_out():
    assert isinstance(transition_g(1.0, 2.0, 0.0), float)


def test_gate_computes_in_a_float32_input_dtype():
    z = np.array([-0.5, 0.0, 0.5], dtype=np.float32)
    assert transition_g(z, np.float32(3.0), np.float32(0.1)).dtype == np.float32
    assert transition_g(z, 3.0, 0.1).dtype == np.float32  # gamma and c are read in z's dtype
    assert transition_g(np.arange(3), 1.0, 0.0).dtype == np.float64  # anything but float32 is read as float64


# Per dtype: the clamp of the gate's argument t = gamma * (c - z), the gate's
# top (its value at the low end) and floor (at the high end), and the ulp bound
# of the gate inside the clamp against a float64 reference of the same t.
_GATE_RANGE = {
    np.float32: (-16.0, 80.0, 1.0 - 2.0 ** -23, 1.0 / (1.0 + math.exp(80.0)), 5),
    np.float64: (-36.0, 700.0, 1.0 - 2.0 ** -52, 1.0 / (1.0 + math.exp(700.0)), 5),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gate_top_and_floor_are_exact_at_and_past_the_clamp(dtype):
    low, high, top, floor, _ = _GATE_RANGE[dtype]
    # gamma 1 and c 0 make t = -z
    z = np.array([-low, -low + 0.5, 1e30, np.inf, -high, -high - 0.5, -1e30, -np.inf], dtype=dtype)
    g = transition_g(z, 1.0, 0.0)
    assert g.tolist() == [top] * 4 + [dtype(floor)] * 4
    assert dtype(floor) >= np.finfo(dtype).tiny  # a normal float, not a subnormal


def _gate_reference(z, gamma, c, dtype):
    """``(t, g)``: the gate's argument ``gamma * (c - z)`` rounded as ``dtype``
    rounds it, and ``1 / (1 + exp(t))`` of it in float64 by ``math.exp``,
    clamped as the gate clamps ``t``; both broadcast to the shape of ``z``."""
    low, high = _GATE_RANGE[dtype][:2]
    t = np.broadcast_to(dtype(gamma) * (dtype(c) - z), np.shape(z)).astype(np.float64)
    ref = [math.nan if math.isnan(v) else 1.0 / (1.0 + math.exp(min(max(v, low), high))) for v in t.ravel()]
    return t, np.array(ref).reshape(t.shape)


def _check_gate(z, gamma, c, dtype):
    """Every property of ``transition_g(z, gamma, c)`` for a ``dtype`` array ``z``."""
    low, high, top, floor, ulps = _GATE_RANGE[dtype]
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        g = transition_g(z, gamma, c)
    assert g.dtype == dtype and g.shape == z.shape
    t, ref = _gate_reference(z, gamma, c, dtype)
    nan = np.isnan(t)
    assert np.array_equal(np.isnan(g), nan)  # NaN in, NaN out, and only then
    assert np.all((g[~nan] > 0.0) & (g[~nan] < 1.0))
    assert np.all(g[t <= low] == top) and np.all(g[t >= high] == dtype(floor))
    inside = (t > low) & (t < high)
    wide = np.maximum(g[inside], ref[inside].astype(dtype))  # the larger side's ulp, across a binade edge
    assert np.all(np.abs(g[inside] - ref[inside]) <= ulps * np.spacing(wide).astype(np.float64))


def _check_monotone(z, gamma, c, dtype):
    """Along a sorted first axis of ``z``, the gate rises where gamma > 0 and falls where gamma < 0."""
    z = np.sort(z[~np.isnan(z).any(axis=1)], axis=0)
    slope = np.diff(transition_g(z, gamma, c).astype(np.float64), axis=0) * np.sign(dtype(gamma))
    assert np.all(slope >= 0.0)


# exp under- and overflow, subnormal results, saturation and both zeros
_GATE_EDGES = [0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, 37.5, -37.5, 709.78, -709.78,
               745.0, -745.0, 745.2, -745.2, 746.0, -746.0, 1e6, -1e6, np.inf, -np.inf]
_gate_values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from(_GATE_EDGES))
# gamma != 0 keeps gamma * (c - z) free of 0 * inf, an invalid operation numpy warns about
_gate_gammas = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3), st.sampled_from([1.0, -1.0]))
_gate_centres = st.floats(-10.0, 10.0)
_gate_dtypes = st.sampled_from([np.float32, np.float64])


@settings(max_examples=300, deadline=None)
@given(z=st.one_of(_gate_values, st.just(math.nan)), gamma=_gate_gammas, c=_gate_centres, dtype=_gate_dtypes)
def test_gate_scalar_holds_every_property(z, gamma, c, dtype):
    g = transition_g(dtype(z), gamma, c)
    assert isinstance(g, float)
    want = transition_g(np.array([z], dtype=dtype), gamma, c)
    assert repr(g) == repr(float(want[0]))  # a scalar is the one-element array's value
    _check_gate(np.array([z], dtype=dtype), gamma, c, dtype)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), rows=st.integers(1, 40), cols=st.integers(1, 12), broadcast=st.booleans(),
       dtype=_gate_dtypes)
def test_gate_array_holds_every_property(data, rows, cols, broadcast, dtype):
    # drawn in float64 and rounded, so the float64 edges reach float32 as its zeros, infinities and overflows
    z = data.draw(hnp.arrays(np.float64, (rows, cols), elements=st.one_of(_gate_values, st.just(math.nan))))
    z = z.astype(dtype)
    if broadcast:  # per-unit gamma and c, broadcast over the rows as in a layer
        gamma = data.draw(hnp.arrays(np.float64, cols, elements=_gate_gammas)).astype(dtype)
        c = data.draw(hnp.arrays(np.float64, cols, elements=_gate_centres)).astype(dtype)
    else:
        gamma, c = data.draw(_gate_gammas), data.draw(_gate_centres)
    _check_gate(z, gamma, c, dtype)
    _check_monotone(z, gamma, c, dtype)


# ------------------------------------------------------------------ unit ----

def stan_unit_forward(y: float, phi: float, theta: float, gamma: float, c: float) -> float:
    """Scalar reference for one unit's response ``phi*y + theta*relu(y)*g(y)``."""
    g = transition_g(y, gamma, c)
    return phi * y + theta * max(y, 0.0) * g


def test_unit_linear_when_theta_zero():
    for y in (-2.0, -0.5, 0.0, 0.5, 2.0):
        assert stan_unit_forward(y, 0.8, 0.0, 3.0, 0.1) == 0.8 * y


def test_unit_negative_input_kills_gated_path():
    assert stan_unit_forward(-1.0, 0.7, 5.0, 2.0, 0.0) == -0.7


def test_unit_composite_value():
    got = stan_unit_forward(1.0, 0.5, 1.0, 1.0, 0.0)
    assert got == pytest.approx(1.231059, abs=1e-6)


def test_unit_zero_input_gives_zero():
    assert stan_unit_forward(0.0, 1.3, -2.0, 5.0, -1.0) == 0.0


# ----------------------------------------------------------------- layer ----

def test_layer_identity_configuration():
    d = 3
    coefs = np.stack([np.ones(d), np.zeros(d), np.ones(d), np.zeros(d)])
    x = np.random.default_rng(0).standard_normal((5, d))
    y, cache = stan_layer_forward(x, np.eye(d), np.zeros(d), coefs)
    assert np.array_equal(y, x)
    assert np.array_equal(cache.pre, x)


def test_layer_matches_scalar_recomputation():
    rng = np.random.default_rng(1)
    w, b, coefs = _layer(3, 5, rng)
    x = rng.standard_normal((4, 3))
    y, cache = stan_layer_forward(x, w, b, coefs)
    for i in range(4):
        for j in range(5):
            pre = float(x[i] @ w[:, j] + b[j])
            want = stan_unit_forward(pre, *coefs[:, j])
            assert y[i, j] == pytest.approx(want, abs=1e-12)


def test_layer_backward_zero_upstream():
    rng = np.random.default_rng(2)
    w, b, coefs = _layer(3, 4, rng)
    _, cache = stan_layer_forward(rng.standard_normal((6, 3)), w, b, coefs)
    du, dcoefs = stan_layer_backward(cache, coefs, np.zeros((6, 4)))
    assert not du.any()
    assert not dcoefs.any()


def test_layer_backward_theta_zero_freezes_gate_gradients():
    rng = np.random.default_rng(3)
    w, b, coefs = _layer(3, 4, rng)
    coefs[1] = 0.0
    x = rng.standard_normal((6, 3))
    _, cache = stan_layer_forward(x, w, b, coefs)
    dy = rng.standard_normal((6, 4))
    _, (dphi, _, dgamma, dc) = stan_layer_backward(cache, coefs, dy)
    assert not dgamma.any()
    assert not dc.any()
    assert np.allclose(dphi, np.sum(dy * cache.pre, axis=0))


def test_layer_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 3))
    target = rng.standard_normal((4, 5))
    w, b, coefs = _layer(3, 5, rng)

    def loss_fn(params):
        coefs = np.stack([params[name] for name in COEFS])
        y, cache = stan_layer_forward(x, params["W"], params["b"], coefs)
        loss, dy = mse_loss(y, target)
        du, dcoefs = stan_layer_backward(cache, coefs, dy)
        return loss, {"W": x.T @ du, "b": du.sum(axis=0), **dict(zip(COEFS, dcoefs))}

    store = {"W": w, "b": b, **dict(zip(COEFS, coefs))}
    assert np.max(list(finite_diff_errors(loss_fn, store).values())) < 1e-5


# --------------------------------------------------------------- network ----

def test_network_column_selector_configuration():
    # depth 1, identity pass-through, projection picks input coordinate 2
    spec = NetworkSpec(lookback=4, units=4, depth=1, horizon=1)
    net = StanNetwork(spec, seed=0, dtype=np.float64)
    net.params["layers.0.W"] = np.eye(4)
    net.params["proj.W"] = np.zeros((4, 1))
    net.params["proj.W"][2, 0] = 1.0
    x = np.random.default_rng(6).standard_normal((7, 4))
    assert np.allclose(net.predict(x)[:, 0], x[:, 2])


def test_network_tiny_hand_computation():
    spec = NetworkSpec(lookback=3, units=2, depth=1, horizon=1)
    net = StanNetwork(spec, seed=0, dtype=np.float64)
    net.params["layers.0.W"] = np.array([[1.0, 0.5], [1.0, 0.0], [0.0, -1.0]])
    net.params["layers.0.b"] = np.array([0.0, 0.1])
    net.params["layers.0.phi"] = np.array([0.5, 1.0])
    net.params["layers.0.theta"] = np.array([1.0, 2.0])
    net.params["layers.0.gamma"] = np.array([1.0, 3.0])
    net.params["layers.0.c"] = np.array([0.0, -0.2])
    net.params["proj.W"] = np.array([[2.0], [1.0]])
    net.params["proj.b"] = np.array([0.25])
    x = np.array([[0.6, 0.4, -0.3]])

    pre = x[0] @ net.params["layers.0.W"] + net.params["layers.0.b"]
    expected = 0.25
    for j, (phi, theta, gamma, c, wout) in enumerate(
        zip([0.5, 1.0], [1.0, 2.0], [1.0, 3.0], [0.0, -0.2], [2.0, 1.0])
    ):
        u = pre[j]
        g = 1.0 / (1.0 + math.exp(-gamma * (u - c)))
        expected += wout * (phi * u + theta * max(u, 0.0) * g)
    assert net.predict(x)[0, 0] == pytest.approx(expected, abs=1e-12)


def test_network_rowwise_equals_batch():
    spec = NetworkSpec(lookback=5, units=4, depth=2, horizon=3)
    loss_fn, params = stan_fd_problem(spec, seed=7)  # a float64 store
    net = StanNetwork(spec, params=params, dtype=np.float64)
    x = np.random.default_rng(8).standard_normal((6, 5))
    batch = net.predict(x)
    rows = np.vstack([net.predict(x[i:i + 1]) for i in range(6)])
    assert np.allclose(batch, rows, atol=1e-12)


def test_network_theta_zero_is_affine_by_superposition():
    spec = NetworkSpec(lookback=6, units=5, depth=3, horizon=2)
    net = StanNetwork(spec, seed=9)  # init keeps theta = 0
    rng = np.random.default_rng(10)
    x1 = rng.standard_normal((1, 6))
    x2 = rng.standard_normal((1, 6))
    a, b = 1.7, -0.6
    lhs = net.predict(a * x1 + b * x2)
    rhs = a * net.predict(x1) + b * net.predict(x2) - (a + b - 1.0) * net.predict(np.zeros((1, 6)))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_network_backward_zero_upstream():
    spec = NetworkSpec(lookback=4, units=3, depth=2, horizon=2)
    net = StanNetwork(spec, seed=11)
    x = np.random.default_rng(12).standard_normal((5, 4))
    _, cache = net.forward(x)
    grads = net.backward(cache, np.zeros((5, 2)))
    assert set(grads) == set(net.params)
    assert all(not g.any() for g in grads.values())


def test_backward_returns_views_of_the_gradient_vector_valid_until_the_next_backward():
    net = StanNetwork(NetworkSpec(lookback=4, units=3, depth=2, horizon=2), seed=11)
    rng = np.random.default_rng(12)
    _, cache = net.forward(rng.standard_normal((5, 4)))
    dpred = rng.standard_normal((5, 2))
    first = net.backward(cache, dpred)
    assert list(first) == list(net.params)
    assert all(np.shares_memory(grad, net.grads.vector) for grad in first.values())
    kept = {name: grad.copy() for name, grad in first.items()}
    second = net.backward(cache, 2.0 * dpred)  # gradients are linear in dpred, and doubling is exact
    assert second is not first
    for name, grad in first.items():
        assert second[name] is grad and np.array_equal(grad, 2.0 * kept[name])


def test_network_gradients_match_finite_differences():
    loss_fn, params = stan_fd_problem(NetworkSpec(5, 4, 3, 2), seed=0, batch=3)
    assert np.max(list(finite_diff_errors(loss_fn, params).values())) < 1e-5


def test_network_theta_zero_keeps_gate_gradients_zero():
    spec = NetworkSpec(lookback=4, units=3, depth=2, horizon=1)
    net = StanNetwork(spec, seed=13)  # theta = 0 everywhere at init
    rng = np.random.default_rng(14)
    x = rng.standard_normal((5, 4))
    pred, cache = net.forward(x)
    _, dpred = mse_loss(pred, rng.standard_normal((5, 1)))
    grads = net.backward(cache, dpred)
    for i in range(2):
        assert not grads[f"layers.{i}.gamma"].any()
        assert not grads[f"layers.{i}.c"].any()


# The batch sizes the column-sum tests run at: a single row, two, and the
# training batch with a smaller one beside it
_SUM_ROWS = st.sampled_from([1, 2, 100, 256])


def _assert_float32_sum(got, operands, scale=1.0):
    """``got`` is ``scale`` times the column sums of the float32 ``operands``
    to within float32 error: any order of summation over m rows, then up to
    two roundings for a float32 scale, errs by at most ``gamma_{m+1} * |scale|
    * sum |x|`` (gamma_n = n u / (1 - n u), u = 2**-24); the float64 reference
    takes one more u."""
    assert got.dtype == np.float32 and operands.dtype == np.float32
    u = 2.0 ** -24
    n = len(operands) + 2
    scale = np.asarray(scale, dtype=np.float64)
    ref = scale * operands.astype(np.float64).sum(axis=0)
    bound = n * u / (1.0 - n * u) * np.abs(scale) * np.abs(operands.astype(np.float64)).sum(axis=0)
    assert np.all(np.abs(got - ref) <= bound)


@settings(max_examples=40, deadline=None)
@given(m=_SUM_ROWS, d=st.integers(1, 64), p=st.integers(1, 12), seed=st.integers(0, 2 ** 16),
       magnitude=st.sampled_from([1e-3, 1.0, 1e3]))
def test_layer_coefficient_gradients_are_float32_column_sums_of_their_terms(m, d, p, seed, magnitude):
    rng = np.random.default_rng(seed)
    w, b, coefs = (a.astype(np.float32) for a in _layer(p, d, rng))
    x = rng.standard_normal((m, p)).astype(np.float32)
    dy = (magnitude * rng.standard_normal((m, d))).astype(np.float32)
    _, cache = stan_layer_forward(x, w, b, coefs)
    _, dcoefs = stan_layer_backward(cache, coefs, dy)
    phi, theta, gamma, c = coefs
    pre, act, gate = cache.pre, cache.act, cache.gate
    # the four column-sum operands, each rounded as the kernel rounds it
    dy_act = dy * act
    weighted = dy_act * ((1.0 - gate) * gate)
    _assert_float32_sum(dcoefs[0], dy * pre)
    _assert_float32_sum(dcoefs[1], dy_act * gate)
    _assert_float32_sum(dcoefs[2], (pre - c) * weighted, theta)
    _assert_float32_sum(dcoefs[3], weighted, -theta * gamma)


@settings(max_examples=40, deadline=None)
@given(m=_SUM_ROWS, d=st.integers(1, 64), p=st.integers(1, 12), seed=st.integers(0, 2 ** 16),
       kind=st.sampled_from(["stan", "mlp"]))
def test_bias_gradients_are_float32_column_sums_of_the_upstream_gradients(m, d, p, seed, kind):
    depth, horizon = 2, 3
    model = MODEL_KINDS[kind].build(p, horizon, d, depth, seed=seed % 100)
    rng = np.random.default_rng(seed)
    if model.gated:
        for i in range(depth):
            for name, arr in zip(COEFS, _layer(p, d, rng)[2]):
                model.params[f"layers.{i}.{name}"] = arr.astype(np.float32)
    pred, cache = model.forward(rng.standard_normal((m, p)))
    _, dpred = mse_loss(pred, rng.standard_normal((m, horizon)))
    grads = model.backward(cache, dpred)
    _assert_float32_sum(grads["proj.b"], dpred)
    # each layer's du, as ``LayerStack.backward`` forms it from the layer above
    dh = dpred @ model.params["proj.W"].T
    for i in reversed(range(depth)):
        layer = cache.layers[i]
        if model.gated:
            du = stan_layer_backward(layer, np.stack([model.params[f"layers.{i}.{n}"] for n in COEFS]), dh)[0]
        else:
            du = dh * relu_grad(layer.pre)
        _assert_float32_sum(grads[f"layers.{i}.b"], du)
        dh = du @ model.params[f"layers.{i}.W"].T


# ------------------------------------------------------- counts and init ----

@pytest.mark.parametrize("spec, expected", [
    (NetworkSpec(45, 3000, 3, 1), 18_183_001),
    (NetworkSpec(45, 3000, 3, 6), 18_198_006),
    (NetworkSpec(60, 3000, 3, 12), 18_261_012),
    (NetworkSpec(45, 3000, 4, 1), 27_198_001),
    (NetworkSpec(45, 3000, 4, 6), 27_213_006),
    (NetworkSpec(60, 3000, 4, 12), 27_276_012),
])
def test_count_parameters_large_architectures(spec, expected):
    assert count_parameters(spec) == expected


def test_check_size_refuses_past_the_limit_only():
    # (45 + 1) * d + (d + 1) * d + (d + 1) + 8 * d at depth 2, horizon 1
    stan, mlp = MODEL_KINDS["stan"], MODEL_KINDS["mlp"]
    assert count_parameters(NetworkSpec(45, 11_500, 2, 1)) <= MAX_PARAMETERS == 2 ** 27
    assert count_parameters(NetworkSpec(45, 11_600, 2, 1)) > MAX_PARAMETERS
    stan.check_size(45, 1, 11_500, 2)
    with pytest.raises(ValueError, match="units 11600 and depth 2 make"):
        stan.check_size(45, 1, 11_600, 2)
    mlp.check_size(45, 1, 11_560, 2)  # the gates add 4 * 11560 * 2 scalars
    with pytest.raises(ValueError, match="units 11560 and depth 2 make 134280961 parameters"):
        stan.check_size(45, 1, 11_560, 2)
    with pytest.raises(ValueError, match="units 64 and depth 100000000"):
        stan.check_size(45, 1, 64, 100_000_000)
    with pytest.raises(ValueError, match="units must be a positive integer"):
        stan.check_size(45, 1, 0, 2)


@pytest.mark.parametrize("seed", range(3))
def test_count_parameters_matches_allocated_entries(seed):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(
        lookback=int(rng.integers(1, 20)), units=int(rng.integers(1, 20)),
        depth=int(rng.integers(1, 5)), horizon=int(rng.integers(1, 13)),
    )
    store = StanNetwork(spec, seed=seed).params
    assert count_parameters(spec) == sum(arr.size for arr in store.values())


def test_init_deterministic_per_seed():
    spec = NetworkSpec(7, 6, 2, 3)
    a = StanNetwork(spec, seed=42).params
    b = StanNetwork(spec, seed=42).params
    other = StanNetwork(spec, seed=43).params
    assert set(a) == set(b)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], other[k]) for k in a)


def test_init_starting_point_values():
    store = StanNetwork(NetworkSpec(5, 4, 2, 1), seed=0).params
    for i in range(2):
        assert np.array_equal(store[f"layers.{i}.phi"], np.ones(4))
        assert not store[f"layers.{i}.theta"].any()
        assert np.array_equal(store[f"layers.{i}.gamma"], np.ones(4))
        assert not store[f"layers.{i}.c"].any()
        assert not store[f"layers.{i}.b"].any()


def test_init_weight_statistics():
    store = StanNetwork(NetworkSpec(64, 64, 1, 1), seed=123).params
    w = store["layers.0.W"].ravel()
    limit = math.sqrt(6.0 / 128.0)
    assert np.all(np.abs(w) <= limit)
    stderr = math.sqrt(limit * limit / 3.0 / w.size)
    assert abs(w.mean()) < 3.0 * stderr


def test_fresh_network_is_affine():
    spec = NetworkSpec(6, 8, 2, 2)
    net = StanNetwork(spec, seed=21, dtype=np.float64)
    rng = np.random.default_rng(22)
    x = rng.standard_normal((40, 6))
    # an affine map is fully determined by its value on a basis plus the origin
    origin = net.predict(np.zeros((1, 6)))
    basis = net.predict(np.eye(6)) - origin
    assert np.allclose(net.predict(x), x @ basis + origin, atol=1e-10)


# ------------------------------------------------------------ validation ----

@pytest.mark.parametrize("field", ["lookback", "units", "depth", "horizon"])
def test_spec_rejects_nonpositive(field):
    good = {"lookback": 5, "units": 4, "depth": 2, "horizon": 1}
    for bad in (0, -1, 2.5, True, 2.0, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer, got {re.escape(repr(bad))}$"):
            NetworkSpec(**{**good, field: bad})


def test_spec_takes_numpy_integers():
    spec = NetworkSpec(np.int64(5), np.int32(4), np.uint8(2), np.int16(1))
    assert [(v, type(v)) for v in (spec.lookback, spec.units, spec.depth, spec.horizon)] == [
        (5, int), (4, int), (2, int), (1, int)]


def test_forward_rejects_wrong_lookback():
    net = StanNetwork(NetworkSpec(5, 4, 1, 1), seed=0)
    with pytest.raises(ShapeError, match="lookback"):
        net.forward(np.ones((2, 6)))


def test_assignment_copies_into_the_parameter_vector():
    net = StanNetwork(NetworkSpec(5, 4, 2, 1), seed=0)
    view, new = net.params["layers.1.gamma"], np.linspace(0.5, 2.0, 4, dtype=np.float32)
    net.params["layers.1.gamma"] = new
    assert net.params["layers.1.gamma"] is view and np.array_equal(view, new)
    assert np.shares_memory(view, net.params.vector) and not np.shares_memory(view, new)
    assert np.array_equal(np.concatenate([arr.ravel() for arr in net.params.values()]), net.params.vector)


@pytest.mark.parametrize("layer", range(2))
@pytest.mark.parametrize("name", COEFS)
def test_kernels_read_an_assigned_coefficient_as_one_given_at_construction(name, layer):
    spec, rng = NetworkSpec(5, 4, 2, 2), np.random.default_rng(31)
    base = {key: arr.copy() for key, arr in StanNetwork(spec, seed=3).params.items()}
    for i in range(spec.depth):  # theta=0 would hide gamma and c from the output
        base[f"layers.{i}.theta"] = rng.uniform(0.5, 1.5, spec.units).astype(np.float32)
    key, new = f"layers.{layer}.{name}", rng.uniform(0.5, 1.5, spec.units).astype(np.float32)
    assigned = StanNetwork(spec, params=base)
    assigned.params[key] = new
    built = StanNetwork(spec, params={**base, key: new})
    x, dpred = rng.standard_normal((9, 5)), rng.standard_normal((9, 2))
    (pred, cache), (built_pred, built_cache) = assigned.forward(x), built.forward(x)
    assert pred.tobytes() == built_pred.tobytes()
    assert assigned.predict(x).tobytes() == built.predict(x).tobytes()
    assigned.backward(cache, dpred), built.backward(built_cache, dpred)
    assert assigned.grads.vector.tobytes() == built.grads.vector.tobytes()
    assert not np.array_equal(pred, StanNetwork(spec, params=base).predict(x))


@pytest.mark.parametrize("name,value,error", [
    ("proj.W", np.zeros((4, 2), dtype=np.float32), ShapeError),
    ("layers.2.W", np.zeros((4, 4)), ShapeError),
    ("proj.b", np.zeros(1), TypeError),
    ("proj.b", [0.0], TypeError),
], ids=["wrong-shape", "unknown-name", "float64", "list"])
def test_assignment_is_checked_as_at_construction(name, value, error):
    net = StanNetwork(NetworkSpec(5, 4, 2, 1), seed=0)
    before = net.params.vector.copy()
    with pytest.raises(error, match=name):
        net.params[name] = value
    assert np.array_equal(net.params.vector, before)


def test_network_dtype_is_float32_or_float64():
    spec = NetworkSpec(5, 4, 2, 1)
    assert StanNetwork(spec).dtype == np.float32
    assert StanNetwork(spec, dtype="float64").params.vector.dtype == np.float64
    for bad in (np.float16, np.int64, "complex128"):
        with pytest.raises(ValueError, match="^dtype must be float32 or float64"):
            StanNetwork(spec, dtype=bad)


def test_network_rejects_malformed_store():
    spec = NetworkSpec(5, 4, 1, 1)
    store = dict(StanNetwork(spec, seed=0).params)
    del store["proj.b"]
    with pytest.raises(ShapeError, match="proj.b"):
        StanNetwork(spec, params=store)
