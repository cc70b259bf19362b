import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stanforge.baselines import (
    MODEL_KINDS,
    ConditioningError,
    LinearNetwork,
    LinearRegressionModel,
    MlpNetwork,
    fit_linear_regression,
)
from stanforge.numerics import AdamState, ShapeError, finite_diff_errors, mse_loss, relu
from stanforge.stan_core import (
    LayerStack,
    NetworkSpec,
    StanNetwork,
    count_parameters,
    init_params,
    stack_shapes,
)
from stanforge.training import TrainConfig, train


# ------------------------------------------------------- linear regression --

def test_exact_recovery_on_noiseless_linear_data():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 4))
    true = rng.standard_normal((5, 2))
    y = true[0] + x @ true[1:]
    w = fit_linear_regression(x, y)
    assert np.allclose(w, true, atol=1e-6)
    residual = np.hstack([np.ones((50, 1)), x]) @ w - y
    assert np.linalg.norm(residual) < 1e-8


def test_constant_target_fits_intercept_only():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((40, 3))
    y = np.full((40, 1), 7.5)
    w = fit_linear_regression(x, y)
    assert w[0, 0] == pytest.approx(7.5, abs=1e-6)
    assert np.allclose(w[1:], 0.0, atol=1e-6)


def test_predictions_match_qr_solver():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 5))
    y = rng.standard_normal((200, 3))
    model = LinearRegressionModel.fit(x, y)
    a = np.hstack([np.ones((200, 1)), x])
    qr_w, *_ = np.linalg.lstsq(a, y, rcond=None)
    assert np.allclose(model.predict(x), a @ qr_w, atol=1e-8)


def test_residuals_orthogonal_to_regressors():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 4))
    y = rng.standard_normal((100, 2))
    w = fit_linear_regression(x, y)
    a = np.hstack([np.ones((100, 1)), x])
    assert np.allclose(a.T @ (a @ w - y), 0.0, atol=1e-8)


def test_rank_deficiency_raises_with_condition_estimate():
    x = np.zeros((30, 3))
    x[:, 0] = np.arange(30.0)
    x[:, 1] = 2.0 * x[:, 0]  # exactly collinear
    x[:, 2] = np.random.default_rng(4).standard_normal(30)
    with pytest.raises(ConditioningError, match="condition estimate"):
        fit_linear_regression(x, np.ones((30, 1)))


def test_prediction_invariant_to_column_rescaling():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((120, 4))
    y = rng.standard_normal((120, 1))
    base = LinearRegressionModel.fit(x, y).predict(x)
    scaled = x.copy()
    scaled[:, 2] = 100.0 * scaled[:, 2] + 3.0
    rescaled = LinearRegressionModel.fit(scaled, y).predict(scaled)
    assert np.allclose(base, rescaled, atol=1e-7)


def test_too_few_rows_rejected():
    with pytest.raises(ValueError, match="rows"):
        fit_linear_regression(np.ones((3, 5)), np.ones((3, 1)))


def test_row_count_mismatch_rejected():
    with pytest.raises(ShapeError):
        fit_linear_regression(np.ones((10, 2)), np.ones((9, 1)))


def test_regression_model_shape_and_counts():
    rng = np.random.default_rng(6)
    model = LinearRegressionModel.fit(rng.standard_normal((80, 45)), rng.standard_normal((80, 1)))
    assert model.lookback == 45
    assert model.horizon == 1
    assert model.num_params() == 46
    assert model.predict(rng.standard_normal((7, 45))).shape == (7, 1)
    with pytest.raises(ShapeError):
        model.predict(rng.standard_normal((7, 44)))


# ------------------------------------------------------------------ counts --

@pytest.mark.parametrize("spec, expected", [
    (NetworkSpec(45, 3000, 3, 1), 18_147_001),
    (NetworkSpec(45, 3000, 3, 6), 18_162_006),
    (NetworkSpec(60, 3000, 3, 12), 18_225_012),
])
def test_mlp_count_large_architectures(spec, expected):
    assert count_parameters(spec, gated=False) == expected


@pytest.mark.parametrize("seed", range(3))
def test_counts_match_allocated_entries(seed):
    rng = np.random.default_rng(seed)
    spec = NetworkSpec(
        lookback=int(rng.integers(1, 20)), units=int(rng.integers(1, 20)),
        depth=int(rng.integers(1, 5)), horizon=int(rng.integers(1, 13)),
    )
    assert count_parameters(spec, gated=False) == sum(
        a.size for a in init_params(stack_shapes(spec.lookback, spec.horizon, spec.units, spec.depth), seed).values()
    )
    assert LinearNetwork(spec.lookback, spec.horizon).num_params() == sum(
        a.size for a in init_params(stack_shapes(spec.lookback, spec.horizon), seed).values()
    )


def test_linear_count_matches_table_row():
    assert LinearNetwork(45, 1).num_params() == 46


# --------------------------------------------------------------------- mlp --

def test_mlp_forward_matches_manual_relu_chain():
    spec = NetworkSpec(lookback=4, units=3, depth=2, horizon=2)
    net = MlpNetwork(spec, seed=7)
    x = np.random.default_rng(8).standard_normal((5, 4))
    h = relu(x @ net.params["layers.0.W"] + net.params["layers.0.b"])
    h = relu(h @ net.params["layers.1.W"] + net.params["layers.1.b"])
    want = h @ net.params["proj.W"] + net.params["proj.b"]
    assert np.allclose(net.predict(x), want, atol=1e-12)


def test_mlp_gradients_match_finite_differences():
    spec = NetworkSpec(lookback=5, units=4, depth=3, horizon=2)
    net = MlpNetwork(spec, seed=9, dtype=np.float64)  # central differences need float64
    rng = np.random.default_rng(10)
    # zero-init biases can park whole rows exactly on the ReLU kink, where
    # central differences and the chosen subgradient legitimately disagree;
    # check at a smooth point instead
    for i in range(spec.depth):
        net.params[f"layers.{i}.b"] = rng.uniform(-0.5, 0.5, spec.units)
    x = rng.standard_normal((4, 5))
    target = rng.standard_normal((4, 2))

    def loss_fn(params):
        pred, cache = net.forward(x)
        loss, dpred = mse_loss(pred, target)
        return loss, net.backward(cache, dpred)

    assert np.max(list(finite_diff_errors(loss_fn, net.params).values())) < 1e-5


def test_mlp_monotone_with_nonnegative_weights():
    spec = NetworkSpec(lookback=3, units=4, depth=2, horizon=1)
    net = MlpNetwork(spec, seed=11)
    for name, arr in net.params.items():
        net.params[name] = np.abs(arr)
    rng = np.random.default_rng(12)
    x = rng.uniform(0.0, 1.0, size=(20, 3))
    bumped = x + rng.uniform(0.0, 0.5, size=x.shape)
    assert np.all(net.predict(bumped) >= net.predict(x))


def test_mlp_rejects_wrong_lookback():
    net = MlpNetwork(NetworkSpec(4, 3, 1, 1), seed=0)
    with pytest.raises(ShapeError, match="lookback"):
        net.forward(np.ones((2, 5)))


# ---------------------------------------------------------------- linear ----

def test_linear_network_is_affine_map():
    net = LinearNetwork(5, 2, seed=13)
    x = np.random.default_rng(14).standard_normal((6, 5))
    want = x @ net.params["proj.W"] + net.params["proj.b"]
    assert np.allclose(net.predict(x), want, atol=1e-12)


def test_linear_network_gradients_match_finite_differences():
    net = LinearNetwork(4, 2, seed=15, dtype=np.float64)  # central differences need float64
    rng = np.random.default_rng(16)
    x = rng.standard_normal((5, 4))
    target = rng.standard_normal((5, 2))

    def loss_fn(params):
        pred, cache = net.forward(x)
        loss, dpred = mse_loss(pred, target)
        return loss, net.backward(cache, dpred)

    assert np.max(list(finite_diff_errors(loss_fn, net.params).values())) < 1e-6


def test_linear_network_count():
    assert LinearNetwork(45, 1, seed=0).num_params() == 46


def test_stan_dense_maps_are_the_mlp_init_at_the_same_seed():
    spec = NetworkSpec(45, 64, 3, 12)
    mlp = init_params(stack_shapes(spec.lookback, spec.horizon, spec.units, spec.depth), 7, np.float32)
    stan = StanNetwork(spec, seed=7).params
    assert all(np.array_equal(stan[name], arr) for name, arr in mlp.items())
    assert count_parameters(spec) == count_parameters(spec, gated=False) + 4 * 64 * 3


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_registry_builds_each_kind_fresh_and_from_a_store(kind):
    entry = MODEL_KINDS[kind]
    fresh = entry.build(6, 2, 5, 2, seed=3)
    assert isinstance(fresh, LayerStack) and fresh.kind == kind
    assert fresh.num_params() == sum(arr.size for arr in fresh.params.values())
    # rebuilding from the fresh store passes the same name and shape check a checkpoint load runs
    rebuilt = entry.build(6, 2, 5, 2, params={n: a.copy() for n, a in fresh.params.items()})
    x = np.random.default_rng(0).standard_normal((4, 6))
    assert np.array_equal(rebuilt.predict(x), fresh.predict(x))
    # every kind checks the store it is given when it is built
    store, first = fresh.params, next(iter(fresh.params))
    for bad, named in (({n: a for n, a in store.items() if n != first}, first),
                       ({**store, "extra": np.zeros(2)}, "extra"),
                       ({**store, first: np.zeros(store[first].shape + (1,), fresh.dtype)}, first)):
        with pytest.raises(ShapeError, match=named):
            entry.build(6, 2, 5, 2, params=bad)
    with pytest.raises(TypeError, match=first):
        entry.build(6, 2, 5, 2, params={**store, first: store[first].astype(np.float16)})


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_each_kind_computes_in_its_dtype(kind):
    """float32 for the trained kinds, float64 for the least-squares fit: the
    parameter and gradient vectors and their views, the layer caches, the Adam
    moments and the outputs, from float64 inputs."""
    want = np.float64 if kind == "linreg" else np.float32
    model = MODEL_KINDS[kind].build(6, 2, 5, 2, seed=3)
    assert model.dtype == want
    rng = np.random.default_rng(4)
    for arr in model.params.values():  # theta off zero, so every gate shapes the output
        arr[...] = rng.standard_normal(arr.shape)
    x, dpred = rng.standard_normal((7, 6)), rng.standard_normal((7, 2))
    pred, cache = model.forward(x)
    grads = model.backward(cache, dpred)
    cached = [arr for layer in cache.layers for arr in (layer.x, layer.pre, layer.act, layer.gate) if arr is not None]
    state = AdamState.for_param(model.params.vector, lr=0.001)
    arrays = [model.params.vector, model.grads.vector, *model.params.values(), *grads.values(), *cached,
              cache.proj_input, state.m, state.v, pred]
    assert {arr.dtype for arr in arrays} == {np.dtype(want)}
    assert model.predict(x).tobytes() == pred.tobytes()


# The kernels behind ``forward``/``backward`` check nothing; the model's entry
# points are the boundary, so each bad shape must stop there as a ShapeError
# naming it, never reach NumPy as a bare ValueError/TypeError or broadcast.
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(list(MODEL_KINDS)), lookback=st.integers(1, 6), horizon=st.integers(1, 3),
       units=st.integers(1, 4), depth=st.integers(1, 2), rows=st.integers(1, 5),
       columns=st.integers(0, 8), width=st.integers(1, 5),
       dpred_shape=st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple), data=st.data())
def test_every_kind_refuses_bad_shapes_at_its_entry_points(kind, lookback, horizon, units, depth, rows,
                                                          columns, width, dpred_shape, data):
    model = MODEL_KINDS[kind].build(lookback, horizon, units, depth, seed=0)
    rng = np.random.default_rng(0)
    for x in (rng.standard_normal(rows), rng.standard_normal((rows, columns))):
        if x.shape == (rows, lookback):
            continue
        for call in (model.forward, model.predict):
            with pytest.raises(ShapeError, match=re.escape(str(x.shape))):
                call(x)
    _, cache = model.forward(rng.standard_normal((rows, lookback)))
    if dpred_shape != (rows, horizon):
        with pytest.raises(ShapeError, match=re.escape(str(dpred_shape))):
            model.backward(cache, np.ones(dpred_shape))
    if MODEL_KINDS[kind].fit is None and width != horizon:
        # one batch holds the whole set, so the batch's targets have the set's shape
        inputs = rng.standard_normal((rows + 1, lookback))
        bad = SimpleNamespace(inputs=inputs, targets=np.zeros((rows + 1, width)))
        good = SimpleNamespace(inputs=inputs, targets=np.zeros((rows + 1, horizon)))
        train_set, val_set = data.draw(st.permutations([bad, good]))
        with pytest.raises(ShapeError, match=re.escape(str(bad.targets.shape))):
            train(model, train_set, val_set, TrainConfig(max_epochs=1))


# ``predict`` keeps no caches and writes the gate and mix over each layer's
# pre-activation; its bits must still be ``forward``'s, at every row count.
@pytest.mark.parametrize("horizon", [1, 6])
@pytest.mark.parametrize("kind", list(MODEL_KINDS))
@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 1100), seed=st.integers(0, 2**32 - 1))
@example(rows=1, seed=0)
@example(rows=255, seed=1)
@example(rows=256, seed=2)
@example(rows=257, seed=3)
@example(rows=512, seed=4)
@example(rows=513, seed=5)
def test_predict_is_forward_bit_for_bit(kind, horizon, rows, seed):
    model = MODEL_KINDS[kind].build(45, horizon, 64, 3, seed=0)
    rng = np.random.default_rng(seed)
    for name, arr in model.params.items():  # theta off zero, so every gate shapes the output
        arr[...] = rng.standard_normal(arr.shape)
    x = rng.standard_normal((rows, 45))
    assert model.predict(x).tobytes() == model.forward(x)[0].tobytes()
