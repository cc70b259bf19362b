import hashlib
import math

import numpy as np
import pytest

from stanforge.baselines import LinearNetwork, MlpNetwork, fit_linear_regression
from stanforge.data import WindowedDataset, prepare_splits
from stanforge.numerics import AdamState, NonFiniteError, adam_step, mse_loss
from stanforge.stan_core import NetworkSpec, StanNetwork
from stanforge.training import (
    ES_MIN_DELTA,
    ES_PATIENCE,
    LR_MIN,
    PLATEAU_PATIENCE,
    EarlyStopper,
    PlateauScheduler,
    TrainConfig,
    TrainHistory,
    EpochRecord,
    overfit_probe,
    train,
)


def _dataset(inputs, targets):
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return WindowedDataset(inputs, targets, inputs.shape[1], targets.shape[1],
                           np.arange(len(inputs)))


def _linear_problem(n=640, q=8, seed=7):
    rng = np.random.default_rng(seed)
    w = rng.uniform(-0.5, 0.5, size=(q, 1))
    x = rng.standard_normal((n, q))
    y = x @ w + 0.3
    cut = int(0.8 * n)
    return _dataset(x[:cut], y[:cut]), _dataset(x[cut:], y[cut:])


# ----------------------------------------------------------------- config ---

def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(es_start_epoch=0)
    for lr in (0.0, LR_MIN / 2, math.nan, math.inf):
        with pytest.raises(ValueError, match="lr must be finite and at least the plateau floor"):
            TrainConfig(lr=lr)
    assert TrainConfig(lr=LR_MIN).lr == LR_MIN


@pytest.mark.parametrize("value", [True, False, np.True_, "0.01", None, [0.01], 1j])
def test_config_lr_refuses_a_bool_or_non_number(value):
    with pytest.raises(TypeError, match="^lr must be a number"):
        TrainConfig(lr=value)


def test_config_lr_takes_python_and_numpy_numbers():
    assert [TrainConfig(lr=lr).lr for lr in (1, 0.01, np.float32(0.5), np.int64(2))] == [1, 0.01, 0.5, 2]


@pytest.mark.parametrize("field", ["max_epochs", "batch_size", "es_start_epoch", "seed"])
@pytest.mark.parametrize("value", [2.5, 8.0, True, np.float64(3.0), "3"])
def test_config_integer_fields_refuse_non_integers(field, value):
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        TrainConfig(**{field: value})


def test_config_integer_fields_take_numpy_integers():
    cfg = TrainConfig(max_epochs=np.int64(3), batch_size=np.int32(8), es_start_epoch=np.uint8(2), seed=np.int64(4))
    assert (cfg.max_epochs, cfg.batch_size, cfg.es_start_epoch, cfg.seed) == (3, 8, 2, 4)


def test_config_with_seed_replaces_only_seed():
    cfg = TrainConfig().with_seed(5)
    assert cfg.seed == 5
    assert cfg.max_epochs == 1000 and cfg.batch_size == 256 and cfg.lr == 0.001


# ---------------------------------------------------------- early stopping --

def test_stopper_constant_loss_stops_at_start_plus_patience():
    stopper = EarlyStopper(start_epoch=6)
    stopped_at = None
    for epoch in range(1, 100):
        if stopper.update(epoch, 1.0):
            stopped_at = epoch
            break
    assert stopped_at == 16


def test_stopper_never_stops_before_start_epoch():
    stopper = EarlyStopper(start_epoch=20)
    for epoch in range(1, 30):
        assert not stopper.update(epoch, 1.0)
    assert stopper.update(30, 1.0)


def test_stopper_resets_on_material_improvement():
    stopper = EarlyStopper(start_epoch=1)
    # ES_PATIENCE - 1 idle epochs, an improvement, then ES_PATIENCE - 1 idle epochs again
    losses = [1.0] * ES_PATIENCE + [0.5] + [1.0] * (ES_PATIENCE - 1)
    stops = [stopper.update(e, v) for e, v in enumerate(losses, start=1)]
    assert not any(stops)
    assert stopper.best == 0.5
    assert stopper.best_epoch == ES_PATIENCE + 1
    assert stopper.update(len(losses) + 1, 1.0)


def test_stopper_tracks_non_material_best_for_restoration():
    stopper = EarlyStopper(start_epoch=1)
    stopper.update(1, 1.0)
    stopper.update(2, 1.0 - ES_MIN_DELTA / 2)  # below best but not by ES_MIN_DELTA
    assert stopper.best == 1.0 - ES_MIN_DELTA / 2
    assert stopper.best_epoch == 2
    assert stopper.wait == 1


# ----------------------------------------------------------------- plateau --

def test_plateau_sequence_with_floor():
    sched = PlateauScheduler(lr=0.001)
    seen = []
    for _ in range(25):
        seen.append(sched.update(1.0))
    distinct = [seen[0]]
    for rate in seen[1:]:
        if rate != distinct[-1]:
            distinct.append(rate)
    assert distinct == [0.001, 0.00025, 6.25e-05, 2.5e-05]
    assert seen[-1] == 2.5e-05


def test_plateau_resets_on_improvement():
    sched = PlateauScheduler(lr=0.001)
    # PLATEAU_PATIENCE - 1 idle epochs, an improvement, then PLATEAU_PATIENCE - 1 idle epochs again
    for loss in [1.0] * PLATEAU_PATIENCE + [0.5] + [1.0] * (PLATEAU_PATIENCE - 1):
        lr = sched.update(loss)
    assert lr == 0.001  # the improvement reset the wait counter
    assert sched.update(1.0) == 0.00025


# ------------------------------------------------------------------- train --

def test_train_constant_stub_stops_at_sixteen(constant_model_cls):
    ds = _dataset(np.zeros((8, 3)), np.zeros((8, 1)))
    _, hist = train(constant_model_cls(), ds, ds, TrainConfig())
    assert len(hist) == 16
    assert hist.stopped_early
    assert hist.lr_schedule() == [0.001, 0.00025, 6.25e-05, 2.5e-05]


def test_train_learning_rate_never_increases(constant_model_cls):
    ds = _dataset(np.zeros((8, 3)), np.zeros((8, 1)))
    _, hist = train(constant_model_cls(), ds, ds, TrainConfig())
    rates = [r.lr for r in hist.records]
    assert all(b <= a for a, b in zip(rates, rates[1:]))
    assert min(rates) >= 2.5e-5


def test_train_linear_network_converges_on_noiseless_data():
    train_set, val_set = _linear_problem()
    model = LinearNetwork(8, 1, seed=1)
    cfg = TrainConfig(max_epochs=200, batch_size=32, lr=0.005, seed=0)
    _, hist = train(model, train_set, val_set, cfg)
    hit = next((r.epoch for r in hist.records if r.val_loss < 1e-6), None)
    assert hit is not None and hit < 200


def test_train_restores_best_weights():
    train_set, val_set = _linear_problem(n=200)
    model = LinearNetwork(8, 1, seed=2)
    _, hist = train(model, train_set, val_set,
                    TrainConfig(max_epochs=30, batch_size=32, seed=0))
    pred = model.predict(val_set.inputs)
    replayed = float(np.mean((pred - val_set.targets) ** 2))
    assert replayed == pytest.approx(hist.best_val_loss, rel=1e-12)
    assert hist.best_val_loss == min(r.val_loss for r in hist.records)


def test_train_bit_identical_given_seed():
    train_set, val_set = _linear_problem(n=200)
    runs = []
    for _ in range(2):
        model = LinearNetwork(8, 1, seed=3)
        _, hist = train(model, train_set, val_set,
                        TrainConfig(max_epochs=12, batch_size=32, seed=9))
        runs.append((hist.val_losses(), hist.train_losses(), model.params["proj.W"].copy()))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])
    assert np.array_equal(runs[0][2], runs[1][2])


def test_train_different_seed_changes_course():
    train_set, val_set = _linear_problem(n=200)
    hists = []
    for seed in (0, 1):
        model = LinearNetwork(8, 1, seed=4)
        _, hist = train(model, train_set, val_set,
                        TrainConfig(max_epochs=8, batch_size=32, seed=seed))
        hists.append(hist.train_losses())
    assert not np.array_equal(hists[0], hists[1])


def test_train_rejects_empty_sets(constant_model_cls):
    empty = _dataset(np.zeros((0, 3)), np.zeros((0, 1)))
    full = _dataset(np.zeros((4, 3)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match="non-empty"):
        train(constant_model_cls(), empty, full)
    with pytest.raises(ValueError, match="non-empty"):
        train(constant_model_cls(), full, empty)


def test_train_aborts_with_context_on_nonfinite_loss(constant_model_cls):
    ds = _dataset(np.zeros((4, 3)), np.zeros((4, 1)))
    with pytest.raises(NonFiniteError, match="epoch 1"):
        train(constant_model_cls(value=np.nan), ds, ds, TrainConfig())


def _switching_problem(n=120, q=5, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, q))
    y = np.where(x[:, :1] > 0.3, -0.8 * x[:, :1], 0.5 * x[:, 1:2]) + 0.1 * rng.standard_normal((n, 1))
    cut = int(0.75 * n)
    return _dataset(x[:cut], y[:cut]), _dataset(x[cut:], y[cut:])


def _per_array_reference(model, train_set, val_set, config):
    """The training loop with one Adam state and one ``adam_step`` per
    parameter array; returns its (train_loss, val_loss) per epoch. Only
    valid for budgets too short for the plateau schedule or early stopping."""
    rng = np.random.default_rng(config.seed)
    states = {name: AdamState.for_param(p, lr=config.lr) for name, p in model.params.items()}
    best_val, best = float("inf"), {name: p.copy() for name, p in model.params.items()}
    n, losses = len(train_set.inputs), []
    for _ in range(config.max_epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start: start + config.batch_size]
            pred, cache = model.forward(train_set.inputs[batch])
            loss, dpred = mse_loss(pred, train_set.targets[batch])
            grads = model.backward(cache, dpred)
            for name, param in model.params.items():
                adam_step(param, grads[name], states[name])
            batch_losses.append(loss)
        val_loss, _ = mse_loss(model.predict(val_set.inputs), val_set.targets)
        losses.append((float(np.mean(batch_losses)), val_loss))
        if val_loss < best_val:
            best_val, best = val_loss, {name: p.copy() for name, p in model.params.items()}
    for name, param in model.params.items():
        np.copyto(param, best[name])
    return losses


@pytest.mark.parametrize("fit", ["train", "overfit_probe"])
def test_arrays_taken_from_the_store_before_fitting_hold_the_fitted_values(fit):
    train_set, val_set = _switching_problem()
    spec = NetworkSpec(5, 4, 2, 1)
    model = StanNetwork(spec, seed=0)
    taken = dict(model.params)
    start = {name: arr.copy() for name, arr in taken.items()}
    if fit == "train":
        train(model, train_set, val_set, TrainConfig(max_epochs=2, batch_size=32))
    else:
        overfit_probe(model, train_set, steps=5)
    assert all(taken[name] is model.params[name] for name in taken)
    assert any(not np.array_equal(start[name], arr) for name, arr in taken.items())
    rebuilt = StanNetwork(spec, params={name: arr.copy() for name, arr in taken.items()})
    assert rebuilt.predict(val_set.inputs).tobytes() == model.predict(val_set.inputs).tobytes()


def _params_sha256(model) -> str:
    return hashlib.sha256(b"".join(model.params[name].tobytes() for name in sorted(model.params))).hexdigest()


# Final-parameter digests of the runs below, recorded with one Adam update per array.
FUSED_UPDATE_GOLDEN = {
    "STAN-5-4-3": "164f3044d53bb1413426a4c0ad04c77d53ff012e218ca978fecd2224c78572f5",
    "MLP-5-4-2": "ebb397aaf9c141683ba98b4ff15c6b7cc2a21b19bda98da463c94f0b184d12b8",
    "LinearNN-5-1": "8d2fd40631e8fd0388572c0785132cff492940a41647c28c949bd0a05df5ab97",
}


@pytest.mark.parametrize("name,build", [
    ("STAN-5-4-3", lambda: StanNetwork(NetworkSpec(5, 4, 3, 1), seed=5)),
    ("MLP-5-4-2", lambda: MlpNetwork(NetworkSpec(5, 4, 2, 1), seed=5)),
    ("LinearNN-5-1", lambda: LinearNetwork(5, 1, seed=5)),
], ids=["stan", "mlp", "linear"])
def test_fused_update_is_bit_identical_to_one_update_per_array(name, build):
    train_set, val_set = _switching_problem()
    config = TrainConfig(max_epochs=3, batch_size=32, lr=0.01, seed=4)
    reference = build()
    want = _per_array_reference(reference, train_set, val_set, config)
    model = build()
    before = model.params["proj.W"]
    _, hist = train(model, train_set, val_set, config)
    assert [(r.train_loss, r.val_loss) for r in hist.records] == want
    for param in model.params:
        assert model.params[param].tobytes() == reference.params[param].tobytes()
    assert _params_sha256(model) == FUSED_UPDATE_GOLDEN[name]
    # the store is views into the model's one vector; an array taken before holds the trained values
    assert before is model.params["proj.W"] and np.shares_memory(before, model.params.vector)
    assert all(arr.base is model.params.vector for arr in model.params.values())


# Digests of the final parameters and of the test-window predictions of the runs
# below, at the benchmark's shapes (lookback 45, 64 units, batch 256). They read
# the same with BLAS at one and at two threads.
BENCH_SHAPE_GOLDEN = {
    "STAN-64-3": ("361ebad0b82c455ab761c8cf541f98461013de47c15b9d1253c5e2d57c5e0b10",
                  "4deea7610e1b9206e3a33bd86e4697b5e45daabef454fa9e200b4d07df6b3502"),
    "MLP-64-3": ("94debde9025b1adc950d4278945cb99d3ddb4d9e6a7b87fac656abfff60dbd66",
                 "529d7d791341a57e31ec0d1c520fedfc1c1bfae72b9401bfee7bf4b42d714a52"),
}


@pytest.mark.parametrize("name,cls", [("STAN-64-3", StanNetwork), ("MLP-64-3", MlpNetwork)],
                         ids=["stan", "mlp"])
def test_fit_and_predict_keep_their_bytes_at_the_benchmark_shapes(advantage_series, name, cls):
    prep = prepare_splits(advantage_series, horizon=1, seed=0)
    model = cls(NetworkSpec(prep.lookback, 64, 3, 1), seed=0)
    train(model, prep.train, prep.val, TrainConfig(max_epochs=3, batch_size=256, seed=0))
    pred = model.predict(prep.test.inputs)
    assert (_params_sha256(model), hashlib.sha256(pred.tobytes()).hexdigest()) == BENCH_SHAPE_GOLDEN[name]


def test_train_names_epoch_batch_and_parameter_of_a_non_finite_gradient():
    class PoisonedStan(StanNetwork):
        """Puts a NaN in layers.1.gamma's gradient on the 5th batch: epoch 2, start 32."""

        batches = 0

        def backward(self, cache, dpred):
            grads = super().backward(cache, dpred)
            self.batches += 1
            if self.batches == 5:
                grads["layers.1.gamma"][2] = np.nan
            return grads

    train_set, val_set = _switching_problem()
    model = PoisonedStan(NetworkSpec(5, 4, 2, 1), seed=0)
    with pytest.raises(NonFiniteError) as info:
        train(model, train_set, val_set, TrainConfig(max_epochs=3, batch_size=32))
    message = str(info.value)
    assert "epoch 2," in message
    assert "batch starting at 32:" in message
    assert "'layers.1.gamma'" in message


def test_history_csv_round_trip(tmp_path):
    hist = TrainHistory(records=[
        EpochRecord(1, 0.5, 0.4, 0.001, 0.01),
        EpochRecord(2, 0.3, 0.35, 0.001, 0.011),
    ], best_epoch=1, best_val_loss=0.4, final_lr=0.001)
    path = tmp_path / "history.csv"
    hist.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,val_loss,lr,seconds"
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == 0.4


# ------------------------------------------------------------------- probe --

def test_probe_stan_memorizes_tiny_dataset():
    rng = np.random.default_rng(7)
    ds = _dataset(rng.standard_normal((32, 10)), rng.standard_normal((32, 1)))
    net = StanNetwork(NetworkSpec(10, 32, 2, 1), seed=0)
    final = overfit_probe(net, ds, steps=2000)
    assert final < 1e-3


def test_probe_linear_plateaus_at_least_squares_floor():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((32, 10))
    y = rng.standard_normal((32, 2))
    weights = fit_linear_regression(x, y, ridge=0.0)
    resid = np.hstack([np.ones((32, 1)), x]) @ weights - y
    floor = float(np.mean(resid ** 2))
    model = LinearNetwork(10, 2, seed=2)
    got = overfit_probe(model, _dataset(x, y), steps=3000)
    assert got == pytest.approx(floor, abs=1e-4)


def test_probe_zero_problem_starts_at_zero(constant_model_cls):
    ds = _dataset(np.zeros((4, 3)), np.zeros((4, 1)))
    model = constant_model_cls(value=0.0)
    assert overfit_probe(model, ds, steps=1) == 0.0
