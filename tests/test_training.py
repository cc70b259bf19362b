import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ConstantModel
from stanforge.baselines import LinearNetwork, MlpNetwork
from stanforge.data import WindowedDataset, prepare_splits
from stanforge.numerics import AdamState, NonFiniteError, adam_step, mse_loss
from stanforge.stan_core import NetworkSpec, StanNetwork
from stanforge.training import (
    ES_MIN_DELTA,
    ES_PATIENCE,
    LR_MIN,
    PLATEAU_FACTOR,
    PLATEAU_PATIENCE,
    TrainConfig,
    TrainHistory,
    EpochRecord,
    train,
)


def _dataset(inputs, targets):
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    return WindowedDataset(inputs, targets, np.arange(len(inputs)))


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
    for lr in (0.0, LR_MIN / 2):
        with pytest.raises(ValueError, match="lr must be finite and at least the plateau floor"):
            TrainConfig(lr=lr)
    for lr in (math.nan, math.inf, 10 ** 400):
        with pytest.raises(ValueError, match="^lr must be a finite real number"):
            TrainConfig(lr=lr)
    assert TrainConfig(lr=LR_MIN).lr == LR_MIN


@pytest.mark.parametrize("value", [True, False, np.True_, "0.01", None, [0.01], 1j])
def test_config_lr_refuses_a_bool_or_non_number(value):
    with pytest.raises(ValueError, match="^lr must be a finite real number"):
        TrainConfig(lr=value)


def test_config_lr_takes_python_and_numpy_numbers():
    assert [TrainConfig(lr=lr).lr for lr in (1, 0.01, np.float32(0.5), np.int64(2))] == [1, 0.01, 0.5, 2]


@pytest.mark.parametrize("field", ["max_epochs", "batch_size", "es_start_epoch", "seed"])
@pytest.mark.parametrize("value", [2.5, 8.0, True, np.float64(3.0), "3"])
def test_config_integer_fields_refuse_non_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be a (positive|non-negative) integer"):
        TrainConfig(**{field: value})


def test_config_integer_fields_take_numpy_integers():
    cfg = TrainConfig(max_epochs=np.int64(3), batch_size=np.int32(8), es_start_epoch=np.uint8(2), seed=np.int64(4))
    assert (cfg.max_epochs, cfg.batch_size, cfg.es_start_epoch, cfg.seed) == (3, 8, 2, 4)


def test_config_stores_numpy_numbers_as_python_numbers(tmp_path, constant_model_cls):
    cfg = TrainConfig(max_epochs=np.int64(2), batch_size=np.int64(32), lr=np.float64(0.01), es_start_epoch=np.int32(1),
                      seed=np.int64(3))
    assert [type(getattr(cfg, name)) for name in ("max_epochs", "batch_size", "lr", "es_start_epoch", "seed")] \
        == [int, int, float, int, int]
    assert json.dumps(dataclasses.asdict(cfg)) \
        == '{"max_epochs": 2, "batch_size": 32, "lr": 0.01, "es_start_epoch": 1, "seed": 3}'
    ds = _dataset(np.zeros((4, 3)), np.zeros((4, 1)))
    _, history = train(constant_model_cls(value=0.0), ds, ds, cfg)
    history.write_csv(tmp_path / "history.csv")
    rows = (tmp_path / "history.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[3]) for row in rows] == [0.01, 0.01]


def test_config_with_seed_replaces_only_seed():
    cfg = TrainConfig().with_seed(5)
    assert cfg.seed == 5
    assert cfg.max_epochs == 1000 and cfg.batch_size == 256 and cfg.lr == 0.001


# ------------------------------------------- early stopping and plateau --

def _stub_history(val_losses=(), **config):
    """``train``'s history for a stub whose epoch n scores ``val_losses[n - 1]``, then 1.0."""
    ds = _dataset(np.zeros((1, 3)), np.zeros((1, 1)))
    return train(ConstantModel(val_losses=val_losses), ds, ds, TrainConfig(**config))[1]


@pytest.mark.parametrize("es_start_epoch", [1, 20])  # 6, the default: test_train_constant_stub_stops_at_sixteen
def test_train_never_stops_before_start_epoch_plus_patience(es_start_epoch):
    hist = _stub_history(es_start_epoch=es_start_epoch)
    assert len(hist) == es_start_epoch + ES_PATIENCE
    assert hist.stopped_early


def test_train_stopping_wait_resets_on_material_improvement():
    # ES_PATIENCE - 1 idle epochs, an improvement, then ES_PATIENCE idle epochs again
    hist = _stub_history([1.0] * ES_PATIENCE + [0.5], es_start_epoch=1)
    assert len(hist) == 2 * ES_PATIENCE + 1 and hist.stopped_early
    assert hist.best_epoch == ES_PATIENCE + 1
    assert hist.best_val_loss == hist.records[ES_PATIENCE].val_loss == pytest.approx(0.5)


def test_train_keeps_a_non_material_best_without_resetting_the_wait():
    # below the best, but not by ES_MIN_DELTA
    hist = _stub_history([1.0, 1.0 - ES_MIN_DELTA / 2], es_start_epoch=1)
    assert hist.best_epoch == 2
    assert hist.best_val_loss == hist.records[1].val_loss == pytest.approx(1.0 - ES_MIN_DELTA / 2)
    assert len(hist) == 1 + ES_PATIENCE and hist.stopped_early  # epoch 2 counted as a wait


def test_train_rate_ladder_reaches_the_floor_with_stopping_disarmed():
    hist = _stub_history(max_epochs=25, es_start_epoch=100)
    assert len(hist) == 25 and not hist.stopped_early
    rates = [r.lr for r in hist.records]
    assert list(dict.fromkeys(rates)) == [0.001, 0.00025, 6.25e-05, 2.5e-05]
    assert rates[-1] == hist.final_lr == LR_MIN


def test_train_plateau_wait_resets_on_improvement():
    # PLATEAU_PATIENCE - 1 idle epochs, an improvement, then PLATEAU_PATIENCE idle epochs at 1.0
    hist = _stub_history([1.0] * PLATEAU_PATIENCE + [0.5], max_epochs=2 * PLATEAU_PATIENCE + 2,
                         es_start_epoch=100)
    assert [r.lr for r in hist.records] == [0.001] * (2 * PLATEAU_PATIENCE + 1) + [0.00025]


class _RefereeStopper:
    """The early-stopping rule as a stand-alone class, the referee of ``train``'s bookkeeping below."""

    def __init__(self, start_epoch):
        self.start_epoch, self.best, self.best_epoch, self.wait = start_epoch, float("inf"), 0, 0

    def update(self, epoch, val_loss):
        if val_loss < self.best - ES_MIN_DELTA:
            self.best, self.best_epoch, self.wait = val_loss, epoch, 0
            return False
        if val_loss < self.best:
            self.best, self.best_epoch = val_loss, epoch
        if epoch <= self.start_epoch:
            return False
        self.wait += 1
        return self.wait >= ES_PATIENCE


class _RefereeScheduler:
    """The plateau rule as a stand-alone class, the other referee."""

    def __init__(self, lr):
        self.lr, self.best, self.wait = lr, float("inf"), 0

    def update(self, val_loss):
        if val_loss < self.best - ES_MIN_DELTA:
            self.best, self.wait = val_loss, 0
            return
        self.wait += 1
        if self.wait >= PLATEAU_PATIENCE:
            self.lr, self.wait = max(self.lr * PLATEAU_FACTOR, LR_MIN), 0


@settings(max_examples=300, deadline=None)
@given(steps=st.lists(st.sampled_from([-3.0, -1.5, -1.0, -0.6, -0.5, 0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=60),
       es_start_epoch=st.integers(1, 15))
# a non-material best between two losses: the stopper's best moves, the plateau's does not
@example(steps=[0.0, -0.6, -0.6] + [0.0] * 20, es_start_epoch=1)
def test_train_bookkeeping_matches_the_stopper_and_scheduler_classes(steps, es_start_epoch):
    losses = 1.0 + ES_MIN_DELTA * np.cumsum(steps)
    hist = _stub_history(losses, max_epochs=len(losses), es_start_epoch=es_start_epoch)
    stopper, scheduler = _RefereeStopper(es_start_epoch), _RefereeScheduler(TrainConfig().lr)
    rates, stop = [], False
    for epoch, record in enumerate(hist.records, start=1):
        rates.append(scheduler.lr)
        stop = stopper.update(epoch, record.val_loss)
        scheduler.update(record.val_loss)
        if stop:
            break
    assert len(rates) == len(hist)
    assert [r.lr for r in hist.records] == rates
    assert (hist.best_epoch, hist.best_val_loss, hist.final_lr, hist.stopped_early) \
        == (stopper.best_epoch, stopper.best, scheduler.lr, stop)


# ------------------------------------------------------------------- train --

def test_train_constant_stub_stops_at_sixteen(constant_model_cls):
    ds = _dataset(np.zeros((8, 3)), np.zeros((8, 1)))
    _, hist = train(constant_model_cls(), ds, ds, TrainConfig())
    assert len(hist) == 16
    assert hist.stopped_early
    assert list(dict.fromkeys([r.lr for r in hist.records] + [hist.final_lr])) == [0.001, 0.00025, 6.25e-05, 2.5e-05]


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


@pytest.mark.parametrize("build", [lambda: LinearNetwork(8, 1, seed=2),
                                   lambda: StanNetwork(NetworkSpec(8, 4, 2, 1), seed=2)], ids=["linear", "stan"])
def test_recorded_validation_loss_is_what_mse_loss_reads_at_the_weights(build):
    train_set, val_set = _linear_problem(n=200)
    model = build()
    assert model.dtype == np.float32
    _, hist = train(model, train_set, val_set, TrainConfig(max_epochs=8, batch_size=32, seed=0))
    assert hist.best_val_loss == mse_loss(model.predict(val_set.inputs), val_set.targets)[0]


def test_train_bit_identical_given_seed():
    train_set, val_set = _linear_problem(n=200)
    runs = []
    for _ in range(2):
        model = LinearNetwork(8, 1, seed=3)
        _, hist = train(model, train_set, val_set,
                        TrainConfig(max_epochs=12, batch_size=32, seed=9))
        runs.append(([r.val_loss for r in hist.records], [r.train_loss for r in hist.records],
                     model.params["proj.W"].copy()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert np.array_equal(runs[0][2], runs[1][2])


def test_train_different_seed_changes_course():
    train_set, val_set = _linear_problem(n=200)
    hists = []
    for seed in (0, 1):
        model = LinearNetwork(8, 1, seed=4)
        _, hist = train(model, train_set, val_set,
                        TrainConfig(max_epochs=8, batch_size=32, seed=seed))
        hists.append([r.train_loss for r in hist.records])
    assert hists[0] != hists[1]


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
    nan_targets = _dataset(np.zeros((2, 3)), np.full((2, 1), np.nan))
    with pytest.raises(NonFiniteError, match="^epoch 1: validation loss is nan$"):
        train(constant_model_cls(value=0.0), ds, nan_targets)


def _switching_problem(n=120, q=5, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, q))
    y = np.where(x[:, :1] > 0.3, -0.8 * x[:, :1], 0.5 * x[:, 1:2]) + 0.1 * rng.standard_normal((n, 1))
    cut = int(0.75 * n)
    return _dataset(x[:cut], y[:cut]), _dataset(x[cut:], y[cut:])


def _per_array_reference(model, train_set, val_set, config):
    """The training loop with one Adam state and one ``adam_step`` per
    parameter array, with the inputs cast once to the model's dtype as
    ``train`` casts them; returns its (train_loss, val_loss) per epoch. Only
    valid for budgets too short for the plateau schedule or early stopping."""
    rng = np.random.default_rng(config.seed)
    train_x, val_x = (subset.inputs.astype(model.params.vector.dtype) for subset in (train_set, val_set))
    states = {name: AdamState.for_param(p, lr=config.lr) for name, p in model.params.items()}
    best_val, best = float("inf"), {name: p.copy() for name, p in model.params.items()}
    n, losses = len(train_set.inputs), []
    for _ in range(config.max_epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start: start + config.batch_size]
            pred, cache = model.forward(train_x[batch])
            loss, dpred = mse_loss(pred, train_set.targets[batch])
            grads = model.backward(cache, dpred)
            for name, param in model.params.items():
                adam_step(param, grads[name], states[name])
            batch_losses.append(loss)
        val_loss, _ = mse_loss(model.predict(val_x), val_set.targets)
        losses.append((float(np.mean(batch_losses)), val_loss))
        if val_loss < best_val:
            best_val, best = val_loss, {name: p.copy() for name, p in model.params.items()}
    for name, param in model.params.items():
        np.copyto(param, best[name])
    return losses


@pytest.mark.parametrize("fit", ["train"])
def test_arrays_taken_from_the_store_before_fitting_hold_the_fitted_values(fit):
    train_set, val_set = _switching_problem()
    spec = NetworkSpec(5, 4, 2, 1)
    model = StanNetwork(spec, seed=0)
    taken = dict(model.params)
    start = {name: arr.copy() for name, arr in taken.items()}
    train(model, train_set, val_set, TrainConfig(max_epochs=2, batch_size=32))
    assert all(taken[name] is model.params[name] for name in taken)
    assert any(not np.array_equal(start[name], arr) for name, arr in taken.items())
    rebuilt = StanNetwork(spec, params={name: arr.copy() for name, arr in taken.items()})
    assert rebuilt.predict(val_set.inputs).tobytes() == model.predict(val_set.inputs).tobytes()


def _params_sha256(model) -> str:
    return hashlib.sha256(b"".join(model.params[name].tobytes() for name in sorted(model.params))).hexdigest()


# Final-parameter digests of the runs below, recorded with one Adam update per
# array, in float32; they read the same with BLAS at one and at two threads.
FUSED_UPDATE_GOLDEN = {
    "STAN-5-4-3": "13c4ea8197c01981a7e358d511d3e488407d2760f6241f7f7e50ad00b2759e1c",
    "MLP-5-4-2": "d819a97cbd11404323f08f2f4f9f2c59b8f07ab0c1c59c8e1b02d14f700873bd",
    "LinearNN-5-1": "f54c164afe5a03c75cac5c78c311930326069acfafc1468ff890dccb5e2370ae",
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
# below, at the benchmark's shapes (lookback 45, 64 units, batch 256), trained
# in float32. They read the same with BLAS at one and at two threads.
BENCH_SHAPE_GOLDEN = {
    "STAN-64-3": ("9543d159f438aac53b1843f318ad3c140c15ec7c16dc392115ad03f4fcfcea1f",
                  "50c7ecfaa948b09a8d699b070712b3b1cf217352aee5037256aed6a62223678e"),
    "MLP-64-3": ("d5ccaac90aac6f2fabd17d7e0875f348755798b62eb00f47cdbefcbecd8d3631",
                 "82309ea95552bf8ad09340162250d795acb1f88a866a10b5a3c7a677710d9b31"),
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


# ---------------------------------------------------------------- capacity --
# the training set is also the validation set, and stopping starts at the last
# epoch, so every epoch runs; the plateau schedule still lowers the rate

def test_probe_stan_memorizes_tiny_dataset():
    rng = np.random.default_rng(7)
    ds = _dataset(rng.standard_normal((32, 10)), rng.standard_normal((32, 1)))
    net = StanNetwork(NetworkSpec(10, 32, 2, 1), seed=0)
    _, hist = train(net, ds, ds, TrainConfig(max_epochs=500, batch_size=32, es_start_epoch=500))
    assert hist.best_val_loss < 1e-3


def test_probe_linear_plateaus_at_least_squares_floor():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((32, 10))
    y = rng.standard_normal((32, 2))
    design = np.hstack([np.ones((32, 1)), x])
    weights, *_ = np.linalg.lstsq(design, y, rcond=None)
    floor = float(np.mean((design @ weights - y) ** 2))
    model = LinearNetwork(10, 2, seed=2)
    ds = _dataset(x, y)
    # at the stock rate the plateau floor stalls the fit short of the floor
    _, hist = train(model, ds, ds, TrainConfig(max_epochs=1000, batch_size=32, lr=1e-2, es_start_epoch=1000))
    assert hist.best_val_loss == pytest.approx(floor, abs=1e-4)
