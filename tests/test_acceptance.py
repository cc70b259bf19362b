"""Release gate: one test per headline guarantee, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Everything here goes through public entry points only; the per-module suites
cover the corners.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import ConstantModel, stan_fd_problem
from stanforge.baselines import LinearNetwork, LinearRegressionModel, MlpNetwork
from stanforge.data import (
    TimeSeries,
    WindowedDataset,
    fit_scaler,
    hourly_timestamps,
    load_pjm_csv,
    lookback_for,
    make_windows,
    prepare_splits,
    write_pjm_csv,
)
from stanforge.eval_bench import (
    BenchmarkPlan,
    DatasetRef,
    ModelEntry,
    aggregate,
    rmse,
    run_benchmark,
    write_report,
)
from stanforge.numerics import finite_diff_errors, relu
from stanforge.stan_core import NetworkSpec, StanNetwork, count_parameters, transition_g
from stanforge.star_classic import LstarParams, estimate_lstar, simulate_lstar
from stanforge.training import TrainConfig, train


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# 1. analytic gradients agree with central finite differences


def test_gradients_match_finite_differences():
    # np.max lets a NaN error win, where max(0.0, nan) would drop it
    worst = np.max([error for spec in (NetworkSpec(5, 4, 3, 2), NetworkSpec(10, 8, 4, 3))
                    for error in finite_diff_errors(*stan_fd_problem(spec)).values()])
    _report("gradient-check", worst < 1e-5,
            f"max relative error {worst:.3e} over both architectures (tol 1e-5)")


# 2. parameter counts reproduce the published table at 0.1M rounding


def test_published_parameter_counts():
    def millions(count):
        return round(count / 1e6, 1)

    horizons = (1, 6, 12)
    got = {
        "stan-3000-3": [millions(count_parameters(NetworkSpec(lookback_for(h), 3000, 3, h)))
                        for h in horizons],
        "stan-3000-4": [millions(count_parameters(NetworkSpec(lookback_for(h), 3000, 4, h)))
                        for h in horizons],
        "mlp-3000-3": [millions(count_parameters(NetworkSpec(lookback_for(h), 3000, 3, h), gated=False))
                       for h in horizons],
    }
    want = {
        "stan-3000-3": [18.2, 18.2, 18.3],
        "stan-3000-4": [27.2, 27.2, 27.3],
        "mlp-3000-3": [18.1, 18.2, 18.2],
    }
    lookbacks = [lookback_for(h) for h in horizons]
    linear_count = LinearNetwork(45, 1).num_params()
    ok = got == want and lookbacks == [45, 45, 60] and linear_count == 46
    _report("parameter-counts", ok,
            f"{got} vs {want}, lookbacks {lookbacks}, linear {linear_count}")


# 3. classical estimator recovers the generator it simulated


def test_transition_model_round_trip():
    truth = LstarParams(phi0=0.05, phi=[0.9], theta=[-1.4], gamma=20.0, c=0.0, sigma=0.0)
    series = simulate_lstar(truth, n=1500, seed=3)
    est, sse = estimate_lstar(
        series, order=1,
        gamma_grid=(0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0),
        c_grid=(-0.5, -0.25, 0.0, 0.25, 0.5),
    )
    coef_err = max(abs(est.phi0 - truth.phi0),
                   abs(est.phi[0] - truth.phi[0]),
                   abs(est.theta[0] - truth.theta[0]))
    ok = est.gamma == 20.0 and est.c == 0.0 and coef_err < 1e-6 and sse < 1e-10
    _report("star-round-trip", ok,
            f"gamma {est.gamma}, c {est.c}, coef err {coef_err:.2e}, sse {sse:.2e}")


# 4. the network beats closed-form linear regression on a regime-switching
#    series when trained with the stock protocol


def test_network_beats_linear_on_switching_series(advantage_series):
    margins = []
    for seed in (0, 1, 2):
        prep = prepare_splits(advantage_series, horizon=1, seed=seed)
        model = StanNetwork(NetworkSpec(prep.lookback, 64, 3, 1), seed=seed)
        model, _ = train(model, prep.train, prep.val, TrainConfig().with_seed(seed))
        net_rmse = rmse(prep.test.targets, model.predict(prep.test.inputs))
        pool_x = np.vstack([prep.train.inputs, prep.val.inputs])
        pool_y = np.vstack([prep.train.targets, prep.val.targets])
        linear = LinearRegressionModel.fit(pool_x, pool_y)
        margins.append(rmse(prep.test.targets, linear.predict(prep.test.inputs)) - net_rmse)
    mean_margin = float(np.mean(margins))
    _report("nonlinear-advantage", mean_margin >= 0.01,
            f"mean RMSE margin over linear {mean_margin:+.4f} across 3 seeds (need >= +0.01)")


# 5. ordering on real hourly load data; needs a locally provided CSV


def test_real_load_data_ordering():
    csv_path = os.environ.get("STANFORGE_PJM_CSV")
    column = os.environ.get("STANFORGE_PJM_COLUMN")
    if not csv_path or not column:
        print("[SKIP] real-data-ordering: set STANFORGE_PJM_CSV and "
              "STANFORGE_PJM_COLUMN to a real hourly load CSV to enable")
        pytest.skip("no real load CSV configured")
    series = load_pjm_csv(csv_path, column)
    scores = {"stan": [], "mlp": [], "linreg": []}
    for seed in (0, 1, 2):
        prep = prepare_splits(series, horizon=1, seed=seed)
        for kind in ("stan", "mlp"):
            cls = StanNetwork if kind == "stan" else MlpNetwork
            model = cls(NetworkSpec(prep.lookback, 128, 3, 1), seed=seed)
            model, _ = train(model, prep.train, prep.val, TrainConfig().with_seed(seed))
            scores[kind].append(rmse(prep.test.targets, model.predict(prep.test.inputs)))
        pool_x = np.vstack([prep.train.inputs, prep.val.inputs])
        pool_y = np.vstack([prep.train.targets, prep.val.targets])
        linear = LinearRegressionModel.fit(pool_x, pool_y)
        scores["linreg"].append(rmse(prep.test.targets, linear.predict(prep.test.inputs)))
    means = {k: float(np.mean(v)) for k, v in scores.items()}
    ok = means["stan"] < means["linreg"] and means["stan"] <= means["mlp"] + 0.005
    _report("real-data-ordering", ok, f"mean RMSE {means}")


# 6. training protocol mechanics: stall detection and LR ladder


def test_training_protocol_mechanics():
    ds = WindowedDataset(np.zeros((8, 3)), np.zeros((8, 1)), np.arange(8))
    _, history = train(ConstantModel(), ds, ds, TrainConfig())
    schedule = list(dict.fromkeys([r.lr for r in history.records] + [history.final_lr]))
    ok = len(history) == 16 and schedule == [0.001, 0.00025, 6.25e-05, 2.5e-05]
    _report("protocol-mechanics", ok,
            f"stalled stub stopped after {len(history)} epochs with LR ladder {schedule}")


# 7. the benchmark is bit-reproducible end to end


def test_benchmark_rerun_is_byte_identical(advantage_series, tmp_path):
    hourly = TimeSeries(name="LSTAR",
                        timestamps=hourly_timestamps(len(advantage_series.values)),
                        values=advantage_series.values)
    data = write_pjm_csv(hourly, tmp_path / "lstar.csv")
    plan = BenchmarkPlan(
        datasets=[DatasetRef(str(data), "LSTAR_MW")],
        horizons=[1, 6],
        models=[ModelEntry(kind="stan", units=32, depth=3),
                ModelEntry(kind="mlp", units=32, depth=3),
                ModelEntry(kind="linear"),
                ModelEntry(kind="linreg")],
        runs=2,
        base_seed=7,
        train=TrainConfig(max_epochs=40),
    )
    blobs = []
    for attempt in ("a", "b"):
        results = run_benchmark(plan)
        write_report(aggregate(results), results, tmp_path / attempt)
        blobs.append((tmp_path / attempt / "results.json").read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _report("benchmark-determinism", ok,
            f"two full reruns produced {'identical' if ok else 'DIFFERENT'} "
            f"results.json ({len(blobs[0])} bytes)")


# The sha256 of the desk-scale ``results.json`` below, recorded with BLAS at
# one thread (it read the same at two). A change that moves it moves the bits
# of the benchmark's results and must show why.
DESK_RESULTS_SHA256 = "4ec51e8734c48b3bd10984c72729f82f27646880de56ff1dc7363082c0bf6168"


def test_desk_scale_results_keep_their_bytes(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(Path(__file__).parents[1] / "src"),
                                          *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = str(tmp_path / "out")
    for argv in (["fixtures", "--n", "1500"],
                 ["benchmark", "--desk-scale", "--data", str(Path(out) / "fixtures-seed0" / "EAST.csv"),
                  "--column", "EAST_MW", "--horizons", "1,6", "--runs", "2", "--max-epochs", "5"]):
        subprocess.run([sys.executable, "-m", "stanforge.cli", *argv, "--out", out],
                       env=env, check=True, capture_output=True)
    digest = hashlib.sha256((Path(out) / "benchmark-seed0" / "results.json").read_bytes()).hexdigest()
    _report("results-bytes", digest == DESK_RESULTS_SHA256,
            f"desk-scale results.json sha256 {digest[:12]}..., recorded {DESK_RESULTS_SHA256[:12]}...")


# 8. structural invariants: gate, linear regime, windowing, scaling, scoring


def test_invariant_battery():
    rng = np.random.default_rng(0)
    problems = []

    z = rng.standard_normal(2000) * 10.0
    gate = transition_g(z, gamma=3.0, c=0.25)
    if not (np.all(gate > 0.0) and np.all(gate < 1.0)):
        problems.append("gate left (0, 1)")
    order = np.argsort(z)
    if not np.all(np.diff(gate[order]) >= 0.0):
        problems.append("gate not monotone in z")
    if not np.isclose(transition_g(np.array([0.25]), 3.0, 0.25)[0], 0.5):
        problems.append("gate midpoint not 1/2")
    hard = transition_g(np.array([-50.0, 50.0]), gamma=1e4, c=0.0)
    if not (hard[0] < 1e-12 and hard[1] > 1.0 - 1e-12):
        problems.append("gate does not saturate")

    spec = NetworkSpec(6, 4, 2, 2)
    net = StanNetwork(spec, seed=1)
    for i in range(spec.depth):
        net.params[f"layers.{i}.theta"][:] = 0.0
    a, b = rng.standard_normal((2, 3, 6))
    lhs = net.predict(2.0 * a + 3.0 * b)
    rhs = 2.0 * net.predict(a) + 3.0 * net.predict(b) - 4.0 * net.predict(np.zeros((3, 6)))
    if not np.allclose(lhs, rhs, atol=1e-10):
        problems.append("zero-theta network is not affine")

    series = TimeSeries(name="W", timestamps=np.arange(80, dtype=np.float64),
                        values=rng.standard_normal(80))
    windows = make_windows(series.values, lookback=10, horizon=2)
    for row in range(len(windows.inputs)):
        anchor = windows.anchors[row]
        if not (np.array_equal(windows.inputs[row], series.values[anchor - 10:anchor])
                and np.array_equal(windows.targets[row], series.values[anchor:anchor + 2])):
            problems.append("window rows misaligned with source")
            break
    if len(windows.inputs) != 80 - 12 + 1:
        problems.append("window count wrong")

    raw = rng.standard_normal(500) * 7.0 + 40.0
    scaler = fit_scaler(raw)
    scaled = (raw - scaler.mean) / scaler.std
    if not (abs(scaled.mean()) < 1e-12 and abs(scaled.std() - 1.0) < 1e-12):
        problems.append("scaler does not standardize")
    if not np.allclose(scaled * scaler.std + scaler.mean, raw, atol=1e-9):
        problems.append("scaler round trip lossy")

    y = rng.standard_normal((50, 2))
    if rmse(y, y) != 0.0:
        problems.append("rmse of exact prediction nonzero")
    pred = y + 1.0
    if not np.isclose(rmse(y, pred), 1.0):
        problems.append("rmse of unit offset not 1")
    if not np.isclose(rmse(y, np.zeros_like(y)) ** 2, np.mean(y ** 2)):
        problems.append("rmse does not square to MSE")
    if np.any(relu(np.array([-1.0, 0.0, 2.0])) != np.array([0.0, 0.0, 2.0])):
        problems.append("relu values wrong")

    _report("invariant-battery", not problems, "; ".join(problems) or "all invariants hold")
