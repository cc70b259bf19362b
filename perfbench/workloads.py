"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned. The only other threads are the program's
own ``--jobs`` pool in ``desk_matrix``, left at its default of one worker per
core. ``setup`` builds every input from the seed; ``op`` runs one operation
on those inputs and returns its wall time, its checks, the samples behind
the workload's own metrics, and a fingerprint of its outputs. Operations of
one run use the same inputs, so their fingerprints must agree. Each operation
overwrites the files of the one before it.

Why these four:

- ``fit_stan``: STAN-64-3 training, where the ``stan_core`` gate carries most
  of the epoch; it also times predict and a checkpoint round trip.
- ``fit_mlp``: the same loop, data and budget with MLP-64-3 and no gate, so a
  ``stan_core`` change should not move it, while optimizer and affine-kernel
  changes show more clearly than on ``fit_stan``.
- ``desk_matrix``: many short width-32 fits through ``cli.main``, where
  per-call overhead, data preparation, orchestration, reports and the thread
  pool carry the weight.
- ``lstar_oracle``: the classical LSTAR oracle and CSV writes and reads,
  which training barely touches; a training change should not move it.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from stanforge import baselines, checkpoint, cli, data, eval_bench, stan_core, star_classic, training

# Copy of tests/conftest.py::nonlinear_generator, kept here so that editing the
# test fixtures cannot change the benchmark's inputs.
GENERATOR = star_classic.LstarParams(
    phi0=0.4,
    phi=[0.35, 0.12, 0.10, 0.08, 0.06, 0.05, 0.04, 0.03],
    theta=[-1.5, 0, 0, 0, 0, 0, 0, 0],
    gamma=10.0,
    c=0.7,
    sigma=0.05,
)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Op:
    seconds: float
    checks: list[Check]
    samples: dict[str, list[float]]
    fingerprint: bytes = b""


@dataclass
class Metric:
    """A workload-specific metric for the report, with the sample count behind it."""

    name: str
    value: float
    unit: str
    samples: int


def _pooled(ops: list[Op], key: str) -> list[float]:
    return [v for op in ops for v in op.samples.get(key, [])]


def _median_metric(ops: list[Op], key: str, unit: str) -> Metric:
    values = _pooled(ops, key)
    return Metric(key, float(np.median(values)), unit, len(values))


def percentile_metrics(ops: list[Op], key: str, unit: str) -> list[Metric]:
    """Median plus the highest of p99/p90/p75 with at least ten samples beyond it."""
    values = _pooled(ops, key)
    out = [Metric(f"{key}.p50", float(np.percentile(values, 50)), unit, len(values))]
    for q in (99, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            out.append(Metric(f"{key}.p{q}", float(np.percentile(values, q)), unit, len(values)))
            break
    return out


def _quiet(fn, *args):
    """Call ``fn`` with its standard output captured; returns (result, text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        result = fn(*args)
    return result, buffer.getvalue()


def gradcheck(workdir: Path) -> Check:
    """``stanforge gradcheck`` at its default spec and seed: worst relative error below 1e-5."""
    code, text = _quiet(cli.main, ["gradcheck", "--out", str(workdir / "gradcheck")])
    worst = re.search(r"worst (\S+)", text)
    return Check("gradcheck default spec worst error below 1e-5", code == 0,
                 f"worst {worst.group(1) if worst else '?'}")


@dataclass
class FitInputs:
    seed: int
    prep: data.PreparedSplits
    linreg_rmse: float


@dataclass
class Fit:
    """Train a 64-unit, depth-3 network at horizon 1 for a fixed epoch budget,
    then time repeated test-set predictions and a checkpoint round trip."""

    name: str
    kind: str                 # "stan" or "mlp"
    epochs: int = 30
    predicts: int = 25        # timed predict calls per operation
    series_length: int = 5000

    def model(self, prep: data.PreparedSplits, seed: int):
        spec = stan_core.NetworkSpec(lookback=prep.lookback, units=64, depth=3, horizon=prep.horizon)
        cls = stan_core.StanNetwork if self.kind == "stan" else baselines.MlpNetwork
        return cls(spec, seed=seed)

    def config(self, seed: int) -> training.TrainConfig:
        # wait counting starts at the last epoch, so early stopping never fires
        return training.TrainConfig(max_epochs=self.epochs, es_start_epoch=self.epochs, seed=seed)

    def setup(self, seed: int, workdir: Path) -> FitInputs:
        series = star_classic.simulate_lstar(GENERATOR, n=self.series_length, seed=seed)
        prep = data.prepare_splits(series, horizon=1, seed=seed)
        pool_x = np.vstack([prep.train.inputs, prep.val.inputs])
        pool_y = np.vstack([prep.train.targets, prep.val.targets])
        linreg = baselines.LinearRegressionModel.fit(pool_x, pool_y)
        linreg_rmse = eval_bench.rmse(prep.test.targets, linreg.predict(prep.test.inputs))
        # warm-up at the training batch shape, so lazy allocation is not timed
        model = self.model(prep, seed)
        pred, cache = model.forward(prep.train.inputs[:256])
        model.backward(cache, pred)
        return FitInputs(seed, prep, linreg_rmse)

    def op(self, inputs: FitInputs, workdir: Path) -> Op:
        prep = inputs.prep
        tic = time.perf_counter()
        model = self.model(prep, inputs.seed)
        t0 = time.perf_counter()
        _, history = training.train(model, prep.train, prep.val, self.config(inputs.seed))
        fit_s = time.perf_counter() - t0
        predict_ms = []
        for _ in range(self.predicts):
            t = time.perf_counter()
            pred = model.predict(prep.test.inputs)
            predict_ms.append((time.perf_counter() - t) * 1e3)
        path = workdir / f"{self.name}.json"
        t = time.perf_counter()
        checkpoint.save_checkpoint(path, model, scaler=prep.scaler)
        reloaded, _ = checkpoint.load_checkpoint(path)
        checkpoint_s = time.perf_counter() - t
        seconds = time.perf_counter() - tic

        test_rmse = eval_bench.rmse(prep.test.targets, pred)
        epoch_total = sum(r.seconds for r in history.records)
        checks = [
            Check("epoch records account for the train call", 0.9 * fit_s <= epoch_total <= fit_s,
                  f"{epoch_total:.4f} s of {fit_s:.4f} s over {len(history)} epochs"),
            Check("test_rmse finite and below LinReg", bool(np.isfinite(test_rmse)) and test_rmse < inputs.linreg_rmse,
                  f"{test_rmse:.5f} vs LinReg {inputs.linreg_rmse:.5f}"),
            Check("reloaded checkpoint predicts bit-identically",
                  reloaded.predict(prep.test.inputs).tobytes() == pred.tobytes()),
        ]
        samples = {
            "fit_s": [fit_s],
            "epoch_ms": [r.seconds * 1e3 for r in history.records],
            "predict_ms": predict_ms,
            "test_rmse": [test_rmse],
            "checkpoint_s": [checkpoint_s],
        }
        return Op(seconds, checks, samples, pred.tobytes())

    def report(self, ops: list[Op]) -> list[Metric]:
        return [
            _median_metric(ops, "fit_s", "s"),
            *percentile_metrics(ops, "epoch_ms", "ms"),
            *percentile_metrics(ops, "predict_ms", "ms"),
            _median_metric(ops, "test_rmse", "std-units"),
            _median_metric(ops, "checkpoint_s", "s"),
        ]


@dataclass
class DeskInputs:
    seed: int
    config: Path


@dataclass
class DeskMatrix:
    """``stanforge benchmark --desk-scale`` through ``cli.main``: two fixture
    regions, all four model kinds, horizons 1, 6 and 12, two runs per cell
    (48 cells), stock early stopping and the default worker pool."""

    name: str = "desk_matrix"
    plan_args: tuple[str, ...] = ("--horizons", "1,6,12", "--runs", "2")
    jobs: int | None = None   # None keeps the CLI default of one worker per core

    def setup(self, seed: int, workdir: Path) -> DeskInputs:
        out = workdir / "fixtures"
        code, _ = _quiet(cli.main, ["fixtures", "--out", str(out), "--seed", str(seed)])
        if code != 0:
            raise RuntimeError(f"stanforge fixtures exited with {code}")
        fixtures = out / f"fixtures-seed{seed}"
        config = workdir / "desk.json"
        config.write_text(json.dumps({"datasets": [
            {"path": str(fixtures / f"{region}.csv"), "column": f"{region}_MW"} for region in ("EAST", "WEST")
        ]}))
        return DeskInputs(seed, config)

    def op(self, inputs: DeskInputs, workdir: Path) -> Op:
        out = workdir / "matrix"
        argv = ["benchmark", "--desk-scale", "--config", str(inputs.config), "--out", str(out),
                "--seed", str(inputs.seed), *self.plan_args]
        if self.jobs is not None:
            argv += ["--jobs", str(self.jobs)]
        tic = time.perf_counter()
        code, _ = _quiet(cli.main, argv)
        seconds = time.perf_counter() - tic
        raw = (out / f"benchmark-seed{inputs.seed}" / "results.json").read_bytes()
        results = json.loads(raw)["results"]
        failed = sum(1 for r in results if r["error"] is not None)
        epochs = sum(r["epochs"] for r in results)
        checks = [
            Check("benchmark exit code 0", code == 0, f"exit {code}"),
            Check("no cell failed", failed == 0, f"{failed} of {len(results)} cells failed"),
        ]
        samples = {"matrix_s": [seconds], "matrix_epochs_per_s": [epochs / seconds],
                   "cells": [len(results)], "epochs": [epochs]}
        return Op(seconds, checks, samples, raw)

    def report(self, ops: list[Op]) -> list[Metric]:
        return [
            _median_metric(ops, "matrix_s", "s"),
            _median_metric(ops, "matrix_epochs_per_s", "1/s"),
            _median_metric(ops, "cells", "count"),
            _median_metric(ops, "epochs", "count"),
        ]


@dataclass
class LstarOracle:
    """Simulate a long LSTAR series, write and reload it as an hourly CSV, and
    estimate it on the default 7 x 15 (gamma, c) grid at order 8."""

    name: str = "lstar_oracle"
    series_length: int = 20_000
    warmup_length: int = 1_000

    def _chain(self, seed: int, path: Path, n: int) -> Op:
        t0 = time.perf_counter()
        simulated = star_classic.simulate_lstar(GENERATOR, n=n, seed=seed)
        series = data.TimeSeries(name="LSTAR", timestamps=data.hourly_timestamps(n), values=simulated.values)
        t1 = time.perf_counter()
        data.write_pjm_csv(series, path)
        loaded = data.load_pjm_csv(path, "LSTAR_MW")
        t2 = time.perf_counter()
        params, sse = star_classic.estimate_lstar(loaded, order=GENERATOR.order)
        t3 = time.perf_counter()
        exact = (loaded.values.tobytes() == series.values.tobytes()
                 and np.array_equal(loaded.timestamps, series.timestamps))
        checks = [
            Check("CSV round trip is bit-exact", exact),
            Check("estimate recovers gamma", params.gamma == GENERATOR.gamma, f"gamma {params.gamma}"),
            Check("estimate recovers c within 0.05", abs(params.c - GENERATOR.c) < 0.05, f"c {params.c:.6f}"),
        ]
        samples = {"simulate_s": [t1 - t0], "csv_roundtrip_s": [t2 - t1], "estimate_s": [t3 - t2]}
        return Op(t3 - t0, checks, samples, repr((params.gamma, params.c, sse)).encode())

    def setup(self, seed: int, workdir: Path) -> int:
        # a short chain lets lazy set-up (strptime, LAPACK) finish before timing
        self._chain(seed, workdir / "warmup.csv", self.warmup_length)
        return seed

    def op(self, seed: int, workdir: Path) -> Op:
        return self._chain(seed, workdir / "lstar.csv", self.series_length)

    def report(self, ops: list[Op]) -> list[Metric]:
        return [_median_metric(ops, key, "s") for key in ("simulate_s", "csv_roundtrip_s", "estimate_s")]


WORKLOADS = {
    "fit_stan": lambda: Fit("fit_stan", "stan"),
    "fit_mlp": lambda: Fit("fit_mlp", "mlp"),
    "desk_matrix": DeskMatrix,
    "lstar_oracle": LstarOracle,
}
