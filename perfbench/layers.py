"""The stanforge layers the traced run measures, and the metrics it derives.

A layer is a module of ``src/stanforge``; the traced run times calls into its
public functions and methods. Each entry names the workload meant to exercise
it; the tests check that the function records calls there. The end-to-end
metric each layer should move:

- ``stan_core``: epoch and predict time on ``fit_stan``; no calls on ``fit_mlp``.
- ``numerics`` kernels and ``adam_step``: epoch time on both fits, mostly
  visible on ``fit_mlp``, which has no gate.
- ``baselines``: ``MlpNetwork`` on ``fit_mlp``; ``LinearNetwork`` and the
  closed-form fit on ``desk_matrix``.
- ``training.train``: epoch time on the fits, epochs per second on ``desk_matrix``.
- ``eval_bench`` and ``cli``: matrix time on ``desk_matrix`` only.
- ``data``: matrix time, CSV round-trip time on ``lstar_oracle``, and set-up.
- ``star_classic``: simulate and estimate time on ``lstar_oracle``.
- ``checkpoint``: a small share of the fit operation.

Counts marked "computed" come from argument shapes and results, not from
timers, so they repeat exactly between runs of the same seed.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
from typing import NamedTuple

from tracer import CountHook, LabelStats, Span, Tracer, pool_busy_ratio, summarize


def _arg(args: tuple, kwargs: dict, index: int, name: str, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _affine_forward_flop(args, kwargs, result):
    m, p = args[0].shape
    return {"numerics.affine_forward.gflop": 2 * m * p * args[1].shape[1]}


def _affine_backward_flop(args, kwargs, result):
    m, p = args[0].shape
    return {"numerics.affine_backward.gflop": 4 * m * p * args[1].shape[1]}


def _gate_elements(args, kwargs, result):
    return {"stan_core.transition_g.melem": int(getattr(result, "size", 1))}


def _adam_elements(args, kwargs, result):
    return {"numerics.adam_step.melem": int(args[0].size)}


def _train_counts(args, kwargs, result):
    from stanforge.training import TrainConfig

    _, history = result
    config = _arg(args, kwargs, 3, "config") or TrainConfig()
    n = len(_arg(args, kwargs, 1, "train_set").inputs)
    epochs = len(history)
    return {
        "training.epochs": epochs,
        "training.batches": epochs * math.ceil(n / config.batch_size),
        "training.best_epochs": history.best_epoch,
    }


def _matrix_counts(args, kwargs, result):
    return {
        "eval_bench.cells": len(result),
        "eval_bench.cells_failed": sum(1 for r in result if r.failed),
        "eval_bench.jobs": max(1, int(_arg(args, kwargs, 1, "jobs", 1))),
    }


def _csv_rows(args, kwargs, result):
    return {"data.load_pjm_csv.rows": len(result)}


def _grid_points(args, kwargs, result):
    from stanforge import star_classic

    gammas = _arg(args, kwargs, 3, "gamma_grid")
    cs = _arg(args, kwargs, 4, "c_grid")
    default_cs = inspect.signature(star_classic.default_c_grid).parameters["count"].default
    n_gamma = len(star_classic.DEFAULT_GAMMA_GRID if gammas is None else gammas)
    return {"star_classic.estimate_lstar.grid_points": n_gamma * (default_cs if cs is None else len(cs))}


def _checkpoint_bytes(args, kwargs, result):
    return {"checkpoint.save_checkpoint.bytes": os.path.getsize(result)}


class Layer(NamedTuple):
    module: str            # stanforge submodule that defines the function
    qualname: str          # function name, or Class.method
    workload: str          # the workload meant to exercise it
    hook: CountHook | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS = (
    Layer("stan_core", "transition_g", "fit_stan", _gate_elements),
    Layer("stan_core", "stan_layer_forward", "fit_stan"),
    Layer("stan_core", "stan_layer_backward", "fit_stan"),
    Layer("stan_core", "StanNetwork.forward", "fit_stan"),
    Layer("stan_core", "StanNetwork.backward", "fit_stan"),
    Layer("numerics", "affine_forward", "fit_mlp", _affine_forward_flop),
    Layer("numerics", "affine_backward", "fit_mlp", _affine_backward_flop),
    Layer("numerics", "mse_loss", "fit_mlp"),
    Layer("numerics", "relu", "fit_mlp"),
    Layer("numerics", "relu_grad", "fit_mlp"),
    Layer("numerics", "adam_step", "fit_mlp", _adam_elements),
    Layer("baselines", "MlpNetwork.forward", "fit_mlp"),
    Layer("baselines", "MlpNetwork.backward", "fit_mlp"),
    Layer("baselines", "MlpNetwork.predict", "fit_mlp"),
    Layer("baselines", "LinearNetwork.forward", "desk_matrix"),
    Layer("baselines", "LinearNetwork.backward", "desk_matrix"),
    Layer("baselines", "LinearNetwork.predict", "desk_matrix"),
    Layer("baselines", "fit_linear_regression", "desk_matrix"),
    Layer("training", "train", "fit_stan", _train_counts),
    Layer("eval_bench", "run_benchmark", "desk_matrix", _matrix_counts),
    Layer("eval_bench", "aggregate", "desk_matrix"),
    Layer("eval_bench", "write_report", "desk_matrix"),
    Layer("data", "load_pjm_csv", "lstar_oracle", _csv_rows),
    Layer("data", "write_pjm_csv", "lstar_oracle"),
    Layer("data", "prepare_splits", "desk_matrix"),
    Layer("star_classic", "simulate_lstar", "lstar_oracle"),
    Layer("star_classic", "estimate_lstar", "lstar_oracle", _grid_points),
    Layer("checkpoint", "save_checkpoint", "fit_stan", _checkpoint_bytes),
    Layer("checkpoint", "load_checkpoint", "fit_stan"),
    Layer("cli", "main", "desk_matrix"),
)

# computed count -> (unit, divisor from the raw integer the hook records, better)
COMPUTED = {
    "stan_core.transition_g.melem": ("Melem", 10**6, "lower"),
    "numerics.affine_forward.gflop": ("gflop", 10**9, "lower"),
    "numerics.affine_backward.gflop": ("gflop", 10**9, "lower"),
    "numerics.adam_step.melem": ("Melem", 10**6, "lower"),
    "training.epochs": ("count", 1, "lower"),
    "training.batches": ("count", 1, "lower"),
    "eval_bench.cells": ("count", 1, "higher"),
    "eval_bench.cells_failed": ("count", 1, "lower"),
    "data.load_pjm_csv.rows": ("count", 1, "higher"),
    "star_classic.estimate_lstar.grid_points": ("count", 1, "lower"),
    "checkpoint.save_checkpoint.bytes": ("bytes", 1, "lower"),
}

DERIVED = {
    "training.useful_epoch_ratio": ("ratio", "higher"),
    "eval_bench.pool_busy_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for layer in LAYERS:
        specs += [(f"{layer.label}.calls", "count", "lower"),
                  (f"{layer.label}.self_s", "s", "lower"),
                  (f"{layer.label}.wait_s", "s", "lower")]
    specs += [(name, unit, better) for name, (unit, _, better) in COMPUTED.items()]
    specs += [(name, unit, better) for name, (unit, better) in DERIVED.items()]
    return specs


def install(tracer: Tracer) -> None:
    """Wrap every layer function at each stanforge binding that resolves it."""
    for layer in LAYERS:
        importlib.import_module(f"stanforge.{layer.module}")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "stanforge" or name.startswith("stanforge.")]
    for layer in LAYERS:
        owner = sys.modules[f"stanforge.{layer.module}"]
        if "." in layer.qualname:
            cls_name, attr = layer.qualname.split(".")
            tracer.patch_method(layer.label, getattr(owner, cls_name), attr, layer.hook)
        else:
            tracer.patch_function(layer.label, getattr(owner, layer.qualname), modules, layer.hook)


def per_layer_metrics(spans: list[Span], ops: int, overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics from the spans of ``ops`` traced operations."""
    stats = summarize(spans)
    empty = LabelStats(0, 0.0, 0.0, {})
    counts: dict[str, int] = {}
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        s = stats.get(layer.label, empty)
        out[f"{layer.label}.calls"] = (s.calls / ops, "count")
        out[f"{layer.label}.self_s"] = (s.self_s / ops, "s")
        out[f"{layer.label}.wait_s"] = (s.wait_s / ops, "s")
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value
    for name, (unit, divisor, _) in COMPUTED.items():
        out[name] = (counts.get(name, 0) / ops / divisor, unit)
    epochs = counts.get("training.epochs", 0)
    out["training.useful_epoch_ratio"] = (counts.get("training.best_epochs", 0) / epochs if epochs else 0.0, "ratio")
    out["eval_bench.pool_busy_ratio"] = (pool_busy_ratio(spans, "eval_bench.run_benchmark", "eval_bench.jobs"), "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
