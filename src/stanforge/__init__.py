"""Smooth-transition autoregressive networks, from scratch on numpy.

The package covers the full path from classical two-regime STAR models to
their neural generalization: simulation and concentrated least-squares
estimation (``star_classic``), hand-derived layer math with a finite
difference referee (``stan_core``, ``numerics``), matched baselines
(``baselines``), the shared training protocol (``training``), data
preparation (``data``), a benchmark harness (``eval_bench``), JSON
checkpoints (``checkpoint``), and a CLI (``cli``).
"""

from .baselines import LinearNetwork, LinearRegressionModel, MlpNetwork
from .checkpoint import load_checkpoint, save_checkpoint
from .data import TimeSeries, lookback_for, load_pjm_csv, make_windows, prepare_splits
from .eval_bench import BenchmarkPlan, DatasetRef, ModelEntry, RunResult, aggregate, rmse, run_benchmark, write_report
from .numerics import finite_diff_errors
from .stan_core import NetworkSpec, StanNetwork, count_parameters, transition_g
from .star_classic import LstarParams, estimate_lstar, simulate_lstar
from .training import TrainConfig, TrainHistory, train

__version__ = "0.1.0"

__all__ = [
    "BenchmarkPlan",
    "DatasetRef",
    "LinearNetwork",
    "LinearRegressionModel",
    "LstarParams",
    "MlpNetwork",
    "ModelEntry",
    "NetworkSpec",
    "RunResult",
    "StanNetwork",
    "TimeSeries",
    "TrainConfig",
    "TrainHistory",
    "aggregate",
    "count_parameters",
    "estimate_lstar",
    "finite_diff_errors",
    "load_checkpoint",
    "load_pjm_csv",
    "lookback_for",
    "make_windows",
    "prepare_splits",
    "rmse",
    "run_benchmark",
    "save_checkpoint",
    "simulate_lstar",
    "train",
    "transition_g",
    "write_report",
    "__version__",
]
