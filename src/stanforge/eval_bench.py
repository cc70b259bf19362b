"""Benchmark matrix: models x horizons x datasets x seeded runs, plus reports.

A plan fully specifies every cell up front. Each run derives its seed as
``base_seed + run_index`` and uses it for the split, the weight init, and
the batch shuffling, so results are reproducible and independent of the
order (or concurrency) in which cells execute. A run that hits a data or
numeric error is recorded as failed in the results instead of aborting the
matrix; any other exception propagates.

Report files: ``results_rmse_mean.csv``, ``results_rmse_std.csv``,
``results_time.csv``, ``results.json``, ``report.md``. Wall-clock seconds
appear only in the time report; ``results.json`` stays byte-identical
across reruns of the same plan.
"""

from __future__ import annotations

import json
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import MODEL_KINDS
from .data import DataFormatError, PreparedSplits, TimeSeries, load_pjm_csv, prepare_splits
from .numerics import mse_loss
from .training import DivergenceError, TrainConfig, TrainHistory, train

__all__ = [
    "PlanError",
    "DatasetRef",
    "ModelEntry",
    "BenchmarkPlan",
    "RunResult",
    "CellStats",
    "fit_model",
    "ReportTable",
    "rmse",
    "run_benchmark",
    "aggregate",
    "write_report",
]

logger = logging.getLogger(__name__)

class PlanError(ValueError):
    """Benchmark plan is misconfigured; raised before any run starts."""


def rmse(y, y_hat) -> float:
    """Root mean squared error over all entries.

    Multi-horizon predictions are flattened, so every (sample, step) pair
    counts once.
    """
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y.size == 0 or y.size != y_hat.size:
        raise ValueError(f"need equal nonzero lengths, got {y.size} and {y_hat.size}")
    diff = y - y_hat
    return float(np.sqrt(np.mean(diff * diff)))


@dataclass(frozen=True)
class DatasetRef:
    path: str
    column: str

    @property
    def name(self) -> str:
        return self.column.removesuffix("_MW")


@dataclass(frozen=True)
class ModelEntry:
    """One model column of the benchmark table."""

    kind: str
    units: int = 64
    depth: int = 3
    name: str = ""

    def __post_init__(self):
        if not self.name:
            kind = MODEL_KINDS.get(self.kind)
            name = self.kind if kind is None else kind.column.format(units=self.units, depth=self.depth)
            object.__setattr__(self, "name", name)


@dataclass
class BenchmarkPlan:
    datasets: list[DatasetRef]
    horizons: list[int]
    models: list[ModelEntry]
    runs: int = 5
    base_seed: int = 0
    split: str = "random"
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> None:
        """Raise PlanError listing every problem; called before any run."""
        problems: list[str] = []
        if not self.datasets:
            problems.append("no datasets")
        if not self.horizons:
            problems.append("no horizons")
        if not self.models:
            problems.append("no models")
        if self.runs < 1:
            problems.append(f"runs must be at least 1, got {self.runs}")
        if self.split not in ("random", "contiguous"):
            problems.append(f"unknown split mode {self.split!r}")
        for h in self.horizons:
            if int(h) < 1:
                problems.append(f"horizon must be positive, got {h}")
        for m in self.models:
            if m.kind not in MODEL_KINDS:
                problems.append(f"unknown model kind {m.kind!r}; expected one of {tuple(MODEL_KINDS)}")
            elif MODEL_KINDS[m.kind].sized and (m.units < 1 or m.depth < 1):
                problems.append(f"model {m.name!r} needs positive units and depth")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            problems.append(f"duplicate model names: {names}")
        if problems:
            raise PlanError("; ".join(problems))


@dataclass
class RunResult:
    model: str
    dataset: str
    horizon: int
    seed: int
    rmse: float = float("nan")
    epochs: int = 0
    train_seconds: float = 0.0
    param_count: int = 0
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def to_json_dict(self) -> dict:
        # wall time deliberately excluded: results.json must be byte-stable
        return {
            "model": self.model,
            "dataset": self.dataset,
            "horizon": self.horizon,
            "seed": self.seed,
            "rmse": None if self.failed else self.rmse,
            "epochs": self.epochs,
            "param_count": self.param_count,
            "error": self.error,
        }


def fit_model(entry: ModelEntry, prep: PreparedSplits, config: TrainConfig, seed: int):
    """Build ``entry``'s model at ``seed`` and fit it; returns (model, history).

    Network kinds train with ``config`` reseeded to ``seed``. A closed-form
    kind solves once on the training pool (train plus validation), since it
    has no use for a stopping set, and returns a history with no epochs whose
    best validation loss is the fitted model's.
    """
    kind = MODEL_KINDS[entry.kind]
    if kind.fit is not None:
        model = kind.fit(np.vstack([prep.train.inputs, prep.val.inputs]),
                         np.vstack([prep.train.targets, prep.val.targets]))
        return model, TrainHistory(best_val_loss=mse_loss(model.predict(prep.val.inputs), prep.val.targets)[0])
    model = kind.build(prep.lookback, prep.horizon, entry.units, entry.depth, seed=seed)
    return train(model, prep.train, prep.val, config.with_seed(seed))


def _run_cell(series: TimeSeries, entry: ModelEntry, horizon: int, seed: int,
              split: str, config: TrainConfig) -> RunResult:
    result = RunResult(model=entry.name, dataset=series.name, horizon=horizon, seed=seed)
    tic = time.perf_counter()
    try:
        prep = prepare_splits(series, horizon, mode=split, seed=seed)
        model, history = fit_model(entry, prep, config, seed)
        pred = model.predict(prep.test.inputs)
        result.rmse = rmse(prep.test.targets, pred)
        result.epochs = len(history)
        result.param_count = model.num_params()
    # data, conditioning and numeric failures are recorded per cell and the
    # matrix keeps going; anything else is a bug and propagates
    except (ValueError, ArithmeticError, DivergenceError) as exc:
        result.error = f"{type(exc).__name__}: {exc}"
        logger.warning("run failed (%s, %s, h=%d, seed=%d): %s",
                       entry.name, series.name, horizon, seed, result.error)
    result.train_seconds = time.perf_counter() - tic
    return result


def load_plan_series(plan: BenchmarkPlan) -> dict[str, TimeSeries]:
    """Load every dataset in the plan once; unreadable files are plan errors."""
    series: dict[str, TimeSeries] = {}
    problems = []
    for ref in plan.datasets:
        try:
            series[ref.name] = load_pjm_csv(ref.path, ref.column)
        except (OSError, DataFormatError) as exc:
            problems.append(f"dataset {ref.path!r}: {exc}")
    if problems:
        raise PlanError("; ".join(problems))
    return series


def run_benchmark(plan: BenchmarkPlan, jobs: int = 1) -> list[RunResult]:
    """Execute every (horizon, dataset, model, run) cell of the plan.

    Results come back in plan order (horizons outermost, then datasets,
    models, run index) regardless of ``jobs``; per-cell failures are recorded
    in the RunResult rather than raised.
    """
    plan.validate()
    series = load_plan_series(plan)
    cells = [
        (series[ref.name], model, int(horizon), plan.base_seed + run)
        for horizon in plan.horizons
        for ref in plan.datasets
        for model in plan.models
        for run in range(plan.runs)
    ]
    logger.info("benchmark: %d cells, %d worker(s)", len(cells), max(1, jobs))
    if jobs <= 1:
        return [_run_cell(s, m, h, seed, plan.split, plan.train) for s, m, h, seed in cells]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_run_cell, s, m, h, seed, plan.split, plan.train)
                   for s, m, h, seed in cells]
        return [f.result() for f in futures]


@dataclass
class CellStats:
    mean_rmse: float
    std_rmse: float
    mean_seconds: float
    param_count: int
    runs: int
    failures: int
    best: bool = False

    @property
    def std_x100(self) -> float:
        return self.std_rmse * 100.0

    @property
    def failed(self) -> bool:
        return self.runs == 0


@dataclass
class ReportTable:
    """Aggregated benchmark cells, shaped rows = (horizon, dataset), columns = models."""

    horizons: list[int]
    datasets: list[str]
    models: list[str]
    cells: dict[tuple[int, str, str], CellStats]

    def rows(self) -> list[tuple[int, str]]:
        return [(h, ds) for h in self.horizons for ds in self.datasets]


def _ordered_unique(values) -> list:
    out = []
    for v in values:
        if v not in out:
            out.append(v)
    return out


def aggregate(results: list[RunResult]) -> ReportTable:
    """Per-cell mean and sample (n-1) standard deviation of RMSE across runs.

    Failed runs are excluded from the statistics but counted; a cell with no
    successful run is kept with NaN stats so reports can mark it FAILED. The
    best (strictly smallest mean) cell per row is flagged; exact ties flag
    every tied cell.
    """
    if not results:
        raise ValueError("no results to aggregate")
    horizons = _ordered_unique(r.horizon for r in results)
    datasets = _ordered_unique(r.dataset for r in results)
    models = _ordered_unique(r.model for r in results)
    cells: dict[tuple[int, str, str], CellStats] = {}
    for h in horizons:
        for ds in datasets:
            for m in models:
                group = [r for r in results if (r.horizon, r.dataset, r.model) == (h, ds, m)]
                if not group:
                    continue
                good = [r for r in group if not r.failed]
                scores = np.array([r.rmse for r in good], dtype=np.float64)
                cells[(h, ds, m)] = CellStats(
                    mean_rmse=float(scores.mean()) if good else float("nan"),
                    std_rmse=float(scores.std(ddof=1)) if len(good) > 1 else 0.0,
                    mean_seconds=float(np.mean([r.train_seconds for r in good])) if good else float("nan"),
                    param_count=good[0].param_count if good else 0,
                    runs=len(good),
                    failures=len(group) - len(good),
                )
    table = ReportTable(horizons=horizons, datasets=datasets, models=models, cells=cells)
    for h, ds in table.rows():
        row = {m: cells[(h, ds, m)] for m in models if (h, ds, m) in cells}
        means = [s.mean_rmse for s in row.values() if not s.failed]
        if not means:
            continue
        low = min(means)
        for stats in row.values():
            stats.best = (not stats.failed) and stats.mean_rmse == low
    return table


def _csv_grid(table: ReportTable, value) -> list[list[str]]:
    rows = [["horizon", "dataset", *table.models]]
    for h, ds in table.rows():
        row = [str(h), ds]
        for m in table.models:
            stats = table.cells.get((h, ds, m))
            if stats is None:
                row.append("")
            elif stats.failed:
                row.append("FAILED")
            else:
                row.append(f"{value(stats):.3f}")
        rows.append(row)
    return rows


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    import csv

    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def _markdown_report(table: ReportTable) -> str:
    lines = [
        "# Benchmark report",
        "",
        "Test RMSE in standardized units, mean over runs; best model per row in bold.",
        "",
        "| horizon | dataset | " + " | ".join(table.models) + " |",
        "|" + "---|" * (2 + len(table.models)),
    ]
    for h, ds in table.rows():
        cells = []
        for m in table.models:
            stats = table.cells.get((h, ds, m))
            if stats is None:
                cells.append("")
            elif stats.failed:
                cells.append("FAILED")
            elif stats.best:
                cells.append(f"**{stats.mean_rmse:.3f}**")
            else:
                cells.append(f"{stats.mean_rmse:.3f}")
        lines.append(f"| {h} | {ds} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "Standard deviation of RMSE over runs, multiplied by 100:",
        "",
        "| horizon | dataset | " + " | ".join(table.models) + " |",
        "|" + "---|" * (2 + len(table.models)),
    ]
    for h, ds in table.rows():
        cells = []
        for m in table.models:
            stats = table.cells.get((h, ds, m))
            if stats is None or stats.failed:
                cells.append("" if stats is None else "FAILED")
            else:
                cells.append(f"{stats.std_x100:.3f}")
        lines.append(f"| {h} | {ds} | " + " | ".join(cells) + " |")
    lines.append("")
    return "\n".join(lines)


def write_report(table: ReportTable, results: list[RunResult], out_dir) -> list[Path]:
    """Write every report file; returns the written paths.

    results_rmse_mean.csv, results_rmse_std.csv, results_time.csv; results.json
    (full per-run results, no wall times); report.md with the best cell per
    row bolded.
    """
    if not table.cells:
        raise ValueError("cannot write an empty report table")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grids = {
        "results_rmse_mean.csv": lambda s: s.mean_rmse,
        "results_rmse_std.csv": lambda s: s.std_x100,
        "results_time.csv": lambda s: s.mean_seconds,
    }
    for name, value in grids.items():
        _write_csv(out / name, _csv_grid(table, value))
    with open(out / "results.json", "w") as handle:
        json.dump({"results": [r.to_json_dict() for r in results]}, handle, indent=2)
        handle.write("\n")
    (out / "report.md").write_text(_markdown_report(table))
    return [out / name for name in (*grids, "results.json", "report.md")]
