"""Benchmark matrix: models x horizons x datasets x seeded runs, plus reports.

A plan fully specifies every cell up front. Each run derives its seed as
``base_seed + run_index`` and uses it for the split, the weight init, and
the batch shuffling, so results are reproducible and independent of the
order in which cells execute. Each run's split is prepared once, and every
model is fitted on it one after another: a thread pool was slower, since the
many small numpy calls of a short fit hold the GIL. A data or numeric error
is recorded as a failed cell, for every model when the split fails, instead
of aborting the matrix; a ``ShapeError`` and any other exception propagate.

Report files, from the cells ``aggregate`` builds in one pass over the runs:
``results_rmse_mean.csv``, ``results_rmse_std.csv``, ``results_time.csv``,
``results.json`` (every ``RunResult`` field but the wall time, which only
the time report holds, so it is byte-identical across reruns), ``report.md``
(its tables escape a ``|`` in a name as ``\\|``).
"""

from __future__ import annotations

import json
import logging
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .baselines import MODEL_KINDS, unknown_kind
from .data import SPLIT_MODES, DataFormatError, PreparedSplits, TimeSeries, load_pjm_csv, lookback_for, prepare_splits
from .numerics import ShapeError, integer_in, mse_loss
from .training import TrainConfig, TrainHistory, train

__all__ = [
    "PlanError",
    "DatasetRef",
    "ModelEntry",
    "BenchmarkPlan",
    "RunResult",
    "CellStats",
    "fit_model",
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
        if self.name == "":
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
        """Raise PlanError listing every problem; called before any run or
        file read. ``runs``, ``base_seed`` and each horizon go through
        ``numerics.integer_in`` (at least 1, 0 and 1), and a dataset's
        ``path`` and ``column`` and a model's ``name`` must be text, checked
        before the checks that read them as text. A column or a name, which
        report.md prints in a table row, cannot hold a line break."""
        problems, horizons = [], []  # every problem found; the valid horizons
        for what, value, least in (("runs", self.runs, 1), ("base_seed", self.base_seed, 0),
                                   *(("horizon", h, 1) for h in self.horizons)):
            try:
                number = integer_in(value, what, least)
            except ValueError as exc:
                problems.append(str(exc))
            else:
                if what == "horizon":
                    horizons.append(number)
        text_problems = [f"dataset {key} must be text, got {getattr(ref, key)!r}" for ref in self.datasets
                         for key in ("path", "column") if not isinstance(getattr(ref, key), str)]
        text_problems += [f"model name must be text, got {m.name!r}"
                          for m in self.models if not isinstance(m.name, str)]
        if text_problems:
            raise PlanError("; ".join(problems + text_problems))
        problems += [f"{what} cannot hold a line break, got {text!r}"
                     for what, text in (*(("dataset column", ref.column) for ref in self.datasets),
                                        *(("model name", m.name) for m in self.models))
                     if "\n" in text or "\r" in text]
        if not self.datasets:
            problems.append("no datasets")
        if not self.horizons:
            problems.append("no horizons")
        if not self.models:
            problems.append("no models")
        if self.split not in SPLIT_MODES:
            problems.append(f"unknown split mode {self.split!r}")
        for what, values in (("dataset names", [ref.name for ref in self.datasets]), ("horizons", horizons),
                             ("model names", [m.name for m in self.models])):
            if len(set(values)) != len(values):
                problems.append(f"duplicate {what}: {values}")
        for m in self.models:
            if m.kind not in MODEL_KINDS:
                problems.append(unknown_kind(m.kind))
            elif horizons:
                # the largest horizon and its lookback make the largest network
                h = max(horizons)
                try:
                    MODEL_KINDS[m.kind].check_size(lookback_for(h), h, m.units, m.depth)
                except ValueError as exc:
                    problems.append(f"model {m.name!r}: {exc}")
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
        # every field but the wall time, which would keep results.json from being byte-stable
        doc = asdict(self)
        del doc["train_seconds"]
        return {**doc, "rmse": None if self.failed else self.rmse}


def fit_model(entry: ModelEntry, prep: PreparedSplits, config: TrainConfig, seed: int):
    """Build ``entry``'s model at ``seed``, fit it and score it on the test
    windows; returns (model, history, test RMSE). No fit writes into ``prep``.

    Network kinds train with ``config`` reseeded to ``seed``. A closed-form
    kind solves once on the training pool (train plus validation), since it
    has no use for a stopping set, and returns a history with no epochs whose
    best validation loss is the fitted model's.
    """
    kind = MODEL_KINDS[entry.kind]
    if kind.fit is not None:
        model = kind.fit(np.vstack([prep.train.inputs, prep.val.inputs]),
                         np.vstack([prep.train.targets, prep.val.targets]))
        history = TrainHistory(best_val_loss=mse_loss(model.predict(prep.val.inputs), prep.val.targets)[0])
    else:
        model = kind.build(prep.lookback, prep.horizon, entry.units, entry.depth, seed=seed)
        model, history = train(model, prep.train, prep.val, config.with_seed(seed))
    return model, history, rmse(prep.test.targets, model.predict(prep.test.inputs))


@contextmanager
def _failures_recorded(results: list[RunResult]):
    """Record a failure of the block on each of ``results``."""
    try:
        yield
    # data, conditioning and numeric failures are recorded and the matrix
    # keeps going; anything else is a bug and propagates, as is a
    # ShapeError, since the model is built from the windows' own shapes
    except ShapeError:
        raise
    except (ValueError, ArithmeticError) as exc:
        for result in results:
            result.error = f"{type(exc).__name__}: {exc}"
            logger.warning("run failed (%s, %s, h=%d, seed=%d): %s",
                           result.model, result.dataset, result.horizon, result.seed, result.error)


def _run_split(plan: BenchmarkPlan, series: TimeSeries, horizon: int, seed: int) -> list[RunResult]:
    """One run of each model of ``plan``, in its order, on the one split of
    ``series`` at ``seed``; the first model's time counts the split's."""
    results = [RunResult(model=entry.name, dataset=series.name, horizon=horizon, seed=seed) for entry in plan.models]
    tic = time.perf_counter()
    with _failures_recorded(results):
        prep = prepare_splits(series, horizon, mode=plan.split, seed=seed)
        for entry, result in zip(plan.models, results):
            with _failures_recorded([result]):
                model, history, result.rmse = fit_model(entry, prep, plan.train, seed)
                result.epochs, result.param_count = len(history), model.num_params()
            toc = time.perf_counter()
            result.train_seconds, tic = toc - tic, toc
    return results


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


def run_benchmark(plan: BenchmarkPlan) -> list[RunResult]:
    """Execute every (horizon, dataset, model, run) cell of the plan, one
    after another, each (horizon, dataset, run) split prepared once.

    Results come back in plan order (horizons outermost, then datasets,
    models, run index); per-cell failures are recorded in the RunResult
    rather than raised.
    """
    plan.validate()
    series = load_plan_series(plan)
    logger.info("benchmark: %d cells", len(plan.horizons) * len(plan.datasets) * len(plan.models) * plan.runs)
    # a split gives one run of every model; zip puts each model's runs together, in plan order
    return [result for horizon in plan.horizons for ref in plan.datasets
            for by_model in zip(*[_run_split(plan, series[ref.name], int(horizon), int(plan.base_seed) + run)
                                  for run in range(plan.runs)])
            for result in by_model]


@dataclass
class CellStats:
    mean_rmse: float
    std_rmse: float
    mean_seconds: float
    runs: int
    failures: int

    @property
    def std_x100(self) -> float:
        return self.std_rmse * 100.0

    @property
    def failed(self) -> bool:
        return self.runs == 0


Cells = dict[tuple[int, str, str], CellStats]  # keyed (horizon, dataset, model)


def aggregate(results: list[RunResult]) -> Cells:
    """Per-cell mean and sample (n-1) standard deviation of RMSE across runs,
    keyed ``(horizon, dataset, model)``.

    One pass groups the runs by cell, in the order each cell is first seen:
    plan order for ``run_benchmark``'s results. Failed runs are excluded from
    the statistics but counted; a cell with no successful run is kept with
    NaN stats so reports can mark it FAILED.
    """
    if not results:
        raise ValueError("no results to aggregate")
    groups: dict[tuple[int, str, str], list[RunResult]] = {}
    for r in results:
        groups.setdefault((r.horizon, r.dataset, r.model), []).append(r)
    cells: Cells = {}
    for key, group in groups.items():
        good = [r for r in group if not r.failed]
        scores = np.array([r.rmse for r in good], dtype=np.float64)
        cells[key] = CellStats(
            mean_rmse=float(scores.mean()) if good else float("nan"),
            std_rmse=float(scores.std(ddof=1)) if len(good) > 1 else 0.0,
            mean_seconds=float(np.mean([r.train_seconds for r in good])) if good else float("nan"),
            runs=len(good),
            failures=len(group) - len(good),
        )
    return cells


def _cell_text(stats: CellStats | None, value, best: float | None = None) -> str:
    """One report cell: blank when the cell was not run, FAILED when no run
    succeeded, else ``value(stats)`` to three decimals, bold when the cell's
    mean is ``best``."""
    if stats is None:
        return ""
    if stats.failed:
        return "FAILED"
    text = f"{value(stats):.3f}"
    return f"**{text}**" if stats.mean_rmse == best else text


def _grid(cells: Cells, value, bold_best: bool = False) -> list[list[str]]:
    """Header row, then one row per (horizon, dataset) with a cell per model,
    each axis in the order the keys first name it. With ``bold_best`` a row's
    best cell, the one with the smallest mean, is bold; exact ties bold every
    tied cell."""
    horizons, datasets, models = (list(dict.fromkeys(axis)) for axis in zip(*cells))
    grid = [["horizon", "dataset", *models]]
    for h in horizons:
        for ds in datasets:
            row = [cells.get((h, ds, m)) for m in models]
            low = min((s.mean_rmse for s in row if s is not None and not s.failed), default=None)
            grid.append([str(h), ds, *(_cell_text(s, value, low if bold_best else None) for s in row)])
    return grid


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)


def _markdown_table(cells: Cells, value, bold_best: bool = False) -> list[str]:
    # a "|" in a name would end its cell early, so it is escaped
    header, *rows = ([text.replace("|", "\\|") for text in row] for row in _grid(cells, value, bold_best))
    return ["| " + " | ".join(header) + " |", "|" + "---|" * len(header),
            *("| " + " | ".join(row) + " |" for row in rows)]


def _markdown_report(cells: Cells) -> str:
    return "\n".join([
        "# Benchmark report",
        "",
        "Test RMSE in standardized units, mean over runs; best model per row in bold.",
        "",
        *_markdown_table(cells, lambda s: s.mean_rmse, bold_best=True),
        "",
        "Standard deviation of RMSE over runs, multiplied by 100:",
        "",
        *_markdown_table(cells, lambda s: s.std_x100),
        "",
    ])


def write_report(cells: Cells, results: list[RunResult], out_dir) -> list[Path]:
    """Write every report file; returns the written paths.

    results_rmse_mean.csv, results_rmse_std.csv, results_time.csv; results.json
    (full per-run results, no wall times); report.md with the best cell per
    row bolded.
    """
    if not cells:
        raise ValueError("cannot write an empty report table")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grids = {
        "results_rmse_mean.csv": lambda s: s.mean_rmse,
        "results_rmse_std.csv": lambda s: s.std_x100,
        "results_time.csv": lambda s: s.mean_seconds,
    }
    for name, value in grids.items():
        _write_csv(out / name, _grid(cells, value))
    with open(out / "results.json", "w", encoding="utf-8") as handle:
        json.dump({"results": [r.to_json_dict() for r in results]}, handle, indent=2)
        handle.write("\n")
    (out / "report.md").write_text(_markdown_report(cells), encoding="utf-8")
    return [out / name for name in (*grids, "results.json", "report.md")]
