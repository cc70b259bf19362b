"""Series ingestion, standardization, lookback windowing, and splits.

The CSV loader follows the common hourly-consumption layout: a ``Datetime``
column formatted ``YYYY-MM-DD HH:MM:SS`` plus one value column per region
(for example ``AEP_MW``). Real files are messy, so the loader sorts rows,
drops duplicate timestamps and empty value cells, and logs what it dropped.

The split is fixed: the training pool is ``TRAIN_FRAC`` (0.8) of the windows
and validation ``VAL_FRAC_OF_TRAIN`` (0.2) of the pool, as ``split_windows`` says.
"""

from __future__ import annotations

import csv
import logging
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import finite_real, integer_in

__all__ = [
    "DataFormatError",
    "ZeroVarianceError",
    "TimeSeries",
    "ScalerParams",
    "WindowedDataset",
    "PreparedSplits",
    "load_pjm_csv",
    "write_pjm_csv",
    "hourly_timestamps",
    "series_values",
    "overflow_refused",
    "fit_scaler",
    "lookback_for",
    "make_windows",
    "split_windows",
    "prepare_splits",
]

logger = logging.getLogger(__name__)

# the one stamp shape the loader and ``hourly_timestamps`` take; NumPy alone would also take looser ones
_STAMP_SHAPE = re.compile(r"(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2} [0-9]{2}:[0-9]{2}:[0-9]{2}")
# rows per block that the CSV reader parses and the writer formats at once
_BLOCK_ROWS = 256
# the fixed split: the training pool's share of the windows, and validation's share of the pool
TRAIN_FRAC = 0.8
VAL_FRAC_OF_TRAIN = 0.2


class DataFormatError(ValueError):
    """Input file does not match the expected layout."""


class ZeroVarianceError(ValueError):
    """Cannot standardize values with (numerically) zero variance."""


@dataclass
class TimeSeries:
    """A single named series with strictly increasing timestamps, a 1-D array of integers, floats or datetime64
    values, one per value; a NaN or NaT stamp is refused by its index."""

    name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values = series_values(self.values, "values")
        self.timestamps = np.asarray(self.timestamps)
        if self.timestamps.ndim != 1 or self.timestamps.dtype.kind not in "iufM":
            raise ValueError(f"timestamps must be a 1-D array of integers, floats or datetime64 values, "
                             f"got {self.timestamps.dtype} of shape {self.timestamps.shape}")
        if self.values.size == 0:
            raise ValueError("values must be non-empty")
        if self.timestamps.shape != self.values.shape:
            raise ValueError(
                f"{len(self.timestamps)} timestamps for {len(self.values)} values"
            )
        if self.timestamps.dtype.kind in "fM" and np.isnan(self.timestamps).any():  # unordered, so named apart
            first = int(np.flatnonzero(np.isnan(self.timestamps))[0])
            raise ValueError(f"timestamps must hold no NaN or NaT, got {self.timestamps[first]} at index {first}")
        # compared pairwise, not by np.diff, whose unsigned differences wrap round
        if not np.all(self.timestamps[1:] > self.timestamps[:-1]):
            raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


def series_values(series, name: str = "series") -> np.ndarray:
    """A TimeSeries's values, or a 1-D sequence of integers or floats as float64 (a float64 array as itself, not
    a copy); any other shape or dtype, or a NaN or infinity, raises a ValueError naming ``name`` (and the index)."""
    if isinstance(series, TimeSeries):
        return series.values
    values = np.asarray(series)
    if values.ndim != 1 or values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a 1-D array of integers or floats, got {values.dtype} of shape {values.shape}")
    values = values.astype(np.float64, copy=False)
    # min and max carry a NaN or an infinity through, with no n-element temporary
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        first = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"{name} must hold no NaN or infinity, got {values[first].item()!r} at index {first}")
    return values


@contextmanager
def overflow_refused(values: np.ndarray, name: str):
    """Run the block with float overflow raised, as a ValueError naming ``name`` and the largest magnitude in
    ``values``, so a series whose squares leave float range is refused, not warned about; a product meant to
    saturate keeps its own ``np.errstate(over="ignore")``."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError:
        magnitude = float(max(values.max(), -values.min()))
        raise ValueError(f"{name} must be small enough to square in float64, "
                         f"got largest magnitude {magnitude!r}") from None


def hourly_timestamps(n: int, start: str = "2015-01-01 00:00:00") -> np.ndarray:
    """``n`` hourly datetime64 stamps starting at ``start``, a stamp of the
    shape ``YYYY-MM-DD HH:MM:SS`` that names a calendar time; ``n`` is a
    non-negative integer."""
    n = integer_in(n, "n", 0)
    if not _STAMP_SHAPE.fullmatch(start):
        raise ValueError(f"start must have the shape YYYY-MM-DD HH:MM:SS, got {start!r}")
    return np.datetime64(start, "s") + np.arange(n) * np.timedelta64(3600, "s")


def _column_at(fields: list[str], name: str) -> int:
    """Index of the last ``name`` column, the one ``csv.DictReader`` keeps."""
    return len(fields) - 1 - fields[::-1].index(name)


def _check_row(path: Path, lineno: int, raw_stamp: str, raw_value: str) -> None:
    """Raise DataFormatError if the row is bad, checking its stamp's shape,
    then its calendar time, then that its value parses, then that it is finite."""
    try:
        if not _STAMP_SHAPE.fullmatch(raw_stamp):
            raise ValueError
        np.datetime64(raw_stamp, "s")
    except ValueError:
        raise DataFormatError(f"{path.name} line {lineno}: unparseable timestamp {raw_stamp!r}") from None
    try:
        value = float(raw_value)
    except ValueError:
        raise DataFormatError(f"{path.name} line {lineno}: unparseable value {raw_value!r}") from None
    if not math.isfinite(value):
        raise DataFormatError(f"{path.name} line {lineno}: non-finite value {value!r}")


def _read_rows(path: Path, column_name: str) -> tuple[np.ndarray, np.ndarray, int]:
    """Stamps and values of the rows that have a value, in file order, and
    the count of rows whose value cell is blank.

    Rows are gathered and converted a block at a time, so no list of every
    row's text is held. A blank row is skipped, as ``csv.DictReader`` skips
    it. A block is converted at once; only if that fails are its rows walked
    by ``_check_row``, so the first bad row in file order raises
    DataFormatError naming the file line its record starts on, blank lines
    and lines inside quoted cells counted. A record with a cell past
    ``csv.field_size_limit()`` raises DataFormatError naming its line, after
    the rows read before it are checked.
    """
    rows: list[tuple[int, str, str]] = []  # (file line, stamp text, value text)
    stamp_blocks: list[np.ndarray] = []
    value_blocks: list[np.ndarray] = []

    def flush():
        _, stamps, values = zip(*rows) if rows else ((), (), ())
        try:
            if not all(map(_STAMP_SHAPE.fullmatch, stamps)):
                raise ValueError("a stamp of another shape")
            stamp_blocks.append(np.array(stamps, dtype="datetime64[s]"))
            value_blocks.append(np.fromiter(map(float, values), np.float64, len(values)))
            if not np.isfinite(value_blocks[-1]).all():
                raise ValueError("a non-finite value")
        except ValueError:
            for row in rows:
                _check_row(path, *row)
            raise
        rows.clear()

    missing, next_line = 0, 1
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            fields = next(reader, [])
            if "Datetime" not in fields or column_name not in fields:
                raise DataFormatError(
                    f"{path.name}: need columns 'Datetime' and {column_name!r}, file has {fields}"
                )
            stamp_at, value_at = _column_at(fields, "Datetime"), _column_at(fields, column_name)
            next_line = reader.line_num + 1
            for row in reader:
                # the file line the record starts on; a quoted cell may span lines
                lineno, next_line = next_line, reader.line_num + 1
                if not row:
                    continue
                raw_value = row[value_at] if value_at < len(row) else ""
                if raw_value.strip() == "":
                    missing += 1
                    continue
                rows.append((lineno, row[stamp_at] if stamp_at < len(row) else "", raw_value))
                if len(rows) == _BLOCK_ROWS:
                    flush()
        except csv.Error as exc:  # e.g. a cell longer than csv.field_size_limit()
            flush()  # a bad row read before this record is named first
            raise DataFormatError(f"{path.name} line {next_line}: {exc}") from None
    flush()
    return np.concatenate(stamp_blocks), np.concatenate(value_blocks), missing


def load_pjm_csv(path, column_name: str) -> TimeSeries:
    """Load one region's series from an hourly-consumption CSV.

    The header must contain ``Datetime`` and ``column_name``. Every stamp
    must have exactly the shape ``YYYY-MM-DD HH:MM:SS`` (zero-padded, one
    space, no zone, year 0001 or later) and name a real calendar time;
    looser forms that NumPy's parser would take, such as a date alone, a
    ``T`` separator or missing seconds, are rejected. Rows are sorted by
    timestamp; among duplicate timestamps the first row in file order is
    kept; rows with an empty value cell are dropped. Drops are logged as
    warnings.

    The first bad row in file order raises DataFormatError naming the line
    its record starts on. A row is checked for its stamp's shape, then its
    calendar time, then that its value parses, then that it is finite
    (``nan``, ``inf`` and ``1e400`` parse, but are refused). A cell too long
    for the csv module stops the read at its record, so it is named only if
    no earlier row is bad.
    """
    path = Path(path)
    stamp_arr, value_arr, missing = _read_rows(path, column_name)
    if not value_arr.size:
        raise DataFormatError(f"{path.name}: no usable rows for column {column_name!r}")
    stamp_arr, first = np.unique(stamp_arr, return_index=True)  # sorted; each stamp's first row in file order
    duplicates = len(value_arr) - len(first)
    if missing:
        logger.warning("%s: dropped %d row(s) with missing %s values", path.name, missing, column_name)
    if duplicates:
        logger.warning("%s: dropped %d duplicate timestamp row(s)", path.name, duplicates)
    name = column_name.removesuffix("_MW")
    return TimeSeries(name=name, timestamps=stamp_arr, values=value_arr[first])


def write_pjm_csv(series: TimeSeries, path) -> Path:
    """Write ``series`` in the same layout ``load_pjm_csv`` reads.

    Stamps are written ``YYYY-MM-DD HH:MM:SS``, formatted by NumPy a block of
    rows at a time, and values with ``repr`` so a load round-trips bit-exactly.

    The header goes through ``csv.writer``, so a column name that needs
    quoting is quoted. Each block of data rows is built as one string,
    ``stamp,repr(value)`` and ``\\r\\n`` per row, and written with one call;
    one replacement over the block turns the ``T`` of NumPy's ISO stamps into
    a space, and touches the stamps alone, since a float repr holds no ``T``.
    The bytes are those ``csv.writer`` would write: a stamp or the repr of a
    finite float holds no comma, quote or line break, so no field is quoted.
    """
    path = Path(path)
    stamps = series.timestamps.astype("datetime64[s]")
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow(["Datetime", f"{series.name}_MW"])
        for start in range(0, len(stamps), _BLOCK_ROWS):
            texts = np.datetime_as_string(stamps[start: start + _BLOCK_ROWS], unit="s").tolist()
            values = series.values[start: start + _BLOCK_ROWS].tolist()
            handle.write("".join([f"{text},{value!r}\r\n" for text, value in zip(texts, values)]).replace("T", " "))
    return path


@dataclass(frozen=True)
class ScalerParams:
    """Mean and standard deviation of the training pool, population convention."""

    mean: float
    std: float

    def __post_init__(self):
        # stored as Python floats, so summary.json and a checkpoint read plain numbers
        for name in ("mean", "std"):
            object.__setattr__(self, name, finite_real(getattr(self, name), f"scaler {name}"))
        if self.std <= 0.0:
            raise ValueError(f"invalid scaler: mean={self.mean!r}, std={self.std!r}")


def fit_scaler(values) -> ScalerParams:
    """Population mean/std (divide by N) of a 1-D series of values; values whose squares overflow are refused."""
    v = series_values(values, "values")
    if v.size < 2:
        raise ValueError(f"need at least 2 values to fit a scaler, got {v.size}")
    with overflow_refused(v, "values"):
        std = v.std()
    if std <= 1e-12:
        raise ZeroVarianceError(f"values have (numerically) zero variance: std={std:g}")
    return ScalerParams(mean=v.mean(), std=std)


def lookback_for(horizon: int) -> int:
    """Window length used for a ``horizon``-step forecast: max(45, 5 * horizon); ``horizon`` is a positive integer."""
    return max(45, 5 * integer_in(horizon, "horizon", 1))


@dataclass
class WindowedDataset:
    """Supervised (window, horizon) pairs cut from one series.

    ``anchors[i]`` is the source index of row i's first target value, so row i
    was cut from ``values[anchors[i] - lookback : anchors[i] + horizon]``.
    """

    inputs: np.ndarray   # (n, lookback)
    targets: np.ndarray  # (n, horizon)
    anchors: np.ndarray  # (n,) int

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    def subset(self, idx) -> "WindowedDataset":
        idx = np.asarray(idx)
        return WindowedDataset(inputs=self.inputs[idx], targets=self.targets[idx], anchors=self.anchors[idx])


def make_windows(series, lookback: int, horizon: int) -> WindowedDataset:
    """Every valid (lookback window, horizon target) pair of raw values, in
    source order.

    A series of length n yields ``n - lookback - horizon + 1`` rows.
    ``prepare_splits`` standardizes after splitting so held-out windows never
    touch their own statistics.
    """
    values = series_values(series)
    lookback, horizon = integer_in(lookback, "lookback", 1), integer_in(horizon, "horizon", 1)
    n = len(values)
    rows = n - lookback - horizon + 1
    if rows < 1:
        raise ValueError(
            f"series of length {n} is too short for lookback {lookback} and horizon {horizon}; "
            f"need at least {lookback + horizon} points"
        )
    window = np.lib.stride_tricks.sliding_window_view(values, lookback + horizon)
    inputs = np.ascontiguousarray(window[:, :lookback])
    targets = np.ascontiguousarray(window[:, lookback:])
    anchors = np.arange(lookback, lookback + rows)
    return WindowedDataset(inputs=inputs, targets=targets, anchors=anchors)


def _partition_sizes(n: int) -> tuple[int, int]:
    pool = int(n * TRAIN_FRAC)
    n_val = int(pool * VAL_FRAC_OF_TRAIN)
    n_train = pool - n_val
    n_test = n - pool
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(f"split of {n} windows leaves an empty subset: {n_train}/{n_val}/{n_test}")
    return pool, n_val


def split_windows(dataset: WindowedDataset, seed: int = 0, mode: str = "random"):
    """Split into (train, val, test) along one order of the windows.

    The order is a permutation drawn from ``seed`` (``mode="random"``) or the
    windows sorted by anchor (``mode="contiguous"``, so the earliest windows
    train, then validation, then test). The first ``TRAIN_FRAC`` (0.8) of
    the order form the training pool and the rest the test set, then the
    last ``VAL_FRAC_OF_TRAIN`` (0.2) of the pool becomes validation.
    ``seed`` must be a non-negative integer, even where the order ignores it.
    """
    seed = integer_in(seed, "seed", 0)
    if mode == "random":
        order = np.random.default_rng(seed).permutation(len(dataset))
    elif mode == "contiguous":
        order = np.argsort(dataset.anchors, kind="stable")
    else:
        raise ValueError(f"unknown split mode {mode!r}; expected 'random' or 'contiguous'")
    pool, n_val = _partition_sizes(len(dataset))
    return tuple(dataset.subset(idx) for idx in np.split(order, [pool - n_val, pool]))


@dataclass
class PreparedSplits:
    """Standardized train/val/test windows plus the scaler that produced them."""

    train: WindowedDataset
    val: WindowedDataset
    test: WindowedDataset
    scaler: ScalerParams
    lookback: int
    horizon: int


def prepare_splits(series, horizon: int, lookback: int | None = None, mode: str = "random",
                   seed: int = 0) -> PreparedSplits:
    """Window, split (the fixed split of ``split_windows``), and standardize one series for one horizon.

    The scaler is fit on the raw input windows of the training pool (train
    plus validation) only, then applied to inputs and targets of all three
    subsets. Test windows therefore never contribute to the statistics that
    transform them.
    """
    horizon = integer_in(horizon, "horizon", 1)  # stored as the Python ints the gate returns
    q = lookback_for(horizon) if lookback is None else integer_in(lookback, "lookback", 1)
    train, val, test = split_windows(make_windows(series, q, horizon), seed, mode)
    scaler = fit_scaler(np.concatenate([train.inputs.ravel(), val.inputs.ravel()]))
    for subset in (train, val, test):
        for array in (subset.inputs, subset.targets):
            array -= scaler.mean
            array /= scaler.std
    return PreparedSplits(train=train, val=val, test=test, scaler=scaler, lookback=q, horizon=horizon)
