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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .numerics import is_integer, is_real

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
    """A single named series with strictly increasing timestamps."""

    name: str
    timestamps: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError(f"values must be a non-empty 1-D array, got shape {self.values.shape}")
        if self.timestamps.shape != self.values.shape:
            raise ValueError(
                f"{len(self.timestamps)} timestamps for {len(self.values)} values"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values contain NaN or infinity")
        if len(self.timestamps) > 1:
            diffs = np.diff(self.timestamps)
            if not np.all(diffs > diffs.dtype.type(0)):
                raise ValueError("timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.values)


def hourly_timestamps(n: int, start: str = "2015-01-01 00:00:00") -> np.ndarray:
    """``n`` hourly datetime64 stamps starting at ``start``, a stamp of the
    shape ``YYYY-MM-DD HH:MM:SS`` that names a calendar time."""
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
            value = getattr(self, name)
            if not is_real(value):
                raise TypeError(f"scaler {name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not np.isfinite(self.mean) or not np.isfinite(self.std) or self.std <= 0.0:
            raise ValueError(f"invalid scaler: mean={self.mean!r}, std={self.std!r}")


def fit_scaler(values) -> ScalerParams:
    """Population mean/std (divide by N) of the flattened values."""
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError(f"need at least 2 values to fit a scaler, got {v.size}")
    mean = float(v.mean())
    std = float(v.std())
    if std <= 1e-12:
        raise ZeroVarianceError(f"values have (numerically) zero variance: std={std:g}")
    return ScalerParams(mean=mean, std=std)


def lookback_for(horizon: int) -> int:
    """Window length used for a ``horizon``-step forecast: max(45, 5 * horizon)."""
    if not is_integer(horizon):
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    return max(45, 5 * int(horizon))


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
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, dtype=np.float64)
    for name, size in (("lookback", lookback), ("horizon", horizon)):
        if not is_integer(size) or size < 1:
            raise ValueError(f"{name} must be a positive integer, got {size!r}")
    n = len(values)
    rows = n - lookback - horizon + 1
    if rows < 1:
        raise ValueError(
            f"series of length {n} is too short for lookback {lookback} and horizon {horizon}; "
            f"need at least {lookback + horizon} points"
        )
    window = np.lib.stride_tricks.sliding_window_view(values, lookback + horizon)
    inputs = np.ascontiguousarray(window[:, :lookback], dtype=np.float64)
    targets = np.ascontiguousarray(window[:, lookback:], dtype=np.float64)
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
    """
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
    q = lookback_for(horizon) if lookback is None else lookback
    train, val, test = split_windows(make_windows(series, q, horizon), seed, mode)
    scaler = fit_scaler(np.concatenate([train.inputs.ravel(), val.inputs.ravel()]))
    for subset in (train, val, test):
        for array in (subset.inputs, subset.targets):
            array -= scaler.mean
            array /= scaler.std
    return PreparedSplits(train=train, val=val, test=test, scaler=scaler, lookback=q, horizon=horizon)
