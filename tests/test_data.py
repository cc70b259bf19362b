import csv
import logging
import re
import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import UNDECODABLE_JSON, sine_series, with_undecodable_byte
from stanforge.data import (
    DataFormatError,
    ScalerParams,
    TimeSeries,
    ZeroVarianceError,
    fit_scaler,
    hourly_timestamps,
    load_pjm_csv,
    lookback_for,
    make_windows,
    prepare_splits,
    read_json,
    series_values,
    split_windows,
    write_pjm_csv,
)
from stanforge.star_classic import LstarParams, default_c_grid, estimate_lstar

WELL_FORMED = """Datetime,AEP_MW
2015-01-01 00:00:00,100.0
2015-01-01 01:00:00,101.5
2015-01-01 02:00:00,99.25
"""


# ---------------------------------------------------------------- loading ---

def test_load_well_formed(tmp_path):
    path = tmp_path / "aep.csv"
    path.write_text(WELL_FORMED, encoding="utf-8")
    series = load_pjm_csv(path, "AEP_MW")
    assert series.name == "AEP"
    assert len(series) == 3
    assert np.array_equal(series.values, [100.0, 101.5, 99.25])
    assert np.all(np.diff(series.timestamps) > np.timedelta64(0, "s"))


def test_load_drops_duplicate_timestamp_keeps_first(tmp_path, caplog):
    path = tmp_path / "dup.csv"
    path.write_text(
        "Datetime,AEP_MW\n"
        "2015-01-01 00:00:00,1.0\n"
        "2015-01-01 01:00:00,2.0\n"
        "2015-01-01 01:00:00,999.0\n"
        "2015-01-01 02:00:00,3.0\n"
    , encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        series = load_pjm_csv(path, "AEP_MW")
    assert len(series) == 3
    assert series.values[1] == 2.0
    assert "1 duplicate" in caplog.text


def test_load_shuffled_rows_match_sorted_fixture(tmp_path):
    sorted_path = tmp_path / "sorted.csv"
    sorted_path.write_text(WELL_FORMED, encoding="utf-8")
    lines = WELL_FORMED.strip().split("\n")
    shuffled_path = tmp_path / "shuffled.csv"
    shuffled_path.write_text("\n".join([lines[0], lines[3], lines[1], lines[2]]) + "\n", encoding="utf-8")
    a = load_pjm_csv(sorted_path, "AEP_MW")
    b = load_pjm_csv(shuffled_path, "AEP_MW")
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.timestamps, b.timestamps)


def test_load_drops_missing_values(tmp_path, caplog):
    path = tmp_path / "gap.csv"
    path.write_text(
        "Datetime,AEP_MW\n"
        "2015-01-01 00:00:00,1.0\n"
        "2015-01-01 01:00:00,\n"
        "2015-01-01 02:00:00,3.0\n"
    , encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        series = load_pjm_csv(path, "AEP_MW")
    assert len(series) == 2
    assert "missing" in caplog.text


def test_load_missing_column_lists_available(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text(WELL_FORMED, encoding="utf-8")
    with pytest.raises(DataFormatError, match="AEP_MW"):
        load_pjm_csv(path, "DEOK_MW")


def test_load_bad_timestamp_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "Datetime,AEP_MW\n"
        "2015-01-01 00:00:00,1.0\n"
        "not-a-date,2.0\n"
    , encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 3"):
        load_pjm_csv(path, "AEP_MW")


def test_load_bad_value_names_line(tmp_path):
    path = tmp_path / "badval.csv"
    path.write_text(
        "Datetime,AEP_MW\n"
        "2015-01-01 00:00:00,oops\n"
    , encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 2"):
        load_pjm_csv(path, "AEP_MW")


def test_write_then_load_round_trips_bit_exactly(tmp_path):
    rng = np.random.default_rng(0)
    series = TimeSeries(
        name="WEST",
        timestamps=hourly_timestamps(50),
        values=1000.0 + 250.0 * rng.standard_normal(50),
    )
    path = write_pjm_csv(series, tmp_path / "west.csv")
    back = load_pjm_csv(path, "WEST_MW")
    assert back.name == "WEST"
    assert np.array_equal(back.values, series.values)
    assert np.array_equal(back.timestamps, series.timestamps.astype("datetime64[s]"))


# ------------------------------------------------- stamp shape and parsing ---

REFERENCE_FORMAT = "%Y-%m-%d %H:%M:%S"


def _reference_load(path, column_name):
    """The row-by-row ``strptime`` loader this package used to ship, kept as
    the referee: (stamps, values, warning counts), or DataFormatError."""
    stamps, values, missing = [], [], 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        if "Datetime" not in fields or column_name not in fields:
            raise DataFormatError("columns")
        for lineno, row in enumerate(reader, start=2):
            raw_value = row.get(column_name)
            if raw_value is None or raw_value.strip() == "":
                missing += 1
                continue
            try:
                stamp = datetime.strptime(row.get("Datetime") or "", REFERENCE_FORMAT)
            except ValueError:
                raise DataFormatError(f"line {lineno}") from None
            stamps.append(stamp)
            values.append(float(raw_value))
    if not stamps:
        raise DataFormatError("no usable rows")
    stamp_arr = np.array(stamps, dtype="datetime64[s]")
    value_arr = np.array(values, dtype=np.float64)
    order = np.argsort(stamp_arr, kind="stable")
    stamp_arr, value_arr = stamp_arr[order], value_arr[order]
    keep = np.ones(len(stamp_arr), dtype=bool)
    keep[1:] = stamp_arr[1:] != stamp_arr[:-1]
    counts = {"missing": missing, "duplicate": int((~keep).sum())}
    return stamp_arr[keep], value_arr[keep], {k: v for k, v in counts.items() if v}


def _reference_write(series, path):
    """The row-by-row ``strftime`` writer this package used to ship."""
    stamps = series.timestamps.astype("datetime64[s]")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Datetime", f"{series.name}_MW"])
        for stamp, value in zip(stamps, series.values):
            writer.writerow([stamp.item().strftime(REFERENCE_FORMAT), repr(float(value))])


class _WarningCounts(logging.Handler):
    """Collects the drop counts ``load_pjm_csv`` logs."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts = {}

    def emit(self, record):
        self.counts["missing" if "missing" in record.msg else "duplicate"] = record.args[1]


@pytest.mark.parametrize("stamp", [
    "2015-01-01",            # date alone
    "2015-01-01T00:00:00",   # ISO separator
    "2015-01-01 00:00",      # no seconds
    "2015-1-1 00:00:00",     # not zero-padded
    " 2015-01-01 00:00:00",  # leading space
    "2015-02-30 00:00:00",   # no such day
    "2015-01-01 24:00:00",
    "0000-01-01 00:00:00",   # year 0
])
def test_load_rejects_any_other_stamp_shape_naming_its_line(tmp_path, stamp):
    path = tmp_path / "stamp.csv"
    path.write_text(f"Datetime,AEP_MW\n2015-01-01 00:00:00,1.0\n{stamp},2.0\n2015-01-01 02:00:00,3.0\n",
                    encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"line 3: unparseable timestamp {stamp!r}"):
        load_pjm_csv(path, "AEP_MW")


@pytest.mark.parametrize("rows,message", [
    (["2015-02-30 00:00:00,1.0", "2015-01-01 01:00:00,oops"], "line 2: unparseable timestamp"),
    (["2015-01-01 00:00:00,oops", "2015-02-30 01:00:00,1.0"], "line 2: unparseable value"),
])
def test_load_reports_the_first_bad_line(tmp_path, rows, message):
    path = tmp_path / "bad.csv"
    path.write_text("Datetime,AEP_MW\n" + "\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=message):
        load_pjm_csv(path, "AEP_MW")


_PAST_FIELD_LIMIT = "1" * (csv.field_size_limit() + 1)


@pytest.mark.parametrize("text,message", [
    # a bad value on file line 4, after one blank line
    ("Datetime,AEP_MW\n2015-01-01 00:00:00,1.0\n\n2015-01-01 02:00:00,oops\n",
     "line 4: unparseable value 'oops'"),
    # a bad date on file line 8, after two blank lines
    ("Datetime,AEP_MW\n2015-01-01 00:00:00,1.0\n\n2015-01-01 02:00:00,2.0\n\n"
     "2015-01-01 03:00:00,2.0\n2015-01-01 04:00:00,2.0\n2015-02-30 05:00:00,2.0\n",
     "line 8: unparseable timestamp '2015-02-30 05:00:00'"),
    # a quoted cell over lines 2-3 puts the bad value on line 4
    ('Datetime,AEP_MW,note\n2015-01-01 00:00:00,1.0,"two\nlines"\n2015-01-01 01:00:00,oops,\n',
     "line 4: unparseable value 'oops'"),
    # a quoted bad value over lines 3-4 is named by the line it starts on
    ('Datetime,AEP_MW\n2015-01-01 00:00:00,1.0\n2015-01-01 01:00:00,"1.0\n2.0"\n',
     "line 3: unparseable value '1.0\\n2.0'"),
    # a cell past the csv module's field limit, in a record and in the header
    (f"Datetime,AEP_MW\n2015-01-01 00:00:00,1.0\n2015-01-01 01:00:00,{_PAST_FIELD_LIMIT}\n",
     f"line 3: field larger than field limit ({csv.field_size_limit()})"),
    (f"Datetime,{_PAST_FIELD_LIMIT}\n", f"line 1: field larger than field limit ({csv.field_size_limit()})"),
    # a bad date on line 3 comes before a cell past the field limit on line 5, in the same block of rows
    ("Datetime,AEP_MW\n2015-01-01 00:00:00,1.0\n2015-02-30 01:00:00,2.0\n2015-01-01 02:00:00,3.0\n"
     f"2015-01-01 03:00:00,{_PAST_FIELD_LIMIT}\n", "line 3: unparseable timestamp '2015-02-30 01:00:00'"),
], ids=["blank-line", "two-blank-lines", "quoted-cell-before", "quoted-bad-value",
        "cell-past-field-limit", "header-cell-past-field-limit", "bad-date-before-cell-past-field-limit"])
def test_load_names_the_file_line_the_record_starts_on(tmp_path, text, message):
    path = tmp_path / "lines.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataFormatError) as raised:
        load_pjm_csv(path, "AEP_MW")
    assert str(raised.value) == f"lines.csv {message}"


_starts = st.datetimes(min_value=datetime(1000, 1, 1), max_value=datetime(9000, 1, 1)).map(
    lambda d: d.replace(microsecond=0))
_cells = st.one_of(st.sampled_from(["", " "]), st.floats(allow_nan=False, allow_infinity=False).map(repr))


@settings(max_examples=50, deadline=None)
@given(start=_starts, rows=st.lists(st.tuples(st.integers(0, 900), _cells), min_size=1, max_size=600))
def test_load_matches_strptime_reference(start, rows):
    # offsets in file order: repeats are duplicate stamps, holes are gaps,
    # and the order is shuffled; blank cells are missing values
    text = "Datetime,AEP_MW\n" + "".join(
        f"{(start + timedelta(hours=h)).strftime(REFERENCE_FORMAT)},{cell}\n" for h, cell in rows)
    handler = _WarningCounts()
    logger = logging.getLogger("stanforge.data")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "aep.csv"
        path.write_text(text, encoding="utf-8")
        logger.addHandler(handler)
        try:
            try:
                series = load_pjm_csv(path, "AEP_MW")
            except DataFormatError:
                with pytest.raises(DataFormatError, match="no usable rows"):
                    _reference_load(path, "AEP_MW")
                return
        finally:
            logger.removeHandler(handler)
        stamps, values, counts = _reference_load(path, "AEP_MW")
    assert np.array_equal(series.timestamps, stamps)
    assert series.values.tobytes() == values.tobytes()
    assert handler.counts == counts


_non_finite_cells = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e999"])


@settings(max_examples=60, deadline=None)
@given(cells=st.lists(_cells, min_size=1, max_size=600), data=st.data())
def test_load_names_the_line_of_the_first_non_finite_value(cells, data):
    # non-finite cells at drawn rows, perhaps an unparseable one after the
    # first of them, in one block of rows or across several
    bad = data.draw(st.dictionaries(st.integers(0, len(cells) - 1), _non_finite_cells, min_size=1))
    first = min(bad)
    later = data.draw(st.one_of(st.none(), st.integers(first + 1, len(cells))))
    cells = [bad.get(row, cell) for row, cell in enumerate(cells)]
    if later is not None and later < len(cells):
        cells[later] = "oops"
    stamps = np.datetime_as_string(hourly_timestamps(len(cells)), unit="s")
    text = "Datetime,AEP_MW\n" + "".join(f"{stamp.replace('T', ' ')},{cell}\n" for stamp, cell in zip(stamps, cells))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "aep.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataFormatError) as raised:
            load_pjm_csv(path, "AEP_MW")
    assert str(raised.value) == f"aep.csv line {first + 2}: non-finite value {float(bad[first])!r}"


@settings(max_examples=50, deadline=None)
@given(
    start=_starts,
    steps=st.lists(st.integers(1, 5000), min_size=1, max_size=600),
    seconds=st.booleans(),
    name=st.sampled_from(["WEST", "A,B", 'Q"T']),
    data=st.data(),
)
def test_write_matches_strftime_reference(start, steps, seconds, name, data):
    offsets = np.cumsum(steps)
    if seconds:  # plain integer stamps, as simulate_lstar makes them
        stamps = offsets.astype(np.int64)
    else:
        stamps = np.datetime64(start, "s") + offsets * np.timedelta64(3600, "s")
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=len(steps), max_size=len(steps)))
    series = TimeSeries(name=name, timestamps=stamps, values=values)
    with tempfile.TemporaryDirectory() as tmp:
        write_pjm_csv(series, Path(tmp) / "new.csv")
        _reference_write(series, Path(tmp) / "old.csv")
        assert (Path(tmp) / "new.csv").read_bytes() == (Path(tmp) / "old.csv").read_bytes()


def test_csv_io_matches_references_across_blocks(tmp_path):
    n = 5000  # many blocks of rows
    series = TimeSeries(name="LONG", timestamps=hourly_timestamps(n),
                        values=np.random.default_rng(1).standard_normal(n))
    write_pjm_csv(series, tmp_path / "new.csv")
    _reference_write(series, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    back = load_pjm_csv(tmp_path / "new.csv", "LONG_MW")
    stamps, values, _ = _reference_load(tmp_path / "new.csv", "LONG_MW")
    assert np.array_equal(back.timestamps, stamps) and back.values.tobytes() == values.tobytes()
    lines = (tmp_path / "new.csv").read_text(encoding="utf-8").splitlines()
    lines[2999] = "2015-02-30 00:00:00,1.0"  # line 3000, well past the first block
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="line 3000: unparseable timestamp"):
        load_pjm_csv(tmp_path / "bad.csv", "LONG_MW")



# the kinds of bad row: (cell it spoils, 0 the stamp and 1 the value, its text, the message naming it)
_BAD_ROW_KINDS = {
    "stamp shape": (0, "2015-03-01T00:00:00", "unparseable timestamp '2015-03-01T00:00:00'"),
    "calendar date": (0, "2015-02-30 00:00:00", "unparseable timestamp '2015-02-30 00:00:00'"),
    "unparseable value": (1, "oops", "unparseable value 'oops'"),
    "non-finite value": (1, "1e400", "non-finite value inf"),
    "over-long cell": (1, _PAST_FIELD_LIMIT, f"field larger than field limit ({csv.field_size_limit()})"),
}


@settings(max_examples=60, deadline=None)
@given(bad=st.lists(st.tuples(st.integers(250, 520), st.sampled_from(sorted(_BAD_ROW_KINDS))), min_size=2, max_size=2),
       blank_before=st.sets(st.integers(0, 599), max_size=6), seed=st.integers(0, 2**32 - 1))
def test_one_pass_load_names_the_first_bad_row_across_blocks(bad, blank_before, seed):
    # rows 0..599 span three blocks of rows; a blank line before row k shifts
    # the file line of every later row, so the error must carry its own line
    n = 600
    series = TimeSeries(name="EDGE", timestamps=hourly_timestamps(n, start="2015-03-01 00:00:00"),
                        values=np.random.default_rng(seed).standard_normal(n))
    with tempfile.TemporaryDirectory() as tmp:
        good = write_pjm_csv(series, Path(tmp) / "good.csv")
        rows = [row.split(",") for row in good.read_text(encoding="utf-8").splitlines()[1:]]
        file_line = {r: 2 + r + sum(k <= r for k in blank_before) for r in range(n)}

        def write(path, rows):
            path.write_text("Datetime,EDGE_MW\n" + "".join(
                ("\n" if r in blank_before else "") + ",".join(row) + "\n" for r, row in enumerate(rows)),
                encoding="utf-8")
            return path

        back = load_pjm_csv(write(Path(tmp) / "valid.csv", rows), "EDGE_MW")
        stamps, values, _ = _reference_load(Path(tmp) / "valid.csv", "EDGE_MW")
        assert np.array_equal(back.timestamps, stamps) and back.values.tobytes() == values.tobytes()

        kinds = {}  # row: {cell: kind}; a second kind on the same cell replaces the first
        for row, kind in bad:
            cell, text, _ = _BAD_ROW_KINDS[kind]
            rows[row][cell] = text
            kinds.setdefault(row, {})[cell] = kind
        first = min(kinds)
        # the csv module refuses an over-long cell as it reads the record; otherwise the stamp is checked first
        kind = "over-long cell" if "over-long cell" in kinds[first].values() else kinds[first][min(kinds[first])]
        with pytest.raises(DataFormatError) as raised:
            load_pjm_csv(write(Path(tmp) / "bad.csv", rows), "EDGE_MW")
        assert str(raised.value) == f"bad.csv line {file_line[first]}: {_BAD_ROW_KINDS[kind][2]}"


def _hourly_csv(path: Path, n: int, line_end: str = "\n") -> Path:
    series = TimeSeries(name="EDGE", timestamps=hourly_timestamps(n), values=np.arange(n, dtype=np.float64))
    text = write_pjm_csv(series, path).read_text(encoding="utf-8")
    path.write_bytes(text.replace("\r\n", line_end).encode("utf-8"))
    return path


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("line", [1, 2, 300, 1501])
def test_a_byte_that_is_not_utf8_is_named_by_file_and_line(tmp_path, line_end, line):
    # the text layer decodes ahead in chunks of about 8 KiB, so line 1501 (past 40 KiB) is met
    # by the decoder well before the csv reader reaches it
    path = with_undecodable_byte(_hourly_csv(tmp_path / "bytes.csv", 2000, line_end), line)
    with pytest.raises(DataFormatError) as raised:
        load_pjm_csv(path, "EDGE_MW")
    assert str(raised.value) == f"bytes.csv line {line}: not UTF-8 (invalid start byte)"


def test_a_bad_row_read_before_an_undecodable_byte_is_named_first(tmp_path):
    path = _hourly_csv(tmp_path / "both.csv", 2000)
    path.write_bytes(path.read_bytes().replace(b"2015-01-01 05:00:00", b"2015-01-01 5:00:00"))  # line 7
    with pytest.raises(DataFormatError, match="^both.csv line 7: unparseable timestamp '2015-01-01 5:00:00'$"):
        load_pjm_csv(with_undecodable_byte(path, 1501), "EDGE_MW")


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_bad_row_in_the_decoders_read_ahead_is_named_before_a_later_undecodable_byte(tmp_path, line_end):
    # lines 1400 and 1501 are decoded in one chunk, before the csv reader reaches line 1400
    lines = _hourly_csv(tmp_path / "ahead.csv", 2000).read_bytes().splitlines(keepends=True)
    lines[1399] = lines[1399].split(b",")[0] + b",oops\n"
    path = tmp_path / "ahead.csv"
    path.write_bytes(b"".join(lines).replace(b"\n", line_end.encode("ascii")))
    with pytest.raises(DataFormatError, match="^ahead.csv line 1400: unparseable value 'oops'$"):
        load_pjm_csv(with_undecodable_byte(path, 1501), "EDGE_MW")


def test_a_byte_that_is_not_utf8_in_a_column_not_read_is_refused(tmp_path):
    lines = [b"Datetime,EDGE_MW,NOTE\n"] + [f"2015-01-01 {h:02d}:00:00,{h}.0,ok\n".encode("ascii") for h in range(24)]
    lines[20] = lines[20].replace(b"ok", b"\xffk")
    path = tmp_path / "note.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(DataFormatError, match=r"^note.csv line 21: not UTF-8 \(invalid start byte\)$"):
        load_pjm_csv(path, "EDGE_MW")


def test_the_writer_writes_a_non_ascii_column_name_as_utf8(tmp_path):
    series = TimeSeries(name="ÅLAND", timestamps=hourly_timestamps(3), values=np.array([1.0, 2.0, 3.0]))
    path = write_pjm_csv(series, tmp_path / "aland.csv")
    assert path.read_bytes().startswith("Datetime,ÅLAND_MW\r\n".encode("utf-8"))
    assert load_pjm_csv(path, "ÅLAND_MW").values.tolist() == [1.0, 2.0, 3.0]


# ------------------------------------------------------------------- JSON ---

def test_read_json_reads_utf8_text(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes('{"name": "ÅLAND", "n": [1, 2.5]}'.encode("utf-8"))
    assert read_json(path) == {"name": "ÅLAND", "n": [1, 2.5]}


@pytest.mark.parametrize("content,reason", UNDECODABLE_JSON)
def test_read_json_names_the_file_for_every_decode_failure(tmp_path, content, reason):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(DataFormatError) as raised:
        read_json(str(path))
    assert str(raised.value).startswith(f"doc.json: not valid JSON: {reason}")


def test_read_json_leaves_an_unreadable_file_to_its_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "missing.json")


# ------------------------------------------------------------- TimeSeries ---

def test_series_rejects_disorder_and_nonfinite():
    stamps = hourly_timestamps(3)
    with pytest.raises(ValueError, match="increasing"):
        TimeSeries(name="X", timestamps=stamps[[0, 2, 1]], values=np.ones(3))
    with pytest.raises(ValueError, match="NaN"):
        TimeSeries(name="X", timestamps=stamps, values=np.array([1.0, np.nan, 2.0]))
    with pytest.raises(ValueError, match="timestamps"):
        TimeSeries(name="X", timestamps=stamps[:2], values=np.ones(3))
    with pytest.raises(ValueError, match="non-empty"):
        TimeSeries(name="X", timestamps=stamps[:0], values=np.empty(0))


def test_hourly_timestamps_start_at_a_loader_shaped_stamp():
    stamps = hourly_timestamps(3, start="1999-12-31 23:00:00")
    assert np.datetime_as_string(stamps, unit="s").tolist() == [
        "1999-12-31T23:00:00", "2000-01-01T00:00:00", "2000-01-01T01:00:00"]
    for loose in ("2015-01-01T00:00:00", "2015-01-01", "2015-1-1 00:00:00", "0000-01-01 00:00:00"):
        with pytest.raises(ValueError, match="YYYY-MM-DD HH:MM:SS"):
            hourly_timestamps(3, start=loose)
    with pytest.raises(ValueError, match="out of range"):
        hourly_timestamps(3, start="2015-02-30 00:00:00")


# ---------------------------------------------------------- the two gates ---

def _with(values, index, bad):
    values = np.array(values, dtype=np.float64)
    values[index] = bad
    return values


_SINE = np.sin(np.arange(200.0))
_TEXT = [str(x) for x in _SINE[:60]]


def _refused(name, values, kinds="integers or floats"):
    values = np.asarray(values)
    return re.escape(f"{name} must be a 1-D array of {kinds}, got {values.dtype} of shape {values.shape}")


def _too_large(name, values):
    magnitude = float(np.abs(values).max())
    return re.escape(f"{name} must be small enough to square in float64, got largest magnitude {magnitude!r}")


_STAMP_KINDS = "integers, floats or datetime64 values"
_HUGE = np.tile([1e300, -1e300], 40)


@pytest.mark.parametrize("call,message", [
    (lambda: prepare_splits(_with(_SINE, 50, np.nan), 1, lookback=10),
     "series must hold no NaN or infinity, got nan at index 50"),
    (lambda: estimate_lstar(_TEXT, order=1), _refused("series", _TEXT)),
    (lambda: LstarParams(phi0=10 ** 400, phi=[0.5], theta=[0.0], gamma=1.0, c=0.0),
     f"phi0 must be a finite real number, got {10 ** 400}"),
    (lambda: estimate_lstar(_SINE, order=1, gamma_grid=[10 ** 400]),
     f"gamma_grid entry 0 must be a finite real number, got {10 ** 400}"),
    (lambda: ScalerParams(mean=10 ** 400, std=1.0), f"scaler mean must be a finite real number, got {10 ** 400}"),
    (lambda: TimeSeries("X", hourly_timestamps(3), ["1", "2", "3"]), _refused("values", ["1", "2", "3"])),
    (lambda: TimeSeries("X", hourly_timestamps(3), [True, False, True]), _refused("values", [True, False, True])),
    (lambda: make_windows(_SINE + 1j, 5, 1), _refused("series", _SINE + 1j)),
    (lambda: estimate_lstar(_SINE + 1j, order=1), _refused("series", _SINE + 1j)),
    (lambda: make_windows(_SINE.reshape(100, 2), 5, 1), _refused("series", _SINE.reshape(100, 2))),
    (lambda: estimate_lstar(_SINE.reshape(100, 2), order=1), _refused("series", _SINE.reshape(100, 2))),
    (lambda: make_windows(np.array([1.0, None] * 30), 5, 1), _refused("series", np.array([1.0, None] * 30))),
    (lambda: make_windows(hourly_timestamps(60), 5, 1), _refused("series", hourly_timestamps(60))),
    (lambda: make_windows(_with(_SINE, 7, -np.inf), 5, 1), "series must hold no NaN or infinity, got -inf at index 7"),
    (lambda: estimate_lstar(_with(_SINE, 120, np.inf), order=1),
     "series must hold no NaN or infinity, got inf at index 120"),
    (lambda: fit_scaler(_with(_SINE, 3, np.nan)), "values must hold no NaN or infinity, got nan at index 3"),
    (lambda: default_c_grid(_with(_SINE, 0, np.inf)), "series must hold no NaN or infinity, got inf at index 0"),
    (lambda: fit_scaler(np.array([1e308, -1e308, 1e308])), _too_large("values", [1e308])),
    (lambda: prepare_splits(_HUGE, 1, lookback=5), _too_large("values", _HUGE)),
    (lambda: estimate_lstar(_SINE * 1e200, order=1), _too_large("series", _SINE * 1e200)),
    (lambda: TimeSeries("X", ["a", "b", "c"], [1.0, 2.0, 3.0]), _refused("timestamps", ["a", "b", "c"], _STAMP_KINDS)),
    (lambda: TimeSeries("X", None, [1.0, 2.0, 3.0]), _refused("timestamps", None, _STAMP_KINDS)),
    (lambda: TimeSeries("X", np.zeros((2, 1)), [1.0, 2.0]), _refused("timestamps", np.zeros((2, 1)), _STAMP_KINDS)),
    (lambda: TimeSeries("X", np.array([3, 2, 1], dtype=np.uint8), [1.0, 2.0, 3.0]),
     "timestamps must be strictly increasing"),
    (lambda: TimeSeries("X", np.array([0.0, 1.0, np.nan, 3.0, np.nan]), [1.0] * 5),
     "timestamps must hold no NaN or NaT, got nan at index 2"),
    (lambda: TimeSeries("X", np.array(["2015-01-01T00", "NaT", "2015-01-01T02"], dtype="datetime64[h]"), [1.0] * 3),
     "timestamps must hold no NaN or NaT, got NaT at index 1"),
], ids=["nan-in-prepare_splits", "text-to-estimate_lstar", "huge-int-phi0", "huge-int-gamma_grid", "huge-int-scaler",
        "text-TimeSeries", "bool-TimeSeries", "complex-make_windows", "complex-estimate_lstar", "2d-make_windows",
        "2d-estimate_lstar", "object-make_windows", "datetime-make_windows", "inf-make_windows", "inf-estimate_lstar",
        "nan-fit_scaler", "inf-default_c_grid", "squares-overflow-fit_scaler", "squares-overflow-prepare_splits",
        "squares-overflow-estimate_lstar", "text-stamps", "none-stamps", "2d-stamps", "unsigned-stamps-decreasing",
        "nan-stamp", "nat-stamp"])
def test_the_gates_name_the_field_or_the_series_and_index(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_the_series_gate_passes_float64_through_and_converts_integers():
    values = _SINE.copy()
    assert series_values(values) is values
    assert TimeSeries("X", hourly_timestamps(200), values).values is values
    series = sine_series(50)
    assert series_values(series) is series.values
    ints = series_values(np.arange(5, dtype=np.uint8))
    assert ints.dtype == np.float64 and ints.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert series_values([1, 2.5]).tolist() == [1.0, 2.5]


# ----------------------------------------------------------------- scaler ---

def test_scaler_population_convention():
    scaler = fit_scaler([0.0, 1.0, 2.0])
    assert scaler.mean == 1.0
    assert scaler.std == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_scaler_round_trip(seed):
    values = np.random.default_rng(seed).uniform(-100.0, 100.0, 64)
    scaler = fit_scaler(values)
    assert np.allclose((values - scaler.mean) / scaler.std * scaler.std + scaler.mean, values, atol=1e-12)


def test_scaler_rejects_constant_input():
    with pytest.raises(ZeroVarianceError):
        fit_scaler(np.full(10, 4.2))


def test_scaler_rejects_degenerate_construction():
    with pytest.raises(ValueError):
        ScalerParams(mean=0.0, std=0.0)
    with pytest.raises(ValueError):
        ScalerParams(mean=np.nan, std=1.0)
    with pytest.raises(ValueError):
        fit_scaler([1.0])


@pytest.mark.parametrize("field", ["mean", "std"])
@pytest.mark.parametrize("value", [True, np.True_, "1.0", None, 1j, [1.0]])
def test_scaler_refuses_a_bool_or_non_real_value(field, value):
    with pytest.raises(ValueError, match=f"^scaler {field} must be a finite real number"):
        ScalerParams(**{"mean": 0.0, "std": 1.0, field: value})


def test_scaler_stores_python_floats():
    scaler = ScalerParams(mean=np.float32(0.5), std=np.int64(2))
    assert (type(scaler.mean), type(scaler.std)) == (float, float)
    assert (scaler.mean, scaler.std) == (0.5, 2.0)
    assert ScalerParams(mean=3, std=1).mean == 3.0


# --------------------------------------------------------------- lookback ---

@pytest.mark.parametrize("n_ahead, expected", [(1, 45), (6, 45), (12, 60), (np.int64(12), 60)])
def test_lookback_rule(n_ahead, expected):
    assert lookback_for(n_ahead) == expected


@pytest.mark.parametrize("call,name,size", [
    (lambda: lookback_for(2.5), "horizon", 2.5),
    (lambda: lookback_for(True), "horizon", True),
    (lambda: lookback_for(np.float64(2.0)), "horizon", np.float64(2.0)),
    (lambda: make_windows(sine_series(60), True, 1), "lookback", True),
    (lambda: make_windows(sine_series(60), 5, 2.0), "horizon", 2.0),
    (lambda: make_windows(sine_series(60), 0, 1), "lookback", 0),
    (lambda: prepare_splits(sine_series(200), 1, lookback=2.7), "lookback", 2.7),
    (lambda: prepare_splits(sine_series(200), 1.5), "horizon", 1.5),
    (lambda: prepare_splits(sine_series(200), 1, lookback=np.False_), "lookback", np.False_),
], ids=["horizon-fraction", "horizon-bool", "horizon-numpy-float", "lookback-bool", "horizon-whole-float",
        "lookback-zero", "split-lookback-fraction", "split-horizon-fraction", "split-lookback-numpy-bool"])
def test_window_sizes_must_be_integers_naming_the_size(call, name, size):
    with pytest.raises(ValueError, match=f"^{name} must be (an|a positive) integer, got {re.escape(repr(size))}$"):
        call()


def test_lookback_monotone_and_floored():
    values = [lookback_for(h) for h in range(1, 25)]
    assert all(v >= 45 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        lookback_for(0)


# ---------------------------------------------------------------- windows ---

def test_window_count_matches_enumeration():
    series = sine_series(100)
    ds = make_windows(series, lookback=45, horizon=1)
    assert len(ds) == 55
    assert ds.inputs.shape == (55, 45)
    assert ds.targets.shape == (55, 1)


def test_single_window_boundary():
    series = sine_series(46)
    ds = make_windows(series, lookback=45, horizon=1)
    assert len(ds) == 1
    assert np.array_equal(ds.inputs[0], series.values[:45])
    assert ds.targets[0, 0] == series.values[45]


def test_ramp_targets_follow_inputs():
    values = np.arange(60.0)
    scaler = fit_scaler(values)
    ds = make_windows((values - scaler.mean) / scaler.std, lookback=5, horizon=2)
    step = 1.0 / scaler.std
    assert np.allclose(ds.targets[:, 0], ds.inputs[:, -1] + step, atol=1e-12)
    assert np.allclose(ds.targets[:, 1], ds.inputs[:, -1] + 2.0 * step, atol=1e-12)


def test_window_alignment_through_anchors():
    series = sine_series(80)
    ds = make_windows(series, lookback=7, horizon=3)
    for i in (0, 10, len(ds) - 1):
        t = ds.anchors[i]
        assert np.array_equal(ds.inputs[i], series.values[t - 7: t])
        assert np.array_equal(ds.targets[i], series.values[t: t + 3])


def test_windows_too_short_series():
    with pytest.raises(ValueError, match="at least 47"):
        make_windows(sine_series(46), lookback=45, horizon=2)


# ----------------------------------------------------------------- splits ---

def test_split_sizes_and_partition():
    ds = make_windows(sine_series(107), lookback=5, horizon=3)  # 100 windows
    train, val, test = split_windows(ds, seed=0)
    assert (len(train), len(val), len(test)) == (64, 16, 20)
    combined = np.concatenate([train.anchors, val.anchors, test.anchors])
    assert sorted(combined.tolist()) == ds.anchors.tolist()


def test_split_deterministic_per_seed():
    ds = make_windows(sine_series(107), lookback=5, horizon=3)
    a = split_windows(ds, seed=7)
    b = split_windows(ds, seed=7)
    c = split_windows(ds, seed=8)
    for x, y in zip(a, b):
        assert np.array_equal(x.anchors, y.anchors)
    assert any(not np.array_equal(x.anchors, y.anchors) for x, y in zip(a, c))


def test_split_rejects_empty_subsets():
    ds = make_windows(sine_series(12), lookback=5, horizon=3)  # 5 windows: a pool of 4, of which 0 validate
    with pytest.raises(ValueError, match="empty subset: 4/0/1"):
        split_windows(ds)


@pytest.mark.parametrize("seed", [True, np.False_, 1.0, np.float64(2.0), -1, "1", None])
@pytest.mark.parametrize("mode", ["random", "contiguous"])
def test_split_seed_must_be_a_non_negative_integer(seed, mode):
    message = f"^seed must be a non-negative integer, got {re.escape(repr(seed))}$"
    with pytest.raises(ValueError, match=message):
        split_windows(make_windows(sine_series(107), lookback=5, horizon=3), seed=seed, mode=mode)
    with pytest.raises(ValueError, match=message):
        prepare_splits(sine_series(107), 3, lookback=5, seed=seed, mode=mode)


def test_split_takes_a_numpy_integer_seed():
    ds = make_windows(sine_series(107), lookback=5, horizon=3)
    for x, y in zip(split_windows(ds, seed=np.int64(7)), split_windows(ds, seed=7)):
        assert np.array_equal(x.anchors, y.anchors)


def test_contiguous_split_is_chronological():
    ds = make_windows(sine_series(107), lookback=5, horizon=3)
    train, val, test = split_windows(ds, mode="contiguous")
    assert train.anchors.max() < val.anchors.min()
    assert val.anchors.max() < test.anchors.min()


# --------------------------------------------------------- prepared splits --

def test_prepare_splits_scaler_from_train_pool_only():
    series = sine_series(200)
    prep = prepare_splits(series, horizon=1, lookback=10, seed=3)
    raw = make_windows(series, 10, 1)
    train_raw, val_raw, _ = split_windows(raw, seed=3)
    pool = np.concatenate([train_raw.inputs.ravel(), val_raw.inputs.ravel()])
    assert prep.scaler.mean == pytest.approx(pool.mean(), abs=1e-12)
    assert prep.scaler.std == pytest.approx(pool.std(), abs=1e-12)


def test_prepare_splits_standardizes_all_subsets_with_one_scaler():
    series = sine_series(200)
    prep = prepare_splits(series, horizon=2, lookback=10, seed=4)
    for subset in (prep.train, prep.val, prep.test):
        for row, anchor in zip(subset.inputs, subset.anchors):
            raw = series.values[anchor - 10: anchor]
            assert np.allclose(row * prep.scaler.std + prep.scaler.mean, raw, atol=1e-9)



def _reference_splits(values, horizon, lookback, mode, seed):
    """Split the raw windows, fit the scaler on the raw train+val inputs, then
    scale each subset as ``(v - mean) / std``: the referee for ``prepare_splits``."""
    raw = np.lib.stride_tricks.sliding_window_view(values, lookback + horizon)
    n = len(raw)
    pool = int(n * 0.8)
    n_val = int(pool * 0.2)
    order = np.random.default_rng(seed).permutation(n) if mode == "random" else np.arange(n)
    subsets = [order[: pool - n_val], order[pool - n_val: pool], order[pool:]]
    scaler = fit_scaler(np.concatenate([raw[subsets[0], :lookback].ravel(), raw[subsets[1], :lookback].ravel()]))
    return scaler, [((raw[idx, :lookback] - scaler.mean) / scaler.std, (raw[idx, lookback:] - scaler.mean) / scaler.std,
                     idx + lookback) for idx in subsets]


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["random", "contiguous"]), horizon=st.integers(1, 12),
       lookback=st.one_of(st.none(), st.integers(1, 60)), extra=st.integers(7, 400),
       seed=st.integers(0, 2**32 - 1))
def test_prepare_splits_matches_split_then_scale_reference(mode, horizon, lookback, extra, seed):
    q = lookback_for(horizon) if lookback is None else lookback
    values = 50.0 + 10.0 * np.random.default_rng(seed).standard_normal(q + horizon - 1 + extra)
    prep = prepare_splits(values, horizon, lookback=lookback, mode=mode, seed=seed)
    scaler, subsets = _reference_splits(values, horizon, q, mode, seed)
    assert prep.scaler == scaler and (prep.lookback, prep.horizon) == (q, horizon)
    for got, (inputs, targets, anchors) in zip((prep.train, prep.val, prep.test), subsets):
        assert got.inputs.tobytes() == inputs.tobytes() and got.inputs.shape == inputs.shape
        assert got.targets.tobytes() == targets.tobytes() and got.targets.shape == targets.shape
        assert np.array_equal(got.anchors, anchors)

def test_prepare_splits_default_lookback_follows_rule():
    series = sine_series(400)
    assert prepare_splits(series, horizon=1).lookback == 45
    assert prepare_splits(series, horizon=12).lookback == 60


def test_prepare_splits_stores_python_ints():
    prep = prepare_splits(np.arange(100.0), np.int64(2))
    assert type(prep.horizon) is int and type(prep.lookback) is int
    assert type(prepare_splits(np.arange(100.0), 1, lookback=np.int32(5)).lookback) is int


def test_prepare_splits_rejects_unknown_mode():
    with pytest.raises(ValueError, match="^unknown split mode 'bogus'; expected 'random' or 'contiguous'$"):
        prepare_splits(sine_series(200), horizon=1, lookback=10, mode="bogus")


def test_prepare_splits_contiguous_mode():
    prep = prepare_splits(sine_series(200), horizon=1, lookback=10, mode="contiguous")
    assert prep.train.anchors.max() < prep.val.anchors.min() < prep.test.anchors.min()
