"""ScanTable: the columnar scan data, its CSV form, pooling and input checks."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from spectomo import (
    DataFormatError,
    InterferometerConfig,
    MeasurementRecord,
    MeasurementSetting,
    ScanTable,
    density_from_pure,
    gaussian_pure,
    make_grid,
    plan_scan,
    pool_records,
    read_records,
    reconstruct_records,
    simulate_counts,
    time_jitter_state,
    write_records,
)
from spectomo import measurement
from spectomo.cli import main
from spectomo.diagnostics import capture
from spectomo.measurement import RECORD_HEADER, THETAS
from conftest import piped
from oracles import (
    first_invalid_whole_table,
    parse_block_as_floats,
    pool_by_unique,
    read_records_by_concatenation,
    records_csv_by_rows,
)

GRID = make_grid(0.0, 16.0, 16)
PROPERTY = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _scan(grid=GRID, max_delta_index=3, shots=400, seed=5, exact=False):
    state = density_from_pure(gaussian_pure(grid, 0.0, 1.0))
    plan = plan_scan(grid, max_delta_index, shots, seed)
    return simulate_counts(state, plan, InterferometerConfig(gamma=0.9), exact=exact)


# ---------------------------------------------------------------------------
# The table and its rows
# ---------------------------------------------------------------------------

def test_rows_are_measurement_records():
    table = _scan()
    rows = list(table)
    assert len(rows) == len(table) == 2 + 2 * 16 * 4
    assert all(isinstance(r, MeasurementRecord) for r in rows)
    assert [rows[17]] == list(table[17:18]) == list(table[np.array([17])])
    assert list(table[-1:]) == rows[-1:]
    assert list(table) == rows and rows == list(ScanTable.from_records(rows))
    assert ScanTable.from_records(rows) == table
    assert [r.setting.theta for r in rows] == table.theta.tolist()
    assert set(table.theta.tolist()) == set(THETAS) and table.theta_slot.dtype == np.int64
    rec = rows[40]
    assert rec.setting == MeasurementSetting(rec.tau_index * GRID.d_tau, rec.setting.delta_index, rec.setting.theta)
    # a row reads back exactly what a hand-built record holds
    again = MeasurementRecord(
        rec.setting, rec.tau_index, rec.shots_attempted, rec.shots_postselected, rec.counts_a, rec.counts_b
    )
    assert again == rec and hash(again) == hash(rec)


def test_sub_tables_and_immutability():
    table = _scan()
    band = table[table.delta_index == 2]
    assert isinstance(band, ScanTable) and len(band) == 2 * 16
    assert set(band.delta_index.tolist()) == {2}
    assert len(table[3:9]) == 6
    with pytest.raises(ValueError):
        table.counts_a[0] = 1
    with pytest.raises(AttributeError):
        table.counts_a = table.counts_b


@pytest.mark.parametrize(
    "column, value, reason",
    [
        ("delta_index", -1, "delta_index must be nonnegative"),
        ("tau_index", -1, "tau_index must be nonnegative"),
        ("theta", 1.0, "theta_rad must be 0 or pi/2"),
        ("theta", math.nan, "theta_rad must be 0 or pi/2"),
        ("theta_slot", 2, "theta_slot must be 0 or 1"),
        ("theta_slot", -1, "theta_slot must be 0 or 1"),
        ("counts_b", -1, "nonnegative"),
        ("shots_postselected", 500, "exceed attempted"),
        ("counts_a", 399, "counts_A + counts_B"),
    ],
)
def test_constructor_names_the_first_bad_row(column, value, reason):
    table = _scan(shots=400)
    match = rf"^row 9: .*{re.escape(reason)}"
    if column == "theta":  # float phases come in through records
        rows = list(table)
        for r in (9, 30):
            rows[r] = replace(rows[r], setting=replace(rows[r].setting, theta=value))
        with pytest.raises(ValueError, match=match):
            ScanTable.from_records(rows)
        return
    columns = {name: np.array(col) for name, col in zip(
        ("delta_index", "tau_index", "theta_slot", "tau", "shots_attempted",
         "shots_postselected", "counts_a", "counts_b"),
        table.columns,
    )}
    columns[column] = columns[column].astype(type(value))
    columns[column][[9, 30]] = value
    with pytest.raises(ValueError, match=match):
        ScanTable(**columns)


def _isclose_as_written(total, post):
    """The row check's closeness test as one out-of-place formula."""
    with np.errstate(invalid="ignore"):
        tol = np.maximum(1e-9 * np.maximum(np.abs(total), np.abs(post)), 1e-9)
        return (total == post) | (np.abs(post - total) <= tol)


@st.composite
def count_columns(draw):
    # counts_a, counts_b and shots_postselected, each int64 or float64, with
    # sums near, at and far from the post-selected count.
    rows = draw(st.integers(1, 6))
    dtypes = [draw(st.sampled_from([np.int64, np.float64])) for _ in range(3)]
    value = st.one_of(st.integers(0, 2**61), st.floats(0.0, 2.0**61), st.sampled_from([0, 1, 2**53 + 1]))
    a = [draw(value) for _ in range(rows)]
    b = [draw(value) for _ in range(rows)]
    post = []
    for x, y in zip(a, b):
        total = float(x) + float(y)
        post.append(draw(st.one_of(
            st.just(total),
            st.floats(-3e-9, 3e-9).map(lambda e: total * (1.0 + e)),
            st.floats(-3e-9, 3e-9).map(lambda e: total + e),
            st.floats(-(2.0**62), 2.0**62),
        )))
    a, b, post = (np.array(col).astype(dtype) for col, dtype in zip((a, b, post), dtypes))
    return a, b, post


@settings(max_examples=300, deadline=None)
@given(columns=count_columns())
def test_row_check_closeness_matches_the_formula_as_written(columns):
    a, b, post = columns
    zeros = np.zeros(len(a), dtype=np.int64)
    cols = {
        "delta_index": zeros, "tau_index": zeros, "theta_slot": zeros, "tau": zeros.astype(float),
        "shots_attempted": np.full(len(a), 2**62, dtype=np.int64),
        "shots_postselected": post, "counts_a": a, "counts_b": b,
    }
    close = _isclose_as_written(a + b, post)
    # A sum near 2**62 can put the post-selected count past the attempted
    # one; that invariant is checked first and named instead.
    exceeds = post > cols["shots_attempted"] + 1e-9
    found = measurement._first_invalid(cols)
    if close.all() and not exceeds.any():
        assert found is None
    else:
        row = int(np.argmax(~close | exceeds))
        assert found is not None and found[0] == row
        assert ("exceed attempted" if exceeds[row] else "counts_A + counts_B") in found[1]


def test_support_clipping_once_per_band():
    grid = make_grid(0.0, 16.0, 16)
    state = time_jitter_state(gaussian_pure(grid, 0.0, 1.0), 1.0)
    plan = plan_scan(grid, grid.n - 1, 100, 1)
    with capture() as diags:
        simulate_counts(state, plan, InterferometerConfig())
    clipped = [d.payload["delta_index"] for d in diags if d.code == "support-clipping"]
    assert clipped and clipped == sorted(set(clipped))


# ---------------------------------------------------------------------------
# CSV: write -> read identity and malformed input
# ---------------------------------------------------------------------------

@st.composite
def tables(draw, integer_counts):
    n = GRID.n
    size = draw(st.integers(0, 30))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1))
    delta, tau_index, slot = zip(*draw(st.lists(cells, min_size=size, max_size=size))) if size else ((), (), ())
    attempted = draw(st.lists(st.integers(0, 10**9), min_size=size, max_size=size))
    post, counts_a = [], []
    for shots in attempted:
        drawn = draw(st.integers(0, shots))
        post.append(drawn)
        if integer_counts:
            counts_a.append(draw(st.integers(0, drawn)))
        else:
            counts_a.append(draw(st.floats(0.0, float(drawn))))
    counts_a = np.array(counts_a, dtype=np.int64 if integer_counts else np.float64)
    tau_index = np.array(tau_index, dtype=np.int64)
    return ScanTable(
        delta, tau_index, slot, tau_index * GRID.d_tau, attempted, post, counts_a, np.array(post) - counts_a
    )


@PROPERTY
@given(table=st.one_of(tables(integer_counts=True), tables(integer_counts=False)))
def test_csv_write_read_identity(tmp_path, table):
    path = tmp_path / "records.csv"
    write_records(path, table)
    back = read_records(path, GRID)
    assert back == table
    assert len(back) == len(path.read_text().splitlines()) - 1
    again = tmp_path / "again.csv"
    write_records(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_csv_accepts_a_list_of_records_and_blank_lines(tmp_path):
    table = _scan(exact=True)
    path = tmp_path / "records.csv"
    write_records(path, list(table))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5] + ["", "   "] + lines[5:]) + "\n")
    assert read_records(path, GRID) == table


def _one_row(*fields):
    """A one-row table of the given column values."""
    return ScanTable(*(np.array([field]) for field in fields))


def _bad_csv(tmp_path, bad_line, lineno=9):
    lines = [RECORD_HEADER] + [
        f"{d},{k},{t!r},100,100,60,40"
        for d, k, t in [(0, k, t) for k in range(4) for t in THETAS]
    ]
    lines.insert(3, "")  # blank lines count toward line numbers
    lines.insert(lineno - 1, bad_line)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


MALFORMED_ROWS = {
    "float-index": ("1.0,0,0.0,100,100,60,40", "invalid literal for int"),
    "int64-overflow": ("0,0,0.0,99999999999999999999,10,10,0", "does not fit a 64-bit integer"),
    "six-fields": ("0,0,0.0,100,100,60", "expected 7 fields, got 6"),
    "trailing-note": ("0,0,0.0,100,100,60,40 # note", "could not convert string to float"),
    "negative-counts": ("0,0,0.0,100,100,110,-10", "nonnegative"),
    "post-exceeds-attempted": ("0,0,0.0,100,150,100,50", "exceed attempted"),
    "counts-sum-mismatch": ("0,0,0.0,100,100,60,50", "counts_A + counts_B = 110 != shots_postselected = 100"),
    "index-out-of-range": ("16,0,0.0,100,100,60,40", "indices out of range for an n=16 grid"),
    "theta-off-grid": ("0,0,1.0,100,100,60,40", "theta_rad must be 0 or pi/2"),
    "theta-nan": ("0,0,nan,100,100,60,40", "theta_rad must be 0 or pi/2"),
    "digit-separator": ("1_0,0,0.0,100,100,60,40", "delta_index = '1_0' holds a digit separator"),
    "non-ascii-digit": ("0,0,0.0,\u0661\u0660\u0660,100,60,40", "non-ASCII character"),
    "counts-A-digit-separator": ("0,0,0.0,100,100,6_0,40", "counts_A = '6_0' holds a digit separator"),
    "theta-digit-separator": ("0,0,0_0.0,100,100,60,40", "theta_rad = '0_0.0' holds a digit separator"),
    # loadtxt drops a bytes field's trailing NULs, and cuts a field at its width.
    "theta-trailing-nul": ("0,0,0.0\0,100,100,60,40", "could not convert string to float: '0.0\\x00'"),
    "theta-nul-then-more": (
        "0,0,1.5707963267948966\0x,100,100,60,40", "could not convert string to float: '1.5707963267948966\\x00x'"
    ),
    "theta-19-characters": ("0,0,1.57079632679489660,100,100,60,50", "counts_A + counts_B = 110 != shots_postselected = 100"),
    "theta-19-characters-unparsable": (
        "0,0,1.5707963267948966e,100,100,60,40", "could not convert string to float: '1.5707963267948966e'"
    ),
    "count-int64-overflow": (
        "0,0,0.0,100,100,99999999999999999999,40", "counts_A + counts_B = 1e+20 != shots_postselected = 100"
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_row_names_its_line(tmp_path, case):
    bad_line, reason = MALFORMED_ROWS[case]
    path = _bad_csv(tmp_path, bad_line)
    with pytest.raises(DataFormatError) as excinfo:
        read_records(path, GRID)
    assert str(excinfo.value).startswith(f"{path}:9: ")
    assert reason in str(excinfo.value)


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_row_gives_the_float_parses_message(tmp_path, monkeypatch, case):
    path = _bad_csv(tmp_path, MALFORMED_ROWS[case][0])
    assert _read_outcome(path, GRID) == _float_parse_outcome(path, GRID, monkeypatch)


@pytest.mark.parametrize(
    "attempted, post, a, b, reason",
    [
        # int64 arithmetic would wrap to a match: -2**63 - 0 has absolute
        # value -2**63, and (2**63 - 1) * 2 wraps to -2.
        (100, -(2**63), 0, 0, f"counts_A + counts_B = 0 != shots_postselected = {-(2**63)}"),
        (100, -2, 2**63 - 1, 2**63 - 1, f"counts_A + counts_B = {2**64 - 2} != shots_postselected = -2"),
        # In float64, 2**53 + 1 rounds to 2**53 and would pass as attempted.
        (2**53, 2**53 + 1, 2**53 + 1, 0, f"post-selected shots ({2**53 + 1}) exceed attempted ({2**53})"),
    ],
    ids=["post-min-int64", "counts-sum-past-int64", "post-past-2-53-exceeds-attempted"],
)
def test_counts_that_int64_checks_exactly_are_rejected(tmp_path, attempted, post, a, b, reason):
    path = _bad_csv(tmp_path, f"0,0,0.0,{attempted},{post},{a},{b}")
    with pytest.raises(DataFormatError, match=rf"^{re.escape(str(path))}:9: {re.escape(reason)}$"):
        read_records(path, GRID)
    with pytest.raises(ValueError, match=rf"^row 0: {re.escape(reason)}$"):
        _one_row(0, 0, 0, 0.0, attempted, post, a, b)


def test_counts_near_int64_that_are_close_stay_valid():
    # 2**62 + 2**62 = 2**63 is 1 from 2**63 - 1, within the relative tolerance.
    assert _one_row(0, 0, 0, 0.0, 2**63 - 1, 2**63 - 1, 2**62, 2**62).counts_a.tolist() == [2**62]


# Other spellings of the values `write_records` writes, by field: thetas by
# slot (each within THETA_TOL of its phase), counts by their integer text.
THETA_SPELLINGS = (("0.0", " 0.0", "0.00", "0e0"), ("1.5707963267948966", "1.57079632679", "1.57079632679489660"))
COUNT_SPELLINGS = ("{}", "{}.0", "+{}", " {}")


def _respelled(lines, draw):
    """Record lines with a theta or an integer count of one row in four spelled
    at random, blank and whitespace-only lines inserted and, at times, one
    malformed row."""
    out = [lines[0]]
    for line in lines[1:]:
        out += draw(st.lists(st.sampled_from(["", "   ", "\t"]), max_size=1))
        fields = line.split(",")
        if draw(st.integers(0, 3)) == 0:
            i = draw(st.sampled_from([2, 4, 5, 6]))
            if i == 2:
                fields[2] = draw(st.sampled_from(THETA_SPELLINGS[fields[2] != "0.0"]))
            elif fields[i].isdigit():
                fields[i] = draw(st.sampled_from(COUNT_SPELLINGS)).format(fields[i])
        out.append(",".join(fields))
    if draw(st.integers(0, 3)) == 0:
        out.insert(draw(st.integers(1, len(out))), MALFORMED_ROWS[draw(st.sampled_from(sorted(MALFORMED_ROWS)))][0])
    return out


def _columns(outcome):
    """A read's outcome as (dtype, bytes) of each column, or its message."""
    if isinstance(outcome, str):
        return outcome
    return [(col.dtype, col.tobytes()) for col in outcome.columns]


@pytest.mark.parametrize("block_rows", [1, 3, 1 << 14])
@PROPERTY
@given(table=st.one_of(tables(integer_counts=True), tables(integer_counts=False)), data=st.data())
def test_read_gives_the_float_parses_outcome_for_any_spelling(tmp_path, block_rows, table, data):
    path = tmp_path / "records.csv"
    write_records(path, table)
    lines = _respelled(path.read_text().splitlines(), data.draw)
    path.write_text("\n".join(lines) + "\n")
    with pytest.MonkeyPatch.context() as m:
        m.setattr(measurement, "_BLOCK_ROWS", block_rows)
        assert _columns(_read_outcome(path, GRID)) == _columns(_float_parse_outcome(path, GRID, m))


def _parse_dtypes(path, monkeypatch, block_rows):
    """The table read from `path` in blocks of `block_rows` lines, and the
    dtype of each block parse tried."""
    dtypes = []
    loadtxt = measurement._loadtxt

    def spy(body, dtype):
        dtypes.append(dtype)
        return loadtxt(body, dtype)

    with monkeypatch.context() as m:
        m.setattr(measurement, "_loadtxt", spy)
        m.setattr(measurement, "_BLOCK_ROWS", block_rows)
        return read_records(path, GRID), dtypes


@pytest.mark.parametrize("block_rows", [3, 1 << 14])
def test_a_sampled_scan_is_read_as_integer_text_only(tmp_path, monkeypatch, block_rows):
    table = _scan()
    path = tmp_path / "records.csv"
    write_records(path, table)
    back, dtypes = _parse_dtypes(path, monkeypatch, block_rows)
    assert back == table
    assert len(dtypes) == -(-(len(table) + 1) // block_rows)
    assert measurement._CSV_DTYPE not in dtypes


@pytest.mark.parametrize("block_rows", [3, 1 << 14])
def test_an_exact_scan_fails_integer_text_at_most_once(tmp_path, monkeypatch, block_rows):
    # In 3-line blocks the first holds the calibration pair, whose exact
    # counts (380 and 20, 200 and 200) are whole: it reads as integer text.
    table = _scan(exact=True)
    path = tmp_path / "records.csv"
    write_records(path, table)
    back, dtypes = _parse_dtypes(path, monkeypatch, block_rows)
    assert back == table and back.counts_a.dtype == np.float64
    tried = dtypes.count(measurement._INTEGER_CSV_DTYPE)
    assert dtypes == [measurement._INTEGER_CSV_DTYPE] * tried + [measurement._CSV_DTYPE] * (len(dtypes) - tried)
    assert len(dtypes) == -(-(len(table) + 1) // block_rows) + 1  # one block parsed twice


def _loadtxt_parsing_integers_via_floats(loadtxt):
    """`_loadtxt` as numpy releases that deprecate parsing an integer via a
    float run it: such a field is truncated, with a DeprecationWarning."""

    def parse(body, dtype):
        if dtype != measurement._INTEGER_CSV_DTYPE:
            return loadtxt(body, dtype)
        data = loadtxt(body, [(name, np.float64 if dtype[name].kind == "i" else dtype[name]) for name in dtype.names])
        if any((data[name] != np.trunc(data[name])).any() for name in dtype.names if dtype[name].kind == "i"):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return data.astype(dtype)

    return parse


@pytest.mark.parametrize("action", ["ignore", "once"])
def test_an_integer_parsed_via_a_float_fails_integer_text(tmp_path, monkeypatch, action):
    table = _scan(exact=True)
    path = tmp_path / "records.csv"
    write_records(path, table)
    monkeypatch.setattr(measurement, "_loadtxt", _loadtxt_parsing_integers_via_floats(measurement._loadtxt))
    with warnings.catch_warnings():
        warnings.simplefilter(action)  # as library callers and the CLI see warnings
        back = read_records(path, GRID)
    assert back == table and back.counts_a.dtype == np.float64


def test_first_bad_line_wins(tmp_path):
    path = _bad_csv(tmp_path, "0,0,0.0,100,100,60,50", lineno=5)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:7] + ["99,0,0.0,100,100,60,40"] + text[7:]) + "\n")
    with pytest.raises(DataFormatError, match=r":5: counts_A"):
        read_records(path, GRID)


# ---------------------------------------------------------------------------
# CSV blocks: every result and message as if the file were one block
# ---------------------------------------------------------------------------

def _read_outcome(path, grid):
    try:
        return read_records(path, grid)
    except DataFormatError as exc:
        return str(exc)


def _float_parse_outcome(path, grid, monkeypatch):
    """`_read_outcome` with every block parsed as floats, as the oracle does."""
    with monkeypatch.context() as m:
        m.setattr(measurement, "_parse_block", parse_block_as_floats)
        return _read_outcome(path, grid)


def _read_in_blocks(path, monkeypatch, grid=GRID):
    """The read of `path` in one block, once it equals the read in 3-line blocks."""
    whole = _read_outcome(path, grid)
    with monkeypatch.context() as m:
        m.setattr(measurement, "_BLOCK_ROWS", 3)
        blocks = _read_outcome(path, grid)
    assert type(blocks) is type(whole)
    assert blocks == whole
    if isinstance(whole, ScanTable):
        assert [col.dtype for col in blocks.columns] == [col.dtype for col in whole.columns]
    return whole


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_written_blocks_do_not_change_bytes(tmp_path, monkeypatch, exact):
    table = _scan(exact=exact)
    assert len(table) % 3 == 1  # the last block is a part block
    one, blocks = tmp_path / "one.csv", tmp_path / "blocks.csv"
    write_records(one, table)
    with monkeypatch.context() as m:
        m.setattr(measurement, "_BLOCK_ROWS", 3)
        write_records(blocks, table)
    assert blocks.read_bytes() == one.read_bytes()
    assert read_records(blocks, GRID) == table


# Indices may take every width an int64 does; the grid is never sampled.
WIDE_GRID = make_grid(0.0, 16.0, 2**63 - 1)


def _up_to(top):
    """Integers in [0, top], each digit count up to top's equally likely."""
    return st.integers(1, len(str(top))).flatmap(
        lambda digits: st.integers(10 ** (digits - 1) if digits > 1 else 0, min(10**digits - 1, top))
    )


@st.composite
def integer_tables(draw):
    """Valid tables with int64 counts: zeros and 1- to 19-digit values in
    every column, both theta slots, the empty table among them."""
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        attempted = draw(_up_to(2**63 - 1))
        post = draw(_up_to(attempted))
        counts_a = draw(_up_to(post))
        index = _up_to(WIDE_GRID.n - 1)
        rows.append((draw(index), draw(index), draw(st.integers(0, 1)), attempted, post, counts_a, post - counts_a))
    delta, tau_index, slot, attempted, post, counts_a, counts_b = (
        np.array(col, dtype=np.int64) for col in (zip(*rows) if rows else [()] * 7)
    )
    return ScanTable(delta, tau_index, slot, tau_index * WIDE_GRID.d_tau, attempted, post, counts_a, counts_b)


@pytest.mark.parametrize("block_rows", [1, 3, 1 << 14])
@PROPERTY
@given(table=integer_tables())
# Past 2**53, where float64 counts would round: 2**53 + 1 reads as 2**53.
@example(table=_one_row(0, 0, 0, 0.0, 2**53 + 3, 2**53 + 3, 2**53 + 1, 2))
def test_integer_writer_matches_one_f_string_per_row(tmp_path, block_rows, table):
    path = tmp_path / "records.csv"
    with pytest.MonkeyPatch.context() as m:
        m.setattr(measurement, "_BLOCK_ROWS", block_rows)
        m.setattr(measurement, "_formatted_lines", None)  # the integer path must not need it
        write_records(path, table)
    assert path.read_bytes() == records_csv_by_rows(table)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(measurement, "_BLOCK_ROWS", block_rows)
        back = read_records(path, WIDE_GRID)
    # Equality casts across dtypes, so the dtypes are compared too.
    assert back == table
    assert [col.dtype for col in back.columns] == [col.dtype for col in table.columns]


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_written_bytes_match_one_f_string_per_row(tmp_path, exact):
    table = _scan(exact=exact)
    path = tmp_path / "records.csv"
    write_records(path, table)
    assert path.read_bytes() == records_csv_by_rows(table)


@pytest.mark.parametrize("lineno", [9, 10])
@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_row_in_a_later_block_names_its_file_line(tmp_path, monkeypatch, case, lineno):
    # Blocks are lines 1-3, 4-6, 7-9 and 10-12; line 4 is blank.
    bad_line, reason = MALFORMED_ROWS[case]
    path = _bad_csv(tmp_path, bad_line, lineno=lineno)
    message = _read_in_blocks(path, monkeypatch)
    assert message.startswith(f"{path}:{lineno}: ")
    assert reason in message


def _csv_text(table, newline="\n", blank=(), final_newline=True):
    """The CSV of a sampled `table`, with blank lines at the line numbers `blank`."""
    lines = [RECORD_HEADER] + [
        f"{d},{k},{THETAS[slot]!r},{n},{p},{a},{b}"
        for d, k, slot, _, n, p, a, b in zip(*(col.tolist() for col in table.columns))
    ]
    for lineno in sorted(blank):
        lines.insert(lineno - 1, "")
    return newline.join(lines) + (newline if final_newline else "")


TABLE = _scan(max_delta_index=0)


@pytest.mark.parametrize(
    "layout",
    [
        dict(blank=(3, 4)),  # the last line of block 1 and the first of block 2
        dict(blank=(4, 5, 6)),  # all of block 2
        dict(blank=(7, 8, 9, 10, 11, 12, 40)),
        dict(newline="\r\n"),
        dict(newline="\r\n", blank=(3, 4), final_newline=False),
        dict(final_newline=False),
    ],
    ids=["edge-blanks", "blank-block", "blank-blocks", "crlf", "crlf-blanks-no-final-newline", "no-final-newline"],
)
def test_blocks_keep_line_boundaries(tmp_path, monkeypatch, layout):
    path = tmp_path / "records.csv"
    path.write_bytes(_csv_text(TABLE, **layout).encode())
    assert _read_in_blocks(path, monkeypatch) == TABLE


def test_blocks_keep_line_numbers_after_blank_lines_and_crlf(tmp_path, monkeypatch):
    text = _csv_text(TABLE, newline="\r\n", blank=(3, 4, 8)).splitlines()
    text[20] = "0,0,0.0,100,100,60,50"  # line 21, after three blank lines
    path = tmp_path / "records.csv"
    path.write_bytes("\r\n".join(text).encode())
    message = _read_in_blocks(path, monkeypatch)
    assert message.startswith(f"{path}:21: counts_A + counts_B")


@pytest.mark.parametrize("text", [RECORD_HEADER, RECORD_HEADER + "\n", RECORD_HEADER + "\n\n\n\n"])
def test_header_only_file_is_an_empty_table(tmp_path, monkeypatch, text):
    path = tmp_path / "records.csv"
    path.write_text(text)
    table = _read_in_blocks(path, monkeypatch)
    assert len(table) == 0
    assert all(col.dtype == np.int64 for col in (table.counts_a, table.shots_postselected))


@pytest.mark.parametrize("text", ["", "\n" + RECORD_HEADER + "\n", "delta_index\n"])
def test_missing_header_in_blocks(tmp_path, monkeypatch, text):
    path = tmp_path / "records.csv"
    path.write_text(text)
    assert _read_in_blocks(path, monkeypatch) == f"{path}: expected header {RECORD_HEADER!r}"


def test_count_column_is_float_if_any_block_holds_a_fraction(tmp_path, monkeypatch):
    lines = _csv_text(TABLE).splitlines()
    lines[20] = "0,9,1.5707963267948966,100,100,99.5,0.5"  # block 7; blocks 1-6 are whole
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    table = _read_in_blocks(path, monkeypatch)
    assert table.counts_a.dtype == table.counts_b.dtype == np.float64
    assert table.shots_postselected.dtype == np.int64
    assert table.counts_a[19] == 99.5 and table.counts_a[0] == TABLE.counts_a[0]


def test_blocks_span_text_reads(tmp_path, monkeypatch):
    # Over 64 Ki characters: several text reads, each split at its last newline.
    grid = make_grid(0.0, 16.0, 64)
    table = _scan(grid=grid, max_delta_index=63)
    path = tmp_path / "records.csv"
    path.write_bytes(_csv_text(table, newline="\r\n", blank=range(2, 3000, 7)).encode())
    assert path.stat().st_size > 3 * 2**16
    assert _read_in_blocks(path, monkeypatch, grid) == table


# ---------------------------------------------------------------------------
# Record checks a strip at a time, and the read's column sizing
# ---------------------------------------------------------------------------

STRIP = 4  # rows per check strip, and lines per CSV block, in these tests

# Ways to break a row (delta, tau, slot, attempted, post, a, b), each by one
# check; "out-of-range" breaks only a read, whose grid is GRID. A row broken
# twice, in one way or two, stays broken.
BREAKS = {
    "delta-negative": lambda r: r.update(delta=-1 - abs(r["delta"])),
    "tau-negative": lambda r: r.update(tau=-1 - abs(r["tau"])),
    "phase": lambda r: r.update(slot=2),  # a table's slot 2, a file's theta 0.5
    "negative-count": lambda r: r.update(a=r["post"] + 1, b=-1),
    "post-exceeds-attempted": lambda r: r.update(attempted=r["post"] - 1),
    "sum": lambda r: r.update(b=r["b"] + 1),
    "out-of-range": lambda r: r.update(delta=GRID.n + abs(r["delta"])),
}


@st.composite
def _valid_rows(draw, size):
    rows = []
    for _ in range(size):
        attempted = draw(st.integers(1, 10**6))
        post = draw(st.integers(1, attempted))
        a = draw(st.integers(0, post))
        delta, tau = draw(st.integers(0, GRID.n - 1)), draw(st.integers(0, GRID.n - 1))
        rows.append(dict(delta=delta, tau=tau, slot=draw(st.integers(0, 1)), attempted=attempted, post=post, a=a, b=post - a))
    return rows


def _table_outcome(cols):
    try:
        ScanTable(*(cols[name] for name in measurement._COLUMNS))
    except ValueError as exc:
        return str(exc)
    return None


def _check_strips_against_the_oracle(tmp_path, rows, breaks, real_counts):
    """Break `rows` as `breaks` (row, kind) says, then compare the table
    constructor's and the read's first bad row and message with the whole-table
    oracles, in strips and blocks of STRIP rows."""
    rows = [dict(row) for row in rows]
    for row, kind in breaks:
        BREAKS[kind](rows[row])
    names = ("delta", "tau", "slot", "tau", "attempted", "post", "a", "b")
    cols = {
        name: measurement._column(name, [row[key] * (GRID.d_tau if name == "tau" else 1) for row in rows])
        for name, key in zip(measurement._COLUMNS, names)
    }
    expected = first_invalid_whole_table(cols)
    theta = {0: repr(THETAS[0]), 1: repr(THETAS[1])}
    count = "{}.0".format if real_counts else "{}".format
    path = tmp_path / "records.csv"
    path.write_text(RECORD_HEADER + "\n" + "".join(
        f"{r['delta']},{r['tau']},{theta.get(r['slot'], '0.5')},{r['attempted']},"
        f"{count(r['post'])},{count(r['a'])},{count(r['b'])}\n"
        for r in rows
    ))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(measurement, "_BLOCK_ROWS", STRIP)
        assert _table_outcome(cols) == (None if expected is None else f"row {expected[0]}: {expected[1]}")
        read = _read_outcome(path, GRID)
        try:
            oracle = read_records_by_concatenation(path, GRID)
        except DataFormatError as exc:
            oracle = str(exc)
    assert _columns(read) == _columns(oracle)
    assert isinstance(read, str)  # every break breaks a read
    return expected, read


@st.composite
def broken_tables(draw):
    """Valid rows filling one to three strips, and one to three (row, kind)
    breaks, rows either side of a strip boundary drawn as often as any."""
    size = draw(st.integers(1, 3 * STRIP))
    edges = [row for start in range(STRIP, size, STRIP) for row in (start - 1, start)]
    row = st.integers(0, size - 1)
    if edges:
        row = st.one_of(row, st.sampled_from(edges))
    breaks = draw(st.lists(st.tuples(row, st.sampled_from(sorted(BREAKS))), min_size=1, max_size=3))
    return draw(_valid_rows(size)), breaks, draw(st.booleans())


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=broken_tables())
def test_strip_checks_name_the_whole_table_checks_first_bad_row(tmp_path, case):
    _check_strips_against_the_oracle(tmp_path, *case)


_ROWS = [
    dict(delta=d, tau=k, slot=k % 2, attempted=1000 + k, post=900 + k, a=400 + d, b=500 + k - d)
    for d, k in zip([0, 3, 5, 15] * 3, range(12))
]


@pytest.mark.parametrize("kind", sorted(BREAKS))
@pytest.mark.parametrize("row", [STRIP - 1, STRIP, 2 * STRIP - 1, 2 * STRIP])
def test_strip_checks_at_a_strip_boundary(tmp_path, kind, row):
    expected, read = _check_strips_against_the_oracle(tmp_path, _ROWS, [(row, kind)], False)
    assert read == f"{tmp_path / 'records.csv'}:{row + 2}: " + read.split(": ", 1)[1]
    if kind != "out-of-range":
        assert expected[0] == row


@pytest.mark.parametrize("kind", sorted(BREAKS))
def test_strip_checks_with_bad_rows_in_two_strips(tmp_path, kind):
    later = sorted(BREAKS)[(sorted(BREAKS).index(kind) + 1) % len(BREAKS)]
    for breaks in ([(STRIP + 1, kind), (2 * STRIP + 2, later)], [(2 * STRIP + 2, later), (STRIP + 1, kind)]):
        _, read = _check_strips_against_the_oracle(tmp_path, _ROWS, breaks, False)
        assert read.startswith(f"{tmp_path / 'records.csv'}:{STRIP + 3}: ")


@pytest.mark.parametrize("first", sorted(BREAKS))
@pytest.mark.parametrize("second", sorted(BREAKS))
def test_strip_checks_of_a_row_failing_two_checks(tmp_path, first, second):
    if first != second:
        _check_strips_against_the_oracle(tmp_path, _ROWS, [(STRIP + 2, first), (STRIP + 2, second)], True)


def _capacity_calls(monkeypatch):
    """Each (needed, capacity, size, result) that `_capacity` is called with."""
    calls = []
    capacity = measurement._capacity

    def spy(needed, current, lines, chars, size):
        calls.append((needed, current, size, capacity(needed, current, lines, chars, size)))
        return calls[-1][-1]

    monkeypatch.setattr(measurement, "_capacity", spy)
    return calls


def _line(d, k, slot, attempted, post, a):
    return f"{d},{k},{THETAS[slot]!r},{attempted},{post},{a},{post - a}"


_SHORT = [_line(0, k % 16, k % 2, 9, 9, k % 10) for k in range(40)]
_LONG = [_line(15, k, k % 2, 10**18 + k, 10**18, 4 * 10**17 + k) for k in range(8)]
_BIG = 2**53 + 1

# Record texts, each with what its columns' sizing must have done.
SIZING = {
    # The first block's lines are longer than the rest: the file's size over
    # them falls short of its rows, so the columns grow.
    "long-lines-first": (_LONG + _SHORT, "grown"),
    # Shorter first: the estimate holds every row and the rest is cut off.
    "short-lines-first": (_SHORT + _LONG, "cut"),
    "blank-and-trailing-blank-lines": (_SHORT[:9] + ["", ""] + _SHORT[9:30] + [""] * 9, "cut"),
    # Integer text up to a count of 2**53 + 1, then a fraction: every count
    # column turns float64 as np.concatenate rounds it, 2**53 + 1 to 2**53.
    "integer-blocks-then-a-float-block": (
        [_line(0, k, 0, _BIG, _BIG, _BIG - k) for k in range(7)] + ["0,7,0.0,10,10,9.5,0.5"] + _SHORT[:6], "grown",
    ),
    "header-only": ([], None),
}


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("case", sorted(SIZING))
def test_read_sizes_its_columns_as_the_concatenating_read_joins_them(tmp_path, monkeypatch, case, source):
    lines, sized = SIZING[case]
    data = (RECORD_HEADER + "\n" + "".join(line + "\n" for line in lines)).encode()
    path = tmp_path / "records.csv"
    path.write_bytes(data)
    monkeypatch.setattr(measurement, "_BLOCK_ROWS", STRIP)
    expected = read_records_by_concatenation(path, GRID)
    calls = _capacity_calls(monkeypatch)
    if source == "pipe":
        with piped(tmp_path / "pipe.csv", data) as pipe:
            table = read_records(pipe, GRID)
    else:
        table = read_records(path, GRID)
    assert _columns(table) == _columns(expected)
    assert len(table) == sum(1 for line in lines if line)
    if sized is None:
        assert calls == [] and all(col.dtype.kind in "if" for col in table.columns)
        return
    sizes = {size for *_, size, _ in calls}
    assert sizes == ({None} if source == "pipe" else {len(data) - len(RECORD_HEADER) - 1})  # the text after the header
    if source == "pipe":  # no size: the columns hold the first block, then grow
        assert calls[0][-1] == calls[0][0] == STRIP - 1 and len(calls) > 1
    elif sized == "grown":
        assert len(calls) > 1 and calls[0][-1] < len(table)
    else:  # sized once, past the rows: cut at the end
        assert len(calls) == 1 and calls[0][-1] > len(table)
    if "float" in case:
        assert table.counts_a.dtype == np.float64 and table.counts_a[0] == 2.0**53


def test_a_pipes_columns_grow_by_a_quarter_at_least(tmp_path, monkeypatch):
    table = _scan(max_delta_index=15)  # 514 rows, in 129 blocks of 4 lines
    path = tmp_path / "records.csv"
    write_records(path, table)
    monkeypatch.setattr(measurement, "_BLOCK_ROWS", STRIP)
    calls = _capacity_calls(monkeypatch)
    with piped(tmp_path / "pipe.csv", path.read_bytes()) as pipe:
        assert read_records(pipe, GRID) == table
    assert all(result >= current + current // 4 for _, current, _, result in calls)
    assert len(calls) < 25


def _reconstruct_exit(tmp_path, edit, capsys):
    state = tmp_path / "state.json"
    csv = tmp_path / "records.csv"
    assert main(["gen-state", "gaussian", "--n", "16", "--out", str(state)]) == 0
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    lines = csv.read_text().splitlines()
    csv.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    code = main(["reconstruct", str(csv), "--truth", str(state), "--out", str(tmp_path / "rho.json")])
    return code, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_reconstruct_rejects_off_grid_theta_rows(tmp_path, capsys):
    # 48 extra rows at theta = 1.0 used to be dropped without a word.
    extra = [f"1,{k},1.0,1000,1000,500,500" for k in range(16) for _ in range(3)]
    code, err = _reconstruct_exit(tmp_path, lambda lines: lines[:20] + extra + lines[20:], capsys)
    assert code == 3
    assert ":21: theta_rad must be 0 or pi/2 (the two tomography phases), got 1.0" in err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_reconstruct_rejects_a_nan_theta_row(tmp_path, capsys):
    def nan_theta(lines):
        d, k, _, *rest = lines[30].split(",")
        return lines[:30] + [",".join([d, k, "nan", *rest])] + lines[31:]

    code, err = _reconstruct_exit(tmp_path, nan_theta, capsys)
    assert code == 3
    assert ":31: theta_rad must be 0 or pi/2 (the two tomography phases), got nan" in err


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def _split_rows(table, rng):
    """Each row as two rows whose shots and counts sum to it."""
    cols = [np.asarray(c) for c in table.columns]
    attempted, post, counts_a = cols[4], cols[5], cols[6]
    post_1 = rng.integers(0, post + 1)
    attempted_1 = post_1 + rng.integers(0, attempted - post + 1)
    a_1 = np.minimum(rng.integers(0, counts_a + 1), post_1)
    a_1 = np.maximum(a_1, counts_a - (post - post_1))
    first = cols[:4] + [attempted_1, post_1, a_1, post_1 - a_1]
    second = cols[:4] + [
        attempted - attempted_1, post - post_1, counts_a - a_1, (post - post_1) - (counts_a - a_1)
    ]
    return ScanTable(*(np.concatenate(pair) for pair in zip(first, second)))


@PROPERTY
@given(seed=st.integers(0, 2**32 - 1))
def test_pooling_invariant_under_permutation_and_splitting(seed):
    rng = np.random.default_rng(seed)
    table = _scan(grid=make_grid(0.0, 16.0, 8), max_delta_index=7, shots=2000, seed=seed % 1000)
    split = _split_rows(table, rng)
    shuffled = split[rng.permutation(len(split))]
    pooled = pool_records(table)
    assert pool_records(shuffled) == pooled
    assert len(pooled) == len(table) - 2  # the calibration pair joins the (0, 0) cells
    grid = make_grid(0.0, 16.0, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        reference = reconstruct_records(table, grid).rho_hat.rho
        assert reconstruct_records(shuffled, grid).rho_hat.rho.tobytes() == reference.tobytes()


def test_pooling_sums_float_counts_in_row_order():
    rows = [
        MeasurementRecord(MeasurementSetting(0.0, 0, 0.0), 0, 1, 1, a, 1 - a)
        for a in (0.1, 0.2, 0.3, 1e-17)
    ]
    pooled = pool_records(rows[::-1] + [rows[0]])
    assert len(pooled) == 1
    assert pooled.counts_a[0] == (((1e-17 + 0.3) + 0.2) + 0.1) + 0.1


def _assert_same_bytes(pooled, reference):
    for got, want in zip(pooled.columns, reference.columns):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


_FLOAT_COUNTS = st.sampled_from([0.0, -0.0, 1e-17, 0.1, 0.2, 0.3, 2.5, 1e6 / 3])


@st.composite
def tail_first_layouts(draw):
    """The layout `simulate_counts` writes, at random: a strictly ascending
    tail of distinct cells after leading rows that each repeat a distinct tail
    cell, in any order, with the tail row's tau."""
    cells = sorted(draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(0, 1)), min_size=1, max_size=30, unique=True
    )))
    lead = draw(st.lists(st.integers(0, len(cells) - 1), min_size=1, max_size=len(cells), unique=True))
    delta, tau_index, slot = (np.array(c, dtype=np.int64) for c in zip(*([cells[i] for i in lead] + cells)))
    rows = len(delta)
    if draw(st.booleans()):
        counts_a = np.array(draw(st.lists(st.integers(0, 10**6), min_size=rows, max_size=rows)))
        counts_b = np.array(draw(st.lists(st.integers(0, 10**6), min_size=rows, max_size=rows)))
    else:
        counts_a = np.array(draw(st.lists(_FLOAT_COUNTS, min_size=rows, max_size=rows)))
        counts_b = np.array(draw(st.lists(_FLOAT_COUNTS, min_size=rows, max_size=rows)))
    post = counts_a + counts_b
    spare = np.array(draw(st.lists(st.integers(0, 9), min_size=rows, max_size=rows)))
    attempted = np.ceil(post).astype(np.int64) + spare
    return ScanTable(delta, tau_index, slot, tau_index * GRID.d_tau, attempted, post, counts_a, counts_b)


@PROPERTY
@given(table=tail_first_layouts())
def test_pooling_a_tail_first_layout_views_its_cells(table):
    pooled = pool_records(table)
    _assert_same_bytes(pooled, pool_by_unique(table))
    for name in ("delta_index", "tau_index", "theta_slot", "tau"):
        assert np.shares_memory(getattr(pooled, name), getattr(table, name)), name
    for name in ("shots_attempted", "shots_postselected", "counts_a", "counts_b"):
        assert not np.shares_memory(getattr(pooled, name), getattr(table, name)), name


def _with_column(table, name, values):
    columns = dict(zip(measurement._COLUMNS, table.columns))
    columns[name] = values
    return ScanTable(**columns)


def _fallback_layouts():
    table = _scan()  # the calibration pair (0, 0, 0), (0, 0, 1), then every cell in order
    tau = np.array(table.tau)
    tau[0] = -0.0  # equal to the tail's 0.0, with other bits
    shifted = np.array(table.tau)
    shifted[1] = 0.5
    cells = table[2:]  # one row per cell
    moved = int(np.flatnonzero((cells.delta_index == 1) & (cells.tau_index == 3) & (cells.theta_slot == 0))[0])
    return {
        "three-row cell": table[np.r_[0, 0:len(table)]],
        "tau sign": _with_column(table, "tau", tau),
        "tau value": _with_column(table, "tau", shifted),
        # the tail cell after it, (1, 3, 1), has its tau
        "leading cell absent from the tail": cells[np.r_[moved, 0:moved, moved + 1:len(cells)]],
        "shuffled": table[np.random.default_rng(3).permutation(len(table))],
    }


@pytest.mark.parametrize(
    "case", ["three-row cell", "tau sign", "tau value", "leading cell absent from the tail", "shuffled"]
)
def test_pooling_other_layouts_copies_every_column(case):
    table = _fallback_layouts()[case]
    pooled = pool_records(table)
    _assert_same_bytes(pooled, pool_by_unique(table))
    for got, col in zip(pooled.columns, table.columns):
        assert not np.shares_memory(got, col)


def _pooling_spy(monkeypatch):
    """The names of `np.unique` and `np.bincount` in the order they are called."""
    calls = []
    for name in ("unique", "bincount"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _real=real, _name=name, **kw: calls.append(_name) or _real(*a, **kw))
    return calls


@st.composite
def shuffled_passes(draw):
    """Cells each measured in 1 to 4 passes, the rows shuffled: int64 or
    float64 counts (`-0.0` among them), keys dense or sparse."""
    cells = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(0, 1)), min_size=1, max_size=20, unique=True
    ))
    passes = draw(st.lists(st.integers(1, 4), min_size=len(cells), max_size=len(cells)))
    rows = [cell for cell, times in zip(cells, passes) for _ in range(times)]
    rows = [rows[i] for i in draw(st.permutations(range(len(rows))))]
    delta, tau_index, slot = (np.array(c, dtype=np.int64) for c in zip(*rows))
    size = len(rows)
    if draw(st.booleans()):
        counts_a = np.array(draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size)))
        counts_b = np.array(draw(st.lists(st.integers(0, 10**6), min_size=size, max_size=size)))
    else:
        counts_a = np.array(draw(st.lists(_FLOAT_COUNTS, min_size=size, max_size=size)))
        counts_b = np.array(draw(st.lists(_FLOAT_COUNTS, min_size=size, max_size=size)))
    post = counts_a + counts_b
    spare = np.array(draw(st.lists(st.integers(0, 9), min_size=size, max_size=size)))
    attempted = np.ceil(post).astype(np.int64) + spare
    return ScanTable(delta, tau_index, slot, tau_index * GRID.d_tau, attempted, post, counts_a, counts_b)


@PROPERTY
@given(table=shuffled_passes())
def test_pooling_by_counting_matches_sorting(table):
    expected = pool_by_unique(table)
    key = measurement._cell_keys(table)
    with pytest.MonkeyPatch.context() as m:
        calls = _pooling_spy(m)
        pooled = pool_records(table)
    _assert_same_bytes(pooled, expected)
    if calls:  # neither sorted nor short: the general path ran
        sparse = int(key.max()) + 1 > measurement._COUNTED_KEYS_PER_ROW * len(table)
        assert calls == (["unique"] if sparse else ["bincount"])


@pytest.mark.parametrize("counts", ["int64", "float64"])
def test_pooling_a_shuffled_multipass_scan_counts_its_cells(monkeypatch, counts):
    rng = np.random.default_rng(11)
    if counts == "int64":
        passes = _split_rows(_split_rows(_scan(), rng), rng)
    else:  # real-valued counts do not split into integers: each row twice
        table = _scan(exact=True)
        passes = table[np.r_[0:len(table), 0:len(table)]]
    shuffled = passes[rng.permutation(len(passes))]
    expected = pool_by_unique(shuffled)
    calls = _pooling_spy(monkeypatch)
    _assert_same_bytes(pool_records(shuffled), expected)
    assert calls == ["bincount"]
    assert shuffled.counts_a.dtype == counts


def test_pooling_sparse_keys_sorts_them(monkeypatch):
    # Two far-apart bands of an n=4096 grid, three passes each: some 8M
    # keys for 24 rows, too wide a range to count.
    cells = [(delta, tau, slot) for delta in (0, 1000) for tau in (0, 4095) for slot in (0, 1)]
    rows = cells * 3
    order = np.random.default_rng(2).permutation(len(rows))
    delta, tau_index, slot = (np.array(c, dtype=np.int64)[order] for c in zip(*rows))
    counts_a = np.arange(len(rows)) / 7
    ones = np.ones(len(rows), dtype=np.int64)
    table = ScanTable(delta, tau_index, slot, tau_index * 0.25, 9 * ones, counts_a + 1.5, counts_a, 1.5 * ones)
    expected = pool_by_unique(table)
    calls = _pooling_spy(monkeypatch)
    pooled = pool_records(table)
    _assert_same_bytes(pooled, expected)
    assert calls == ["unique"]
    assert len(pooled) == len(cells)


def test_pooling_rejects_cell_keys_beyond_int64():
    table = ScanTable([0, 0, 2**62], [0, 1, 0], [0, 0, 0], [0.0, 0.1, 0.0], [9] * 3, [8] * 3, [3, 4, 5], [5, 4, 3])
    with pytest.raises(ValueError, match="delta_index 4611686018427387904 and tau_index 1"):
        pool_records(table)
