"""ScanTable: the columnar scan data, its CSV form, pooling and input checks."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from spectomo.cli import main
from spectomo.diagnostics import capture
from spectomo.measurement import RECORD_HEADER, THETAS

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
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_row_names_its_line(tmp_path, case):
    bad_line, reason = MALFORMED_ROWS[case]
    path = _bad_csv(tmp_path, bad_line)
    with pytest.raises(DataFormatError) as excinfo:
        read_records(path, GRID)
    assert str(excinfo.value).startswith(f"{path}:9: ")
    assert reason in str(excinfo.value)


def test_first_bad_line_wins(tmp_path):
    path = _bad_csv(tmp_path, "0,0,0.0,100,100,60,50", lineno=5)
    text = path.read_text().splitlines()
    path.write_text("\n".join(text[:7] + ["99,0,0.0,100,100,60,40"] + text[7:]) + "\n")
    with pytest.raises(DataFormatError, match=r":5: counts_A"):
        read_records(path, GRID)


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
