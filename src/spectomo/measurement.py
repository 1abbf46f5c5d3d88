"""Tomographic scan planning, photon-count simulation, and record persistence.

A setting is one integer cell (delta_index, tau_index, theta_slot), the slot
indexing THETAS = (0, pi/2). A scan visits every cell plus a dedicated
calibration pair at (delta=0, tau=0), in the ordinal order `ScanPlan.cells`
builds: calibration first, then delta ascending, tau ascending, slot
ascending. The calibration pair draws from the RNG stream
SeedSequence(entropy=seed, spawn_key=(0,)) and band delta from spawn_key=(1, delta),
so a band's records depend only on (seed, delta, state), not on which other
bands the scan covers.

Exact-probabilities mode bypasses sampling entirely: every shot is kept and
counts are the real-valued products shots * P_A, which separates
discretization error from shot noise in round-trip checks.

Scan data moves as one `ScanTable`: a column per record field, validated
once on construction. Iterating it yields `MeasurementRecord` rows.

The record CSV is written and parsed in blocks of _BLOCK_ROWS rows, so the
text in memory is one block's and a scan's memory is bounded by its table,
not by the file. A table with integer counts (every sampled scan) is
written by digit arithmetic on its columns, one with real-valued counts by
an f-string per row. Integer text is read back without a float parse;
other text (real-valued counts, other spellings of a phase) is parsed as
floats. Line numbers in read errors count lines of the whole file.
"""

from __future__ import annotations

import bisect
import cmath
import math
import os
import warnings
from dataclasses import dataclass
from itertools import chain, repeat
from stat import S_ISREG

import numpy as np

from .core import FrequencyGrid
from .diagnostics import emit
from .errors import DataFormatError, InsufficientDataError
from .interferometer import (
    InterferometerConfig,
    MeasurementSetting,
    cross_section_transform,
    warn_support_clipping,
)

THETAS = (0.0, math.pi / 2.0)
THETA_TOL = 1e-9  # a row's theta must lie this close to one of THETAS

RECORD_HEADER = "delta_index,tau_index,theta_rad,shots_attempted,shots_postselected,counts_A,counts_B"
P_DELTA_HEADER = "delta_index,tau_index,tau,theta_rad,p_delta,stderr"


@dataclass(frozen=True)
class MeasurementRecord:
    """Shot counts at the two output ports for one interferometer setting.

    Counts are integers from sampling, or real-valued in exact mode. A
    hand-built record is checked when it becomes a table (`ScanTable.from_records`).
    """

    setting: MeasurementSetting
    tau_index: int
    shots_attempted: int
    shots_postselected: float
    counts_a: float
    counts_b: float


def _row(delta_index, tau_index, theta, tau, attempted, post, counts_a, counts_b):
    """A `MeasurementRecord` of one table row; the table already validated it."""
    setting = object.__new__(MeasurementSetting)
    setting.__dict__.update(tau=tau, delta_index=delta_index, theta=theta)
    record = object.__new__(MeasurementRecord)
    record.__dict__.update(
        setting=setting,
        tau_index=tau_index,
        shots_attempted=attempted,
        shots_postselected=post,
        counts_a=counts_a,
        counts_b=counts_b,
    )
    return record


_COLUMNS = (
    "delta_index", "tau_index", "theta_slot", "tau",
    "shots_attempted", "shots_postselected", "counts_a", "counts_b",
)
_INT_COLUMNS = ("delta_index", "tau_index", "theta_slot", "shots_attempted")
_FLOAT_COLUMNS = ("theta", "tau")  # theta: phases as read, before `_theta_slots`
_SUMMED = ("shots_attempted", "shots_postselected", "counts_a", "counts_b")


def _column(name: str, values) -> np.ndarray:
    a = np.asarray(values)
    if a.ndim != 1:
        raise ValueError(f"column {name} must be 1-D, got shape {a.shape}")
    if name in _FLOAT_COLUMNS:
        return a.astype(np.float64)
    if a.dtype.kind in "biu" or (a.size == 0 and name in _INT_COLUMNS):
        return a.astype(np.int64)
    if name in _INT_COLUMNS:
        raise ValueError(f"column {name} must hold integers, got {a.dtype}")
    return a.astype(np.float64)


def _theta_slots(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The `theta_slot` column of phases as read, and the mask of those off
    both THETAS, which `_phase_check` reports."""
    near = [np.abs(theta - phase) <= THETA_TOL for phase in THETAS]
    return near[1].astype(np.int64), ~(near[0] | near[1])


def _phase_check(off, theta_at) -> tuple:
    """The (mask(rows), message(row)) check, for `_first_invalid` in place of
    the theta_slot range check, of the rows off both THETAS: `off(rows)` is
    their mask over the slice `rows`, and `theta_at(row)` the phase read in
    that row."""
    return off, lambda r: f"theta_rad must be 0 or pi/2 (the two tomography phases), got {theta_at(r)!r}"


def _isclose(total: np.ndarray, post: np.ndarray) -> np.ndarray:
    """math.isclose(total, post, rel_tol=1e-9, abs_tol=1e-9), row by row:
    |post - total| <= max(1e-9 * max(|total|, |post|), 1e-9), one bound at a
    time in one float buffer. Scaling by 1e-9 is monotonic, so the booleans
    are those of the formula as written."""
    close = total == post
    if close.all():  # counts that add up exactly, as every sampled row does
        return close
    with np.errstate(invalid="ignore"):  # inf - inf; such rows are not close
        deviation = post - total
        np.abs(deviation, out=deviation)
        close |= deviation <= 1e-9
        bound = np.empty(len(total))
        for x in (total, post):
            np.abs(x, out=bound)
            bound *= 1e-9
            close |= deviation <= bound
    return close


# An int64 count at or beyond this magnitude can wrap `_isclose`'s int64
# sum or difference; below it, neither leaves the int64 range.
_WRAP_FREE = 2**61


def _strip_invalid(cols: dict, checks, phase) -> tuple[int, str] | None:
    """`_first_invalid` of one strip of rows, `cols` the strip's columns and
    each check a (mask, message(row)) pair of the strip's rows."""
    delta, tau_index, slot = cols["delta_index"], cols["tau_index"], cols["theta_slot"]
    attempted, post = cols["shots_attempted"], cols["shots_postselected"]
    a, b = cols["counts_a"], cols["counts_b"]
    close = _isclose(a + b, post)
    if a.dtype.kind == b.dtype.kind == "i":
        wide = np.flatnonzero(
            (a >= _WRAP_FREE) | (a <= -_WRAP_FREE) | (b >= _WRAP_FREE) | (b <= -_WRAP_FREE)
            | (post >= _WRAP_FREE) | (post <= -_WRAP_FREE)
        )
        close[wide] = _isclose(a[wide] + b[wide].astype(np.float64), post[wide].astype(np.float64))

    def value(col, row):
        return col[row].item()

    checks = list(checks) + [
        (delta < 0, lambda r: f"delta_index must be nonnegative, got {value(delta, r)}"),
        (tau_index < 0, lambda r: f"tau_index must be nonnegative, got {value(tau_index, r)}"),
        phase or ((slot < 0) | (slot > 1), lambda r: f"theta_slot must be 0 or 1, got {value(slot, r)}"),
        ((attempted < 0) | (a < 0) | (b < 0), lambda r: "shot and count fields must be nonnegative"),
        (
            # Exact for int64: past 2**53, float64 rounds attempted + 1 to attempted.
            post > attempted if post.dtype.kind == "i" else post > attempted + 1e-9,
            lambda r: f"post-selected shots ({value(post, r)}) exceed attempted ({value(attempted, r)})",
        ),
        (
            ~close,
            lambda r: f"counts_A + counts_B = {value(a, r) + value(b, r)} != "
            f"shots_postselected = {value(post, r)}",
        ),
    ]
    bad = np.zeros(len(delta), dtype=bool)
    for mask, _ in checks:
        bad |= mask
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    return row, next(message(row) for mask, message in checks if mask[row])


def _first_invalid(cols: dict, checks=(), phase=None) -> tuple[int, str] | None:
    """First row breaking a record invariant, and the reason.

    `checks` are extra (mask(rows), message(row)) pairs tried before the
    record invariants, in order, for each row: `mask(rows)` gives the bad
    rows of the slice `rows` of the table. `phase`, such a pair too,
    replaces the theta_slot range check (see `_phase_check`). Where both
    counts are int64, a row holding a count of 2**61 or more in magnitude
    has its sum checked again in float64, as math.isclose converts it,
    since int64 arithmetic would wrap; int64 post-selected shots are
    compared with attempted exactly.

    Rows are checked one strip of _BLOCK_ROWS at a time, so every mask and
    sum is a strip's: the first strip holding a bad row holds the table's
    first bad row, and a message names a value as the whole table holds it.
    """
    total = len(cols["delta_index"])
    for start in range(0, total, _BLOCK_ROWS):
        rows = slice(start, min(start + _BLOCK_ROWS, total))

        def in_strip(check):
            mask, message = check
            return mask(rows), lambda r: message(start + r)

        bad = _strip_invalid(
            {name: col[rows] for name, col in cols.items()}, map(in_strip, checks), phase and in_strip(phase)
        )
        if bad is not None:
            return start + bad[0], bad[1]
    return None


def _checked(cols: dict, phase=None) -> list[np.ndarray]:
    """The columns of `cols` in table order, once every row passes the checks."""
    if len({len(col) for col in cols.values()}) > 1:
        raise ValueError("ScanTable columns must have equal lengths")
    bad = _first_invalid(cols, phase=phase)
    if bad is not None:
        raise ValueError(f"row {bad[0]}: {bad[1]}")
    return [cols[name] for name in _COLUMNS]


class ScanTable:
    """Scan data as a struct of arrays: one row per measured setting.

    Stored columns, all 1-D and read-only: `delta_index`, `tau_index`,
    `theta_slot` (0 or 1, the index into THETAS), `tau` (s),
    `shots_attempted`, `shots_postselected`, `counts_a`, `counts_b`. Index,
    slot and attempted-shot columns are int64; the other count columns are
    int64 from sampling and float64 from exact mode. `theta` (rad) is
    derived as THETAS[theta_slot]. Construction checks every row against the
    record invariants at once (the only place they are checked) and names the
    first bad row.

    `len()` counts rows; iterating yields `MeasurementRecord` rows; an index
    (slice, mask, index array) selects a sub-table. Tables compare equal
    column by column.
    """

    __slots__ = _COLUMNS

    def __init__(
        self, delta_index, tau_index, theta_slot, tau,
        shots_attempted, shots_postselected, counts_a, counts_b,
    ):
        given = (delta_index, tau_index, theta_slot, tau, shots_attempted, shots_postselected, counts_a, counts_b)
        self._set(_checked({name: _column(name, values) for name, values in zip(_COLUMNS, given)}))

    def _set(self, columns) -> None:
        for name, col in zip(_COLUMNS, columns):
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @classmethod
    def _trusted(cls, columns) -> "ScanTable":
        """Table of columns that are already validated (no copy, no checks)."""
        table = object.__new__(cls)
        table._set(columns)
        return table

    @classmethod
    def from_records(cls, records) -> "ScanTable":
        """Table of `MeasurementRecord` rows, each theta within THETA_TOL of THETAS."""
        names = ("delta_index", "tau_index", "theta", *_COLUMNS[3:])
        rows = [
            (r.setting.delta_index, r.tau_index, r.setting.theta, r.setting.tau,
             r.shots_attempted, r.shots_postselected, r.counts_a, r.counts_b)
            for r in records
        ]
        given = zip(*rows) if rows else [()] * len(names)
        cols = {name: _column(name, values) for name, values in zip(names, given)}
        theta = cols.pop("theta")
        cols["theta_slot"], off = _theta_slots(theta)
        return cls._trusted(_checked(cols, _phase_check(off.__getitem__, lambda r: theta[r].item())))

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    @property
    def theta(self) -> np.ndarray:
        """Each row's phase in rad, THETAS[theta_slot]."""
        theta = np.array(THETAS)[self.theta_slot]
        theta.flags.writeable = False
        return theta

    def __len__(self) -> int:
        return len(self.delta_index)

    def __iter__(self):
        columns = (self.theta if name == "theta_slot" else getattr(self, name) for name in _COLUMNS)
        return map(_row, *(col.tolist() for col in columns))

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            raise TypeError("index a ScanTable with a slice, mask or index array; iterate it for rows")
        return ScanTable._trusted([col[index] for col in self.columns])

    def __eq__(self, other):
        if isinstance(other, ScanTable):
            return all(np.array_equal(a, b) for a, b in zip(self.columns, other.columns))
        return NotImplemented

    __hash__ = None

    def __setattr__(self, name, value):
        raise AttributeError("ScanTable is immutable")

    def __repr__(self) -> str:
        return f"ScanTable({len(self)} rows)"


def as_table(rows) -> ScanTable:
    """`rows` itself if it is a ScanTable, else a table of its records."""
    return rows if isinstance(rows, ScanTable) else ScanTable.from_records(rows)


@dataclass(frozen=True)
class ScanPlan:
    """The full tomographic schedule over (delta, tau, theta)."""

    grid: FrequencyGrid
    max_delta_index: int
    shots_per_setting: int
    seed: int

    def __post_init__(self):
        n = self.grid.n
        if not (isinstance(self.max_delta_index, (int, np.integer)) and 0 <= self.max_delta_index < n):
            raise ValueError(f"max_delta_index must be an integer in [0, {n - 1}], got {self.max_delta_index}")
        if not (isinstance(self.shots_per_setting, (int, np.integer)) and self.shots_per_setting > 0):
            raise ValueError(f"shots_per_setting must be a positive integer, got {self.shots_per_setting}")
        if self.shots_per_setting >= 2**63:
            raise ValueError(f"shots_per_setting must be below 2**63 (int64 counts), got {self.shots_per_setting}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")

    @property
    def delta_indices(self) -> range:
        return range(self.max_delta_index + 1)

    @property
    def n_settings(self) -> int:
        return 2 + 2 * self.grid.n * len(self.delta_indices)

    def cells(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """int64 (delta_index, tau_index, theta_slot) of every setting, in ordinal order:
        the calibration pair (0, 0, 0), (0, 0, 1), then every cell with delta, tau and
        slot ascending. Band delta is rows 2 + 2n*delta up to 2 + 2n*(delta + 1)."""
        tomography = np.indices((len(self.delta_indices), self.grid.n, 2), dtype=np.int64).reshape(3, -1)
        calibration = np.array([[0, 0], [0, 0], [0, 1]], dtype=np.int64)
        return tuple(np.concatenate([calibration, tomography], axis=1))


def plan_scan(
    grid: FrequencyGrid,
    max_delta_index: int,
    shots: int,
    seed: int,
    *,
    max_delta_advisory: float | None = None,
) -> ScanPlan:
    """Plan covering delta_index 0..max_delta_index over the full delay grid.

    Total settings: 2 * n * (max_delta_index + 1) tomography rows plus the
    two calibration rows. `max_delta_advisory` is a positive hardware limit on
    the shift (e.g. what an AOM can actually drive); a plan that exceeds it
    emits a hardware-advisory diagnostic, which the plan does not store.
    """
    if max_delta_advisory is not None and not max_delta_advisory > 0:
        raise ValueError(f"max_delta must be positive, got {max_delta_advisory}")
    plan = ScanPlan(grid=grid, max_delta_index=max_delta_index, shots_per_setting=shots, seed=seed)
    max_shift = max_delta_index * grid.d_omega
    if max_delta_advisory is not None and max_shift > max_delta_advisory:
        emit(
            "hardware-advisory",
            f"planned frequency shift {max_shift:.6g} rad/s exceeds the advisory "
            f"limit {max_delta_advisory:.6g} rad/s",
            max_shift=max_shift,
            advisory_limit=max_delta_advisory,
        )
    return plan


def simulate_counts(state, plan: ScanPlan, config: InterferometerConfig, *, exact: bool = False):
    """Simulate the scan; returns a ScanTable ordered by setting ordinal.

    P_A = 1/2 + Re[gamma e^{i theta} G_delta(tau)]/2 for every setting at
    once, from one batched transform of every band, with the float
    operations of one setting's complex product Re[c * G]. A band that pushes
    mass off the grid emits its support-clipping diagnostic once, not once
    per setting that reads it. Sampling mode: shots_postselected ~
    Binomial(shots, xi * efficiency), counts_A ~ Binomial(shots_postselected,
    P_A). Each stream (the calibration pair's, then each band's, see the
    module docstring) draws all its rows' shots_postselected in one call and
    then all their counts_A in a second. Exact mode keeps every shot and
    stores counts_A = shots * P_A unrounded.
    """
    delta_index, tau_index, slot = plan.cells()
    g = cross_section_transform(state, plan.delta_indices)[delta_index, tau_index]
    warn_support_clipping(state, plan.delta_indices)
    # Re[c * G] as CPython's complex product forms it, c = gamma * e^{i theta}.
    c = [complex(config.gamma) * cmath.exp(1j * theta) for theta in THETAS]
    c_re, c_im = np.array([z.real for z in c])[slot], np.array([z.imag for z in c])[slot]
    p_a = np.clip(0.5 + 0.5 * (c_re * g.real - c_im * g.imag), 0.0, 1.0)
    del g, c_re, c_im  # freed before the table is built and checked

    shots = plan.shots_per_setting
    attempted = np.full(len(p_a), shots, dtype=np.int64)
    if exact:
        post = attempted
        counts_a = shots * p_a
        counts_b = shots - counts_a
    else:
        post = np.empty(len(p_a), dtype=np.int64)
        counts_a = np.empty(len(p_a), dtype=np.int64)
        keys = [(0,)] + [(1, delta) for delta in plan.delta_indices]
        bounds = [0, *range(2, len(p_a) + 1, 2 * plan.grid.n)]
        for key, rows in zip(keys, map(slice, bounds, bounds[1:])):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=plan.seed, spawn_key=key))
            post[rows] = rng.binomial(shots, config.post_selection_rate, size=rows.stop - rows.start)
            counts_a[rows] = rng.binomial(post[rows], p_a[rows])
        counts_b = post - counts_a
    del p_a
    # Fresh arrays of the table's dtypes: checked, then kept without a copy.
    columns = (delta_index, tau_index, slot, tau_index * plan.grid.d_tau, attempted, post, counts_a, counts_b)
    return ScanTable._trusted(_checked(dict(zip(_COLUMNS, columns))))


def estimate_p_delta(rows):
    """P_A - P_B and its standard error per row of a ScanTable or list of records."""
    table = as_table(rows)
    post = table.shots_postselected
    empty = post <= 0
    if empty.any():
        row = int(np.argmax(empty))
        raise InsufficientDataError(
            f"no post-selected shots at (delta={table.delta_index[row]}, "
            f"tau_index={table.tau_index[row]}, theta={table.theta[row]})"
        )
    # 2 * sqrt(max(p * (1 - p), 0) / post) with p = counts_a / post, in place;
    # IEEE multiplication commutes, so (1 - p) * p has the bits of p * (1 - p).
    p_hat_a = table.counts_a / post
    stderr = np.subtract(1.0, p_hat_a)
    stderr *= p_hat_a
    del p_hat_a
    np.maximum(stderr, 0.0, out=stderr)
    stderr /= post
    np.sqrt(stderr, out=stderr)
    stderr *= 2.0
    difference = table.counts_a - table.counts_b
    p_delta_hat = np.divide(difference, post, out=difference if difference.dtype.kind == "f" else None)
    return p_delta_hat, stderr


def _cell_keys(table: ScanTable) -> np.ndarray:
    """int64 key of each row's cell, ascending in (delta_index, tau_index, theta_slot).

    Raises ValueError when the largest key does not fit int64, so that
    distinct cells never share a wrapped key.
    """
    delta_max, tau_max = int(table.delta_index.max()), int(table.tau_index.max())
    tau_span = tau_max + 1
    if (delta_max * tau_span + tau_max) * 2 + 1 >= 2**63:
        raise ValueError(
            f"cannot pool cells up to delta_index {delta_max} and tau_index {tau_max}: "
            "their cell key exceeds a 64-bit integer"
        )
    key = table.delta_index * tau_span
    key += table.tau_index
    key *= 2
    key += table.theta_slot
    return key


def _tail_rows(table: ScanTable, key: np.ndarray, start: int) -> np.ndarray | None:
    """Where each of the first `start` rows sits in the strictly ascending tail
    `key[start:]`, if each repeats a distinct tail cell with the same `tau`
    bits and they do not outnumber the tail; None otherwise."""
    tail = key[start:]
    if start > len(tail):
        return None
    at = np.searchsorted(tail, key[:start])
    ordered = np.sort(at)  # a flagless np.unique costs ~20 ms on its first call (numpy 2.4)
    if (
        (at < len(tail)).all()
        and np.array_equal(tail[at], key[:start])
        and (ordered[1:] > ordered[:-1]).all()
        and np.array_equal(table.tau[:start].view(np.int64), table.tau[start:][at].view(np.int64))
    ):
        return at
    return None


# `_cells` counts keys in one int64 array over the whole key range, so it
# counts only where that range is at most this many keys per row: the
# counts then take at most 32 bytes a row, half of the table's 64 and about
# what `np.unique`'s sort of the keys would hold. A sparser table (a few
# far-apart bands) sorts its keys instead.
_COUNTED_KEYS_PER_ROW = 4


def _cells(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first row of each cell, cell of each row) for the nonnegative cell
    keys `key`, cells numbered in ascending key order, as
    `np.unique(key, return_index=True, return_inverse=True)` gives them.

    Keys within `_COUNTED_KEYS_PER_ROW` per row are counted, not sorted:
    `np.bincount` marks the keys present, their running count ranks them,
    and `np.minimum.at` finds each cell's first row.
    """
    span = int(key.max()) + 1
    if span > _COUNTED_KEYS_PER_ROW * len(key):
        _, first, cell = np.unique(key, return_index=True, return_inverse=True)
        return first, cell
    rank = np.bincount(key, minlength=span)
    np.cumsum(rank > 0, out=rank)  # 1 + the cell of each present key
    cell = rank[key]
    cell -= 1
    first = np.full(int(rank[-1]), len(key))
    del rank
    np.minimum.at(first, cell, np.arange(len(key)))
    return first, cell


def pool_records(records) -> ScanTable:
    """Sum counts of rows sharing a (delta_index, tau_index, theta) cell.

    Dedicated calibration rows and the coincident (delta=0, tau=0) tomography
    rows pool into one estimate this way. Each cell adds its rows in row
    order onto its first row, so float counts sum exactly as a running total
    would; the other columns, `tau` included, come from the first row. The
    result is sorted by (delta_index, tau_index, theta).

    Two layouts take a short path. A table already holding one row per cell
    in order is returned as it is. The layout `simulate_counts` writes, which
    a CSV read back from it keeps, is a strictly ascending tail of cells
    after a few leading rows that each repeat a distinct tail cell with the
    same `tau`: its result shares the tail's `delta_index`, `tau_index`,
    `theta_slot` and `tau` columns and copies only the four summed ones.
    Each such cell has two rows, and IEEE addition commutes, so adding the
    leading row onto the tail row gives the bits of row order. Finding either
    layout takes one pass over the rows and one bool mask. Any other layout
    (shuffled or multi-pass rows, a cell with three rows, a leading row
    whose `tau` differs) is summed into a fresh copy of every column, its
    cells found by `_cells`: counted with `np.bincount` where the keys are
    dense, sorted by `np.unique` where they are sparse, with the same result.

    Raises ValueError when the cell indices are too large for an int64 key.
    """
    table = as_table(records)
    if not len(table):
        return table
    key = _cell_keys(table)
    descents = key[1:] <= key[:-1]
    if not descents.any():
        return table  # already one row per cell, in order
    start = len(descents) - int(np.argmax(descents[::-1]))  # the row after the last descent
    del descents
    at = _tail_rows(table, key, start)
    if at is not None:
        del key  # freed before the summed columns are copied
        columns = []
        for name, col in zip(_COLUMNS, table.columns):
            pooled = col[start:]
            if name in _SUMMED:
                pooled = pooled.copy()
                pooled[at] += col[:start]  # tail + leading == leading + tail, bit for bit
            columns.append(pooled)
        return ScanTable._trusted(columns)
    first, cell = _cells(key)
    del key
    later = np.ones(len(table), dtype=bool)
    later[first] = False
    cell = cell[later]  # the cell of each row after its cell's first
    columns = []
    for name, col in zip(_COLUMNS, table.columns):
        pooled = col[first]
        if name in _SUMMED:
            np.add.at(pooled, cell, col[later])
        columns.append(pooled)
    return ScanTable._trusted(columns)


# ---------------------------------------------------------------------------
# Record file format (CSV, also the import path for real laboratory data)
# ---------------------------------------------------------------------------

# Rows per block of CSV text written or parsed: a block's text stays near
# 1 MB, so memory follows the table, not its text.
_BLOCK_ROWS = 1 << 14

# CSV fields and the Python type each parses as (`int("1.0")` is an error);
# messages name a field as the file's header does.
_CSV_FIELDS = (
    ("delta_index", int), ("tau_index", int), ("theta", float), ("shots_attempted", int),
    ("shots_postselected", float), ("counts_a", float), ("counts_b", float),
)
_CSV_DTYPE = np.dtype([(name, np.int64 if kind is int else np.float64) for name, kind in _CSV_FIELDS])
_THETA = _CSV_DTYPE.names.index("theta")


def _format_counts(col: np.ndarray) -> list:
    """Integers as integers; real-valued counts as shortest round-trip decimals."""
    if col.dtype.kind == "i":
        return col.tolist()
    return [str(int(v)) if v.is_integer() else repr(v) for v in col.tolist()]


def _formatted_lines(block: ScanTable) -> bytes:
    """The CSV lines of `block`, one f-string per row."""
    theta_text = [repr(theta) for theta in THETAS]
    return "".join([
        f"{d},{k},{theta},{shots},{post},{a},{b}\n"
        for d, k, theta, shots, post, a, b in zip(
            block.delta_index.tolist(),
            block.tau_index.tolist(),
            map(theta_text.__getitem__, block.theta_slot.tolist()),
            block.shots_attempted.tolist(),
            _format_counts(block.shots_postselected),
            _format_counts(block.counts_a),
            _format_counts(block.counts_b),
        )
    ]).encode()


# Each theta's text as bytes, by slot, right-aligned in a field as wide as
# the longer one: the NULs before the shorter one are dropped with the rest.
_THETA_WIDTH = max(len(repr(theta)) for theta in THETAS)
_THETA_TEXT = np.frombuffer(
    b"".join(repr(theta).rjust(_THETA_WIDTH, "\0").encode() for theta in THETAS), dtype=np.uint8
).reshape(len(THETAS), _THETA_WIDTH)
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)  # every power below 2**63

# The fields of a block of integer text: counts as int64 and theta as bytes
# one character wider than its longest spelling, so a longer field is never
# cut down to a spelling.
_INTEGER_CSV_DTYPE = np.dtype([
    (name, f"S{_THETA_WIDTH + 1}" if name == "theta" else np.int64) for name, _ in _CSV_FIELDS
])


def _integer_lines(block: ScanTable) -> bytes:
    """The CSV lines of `block`, whose count columns are all int64, formatted in numpy.

    The lines are laid out as one uint8 matrix with a row per character
    position and a column per line (the transpose of the text), each field
    as wide as its longest entry in the block. An integer's digits come from
    repeated `// 10` of its column, units first; the positions before its
    first digit stay NUL, like those before the shorter theta. Every integer
    in a table is nonnegative, so the matrix's bytes in line order without
    the NULs are the lines `_formatted_lines` gives.
    """
    fields = (  # None stands for theta, whose text comes by slot
        block.delta_index, block.tau_index, None, block.shots_attempted,
        block.shots_postselected, block.counts_a, block.counts_b,
    )
    widths = [_THETA_WIDTH if col is None else len(str(int(col.max()))) for col in fields]
    text = np.zeros((sum(widths) + len(widths), len(block)), dtype=np.uint8)
    end = 0
    for col, width in zip(fields, widths):
        start, end = end, end + width
        if col is None:
            text[start:end] = _THETA_TEXT[block.theta_slot].T
        else:
            rest = col
            for row in range(end - 1, start - 1, -1):
                quotient = rest // 10
                np.subtract(rest, quotient * 10, out=text[row], casting="unsafe")
                rest = quotient
            text[start:end] += ord("0")
            # The digit for 10**k is a leading zero where the value is below 10**k (k >= 1).
            text[start:end - 1] *= col >= _POWERS_OF_TEN[width - 1:0:-1, None]
        text[end] = ord(",")
        end += 1
    text[-1] = ord("\n")
    return text.T.tobytes().translate(None, b"\0")


def write_records(path, records) -> None:
    """CSV of a ScanTable or a list of records, one line per row.

    Rows are formatted and written _BLOCK_ROWS at a time, so the text in
    memory is one block's, whatever the table's length. A table whose
    count columns are all int64 (every sampled scan) is formatted by numpy
    digit arithmetic (`_integer_lines`), one with real-valued counts
    (exact mode) by one f-string per row; both write the same bytes for
    the same values.
    """
    table = as_table(records)
    integral = all(col.dtype.kind == "i" for col in (table.shots_postselected, table.counts_a, table.counts_b))
    lines = _integer_lines if integral else _formatted_lines
    with open(path, "wb") as f:
        f.write(RECORD_HEADER.encode() + b"\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            f.write(lines(table[start:start + _BLOCK_ROWS]))


def _integral(col: np.ndarray) -> np.ndarray:
    """A count column as int64 if every entry is a whole number.

    An int64 column (every block read as integer text) is returned as it
    is, exact to 2**63 - 1. A float64 one becomes int64 only if every entry
    is whole and below 2**53, where float64 still holds every integer.
    """
    if col.dtype.kind == "i":
        return col
    if np.isfinite(col).all() and (np.abs(col) < 2.0**53).all() and (col == np.trunc(col)).all():
        return col.astype(np.int64)
    return col


def _field_error(path, lines, linenos) -> str | None:
    """The first line whose fields do not parse, with the reason."""
    for line, lineno in zip(lines, linenos):
        parts = line.split(",")
        if len(parts) != len(_CSV_FIELDS):
            return f"{path}:{lineno}: expected {len(_CSV_FIELDS)} fields, got {len(parts)}"
        for text, name, (_, kind) in zip(parts, RECORD_HEADER.split(","), _CSV_FIELDS):
            if "_" in text or not text.isascii():
                # int() and float() take these; np.loadtxt does not.
                return f"{path}:{lineno}: {name} = {text!r} holds a digit separator or a non-ASCII character"
            try:
                value = kind(text)
            except ValueError as exc:
                return f"{path}:{lineno}: {exc}"
            if kind is int and not -(2**63) <= value < 2**63:
                return f"{path}:{lineno}: {name} = {value} does not fit a 64-bit integer"
    return None


def _line_blocks(f, rows: int):
    """The lines of text file `f` as `str.splitlines` splits its whole text,
    in lists of `rows` lines (the last may differ), each with whether the
    text read so far holds a NUL.

    Text is read in pieces of 64 Ki characters and split just after each
    piece's last newline; a newline always ends a line, so splitting piece by
    piece cuts the text where splitting all of it would.
    """
    lines, rest, nul = [], "", False
    while chunk := f.read(1 << 16):
        nul = nul or "\0" in chunk
        rest += chunk
        cut = rest.rfind("\n") + 1
        lines += rest[:cut].splitlines()
        rest = rest[cut:]
        while len(lines) >= rows:
            yield lines[:rows], nul
            del lines[:rows]
    lines += rest.splitlines()
    if lines:
        yield lines, nul


def _loadtxt(body, dtype) -> np.ndarray:
    # Sized once by max_rows: grown row by row, the array's reallocations
    # would set the block's peak.
    return np.loadtxt(body, delimiter=",", dtype=dtype, comments=None, ndmin=1, max_rows=len(body))


def _integer_columns(body) -> list | None:
    """The columns of `body` in _CSV_DTYPE order if it is integer text: every
    index and count field an int64 integer and every theta one of the
    spellings of THETAS, whose slot takes theta's place. None otherwise.

    loadtxt drops NULs from the end of a bytes field, so `0.0\\0` would read
    as `0.0`: text holding a NUL must not come here.
    """
    try:
        with warnings.catch_warnings():
            # numpy releases that deprecate parsing an integer via a float
            # still do it, truncating `60.5` to 60 with only a
            # DeprecationWarning: as an error, it fails the parse.
            warnings.simplefilter("error", DeprecationWarning)
            data = _loadtxt(body, _INTEGER_CSV_DTYPE)
    except (ValueError, DeprecationWarning):
        return None
    slot = data["theta"] == repr(THETAS[1]).encode()
    if not (slot | (data["theta"] == repr(THETAS[0]).encode())).all():
        return None
    return [slot.astype(np.int64) if name == "theta" else np.ascontiguousarray(data[name]) for name in _CSV_DTYPE.names]


def _parse_block(path, lines, first: int, integral: bool):
    """(line numbers, column arrays in _CSV_DTYPE order, whether they were
    read as integer text) of the non-blank `lines`, which start at line
    `first` of the file; None if all are blank. Integer text gives each
    row's theta slot in theta's place, the float parse the phase as read.

    Where `integral` (the file's text so far is integer text and holds no
    NUL), the block is first read as integer text (`_integer_columns`);
    otherwise, or if that fails, every field is parsed as _CSV_DTYPE gives it.
    """
    body, linenos = lines, range(first, first + len(lines))
    if not all(map(str.strip, body)):
        linenos = [i for i, line in enumerate(lines, start=first) if line.strip()]
        body = [lines[i - first] for i in linenos]
    if not body:
        return None
    columns = _integer_columns(body) if integral else None
    integral = columns is not None
    if not integral:
        try:
            data = _loadtxt(body, _CSV_DTYPE)
        except ValueError as exc:
            raise DataFormatError(_field_error(path, body, linenos) or f"{path}: {exc}") from exc
        columns = [np.ascontiguousarray(data[name]) for name in _CSV_DTYPE.names]
    if not isinstance(linenos, range):
        linenos = np.array(linenos)
    return linenos, columns, integral


def _capacity(needed: int, capacity: int, lines: int, chars: int, size: int | None) -> int:
    """Rows for the read's columns, which hold `capacity` and must hold
    `needed`, once `lines` lines of `chars` characters after the header are read.

    Where the text after the header is `size` bytes (a file's), the columns
    are sized by that size over the characters per line read so far, one row
    in 64 to spare, so that a file of lines as long as its first block's
    never grows. Columns that run short, and those of a pipe, which has no
    size, grow by a quarter at least.
    """
    estimate = 0 if size is None else lines * size // chars
    return max(needed, estimate + estimate // 64, capacity + capacity // 4)


def read_records(path, grid: FrequencyGrid) -> ScanTable:
    """Parse a record CSV into a ScanTable, one row per non-blank line.

    Any malformed line raises DataFormatError naming its line number in the
    file: wrong field count, unparsable or non-integer index, out-of-range
    index, a theta that is not 0 or pi/2, or counts that break the record
    invariants. Text that does not decode raises DataFormatError too.

    The file is read once, _BLOCK_ROWS lines at a time, and each block is
    parsed into the table's own columns, its text and fields freed before
    the next is read, so memory follows the table, not the text. The
    columns are allocated on the first block, sized by `_capacity`, grown in
    place when they run short and cut to the rows read at the end. Line
    numbers count across blocks. The record checks run once the table is
    read, a strip of rows at a time.

    Each block is first read as integer text, as `write_records` writes a
    table with integer counts: every count an int64 integer and every theta
    `repr(THETAS[slot])` byte for byte. A block that is not (real-valued
    counts from exact mode, another spelling of a phase, a malformed line)
    and every block after it parse their counts and theta as float64;
    below 2**53 both give the same columns. A count column is int64 only if
    every entry of it in the file is a whole number: exact to 2**63 - 1
    where every block was integer text, below 2**53 otherwise.
    """
    columns = None  # in _CSV_DTYPE order, theta's slot in its place; allocated on the first block
    spans = []  # (first row, line numbers of its rows) of each parsed block
    rows = lineno = chars = 0  # rows parsed, lines read and the characters of those after the header, so far
    integral = True  # until a block is not integer text
    # (row, theta) of the first phase off both THETAS. Such a row is bad, so
    # it is the only one that can be the first bad row with this message.
    first_off = None
    try:
        with open(path) as f:
            info = os.fstat(f.fileno())
            size = info.st_size if S_ISREG(info.st_mode) else None
            for lines, nul in _line_blocks(f, _BLOCK_ROWS):
                if not lineno:  # the first block starts with the header
                    if lines[0].strip() != RECORD_HEADER:
                        break
                    if size is not None:
                        size -= len(lines[0]) + 1
                    del lines[0]
                    lineno = 1
                chars += len(lines) + sum(map(len, lines))
                block = _parse_block(path, lines, lineno + 1, integral and not nul)
                lineno += len(lines)
                del lines  # free this block's text before reading the next
                if block is None:
                    continue
                linenos, parsed, integral = block
                del block
                if not integral:  # the phases as read: their slots, once per block
                    theta = parsed[_THETA]
                    parsed[_THETA], off = _theta_slots(theta)
                    if first_off is None and off.any():
                        r = int(np.argmax(off))
                        first_off = rows + r, theta[r].item()
                    del theta, off
                end = rows + len(linenos)
                if columns is None:
                    capacity = _capacity(end, 0, lineno - 1, chars, size)
                    columns = [np.empty(capacity, dtype=piece.dtype) for piece in parsed]
                elif end > len(columns[0]):
                    capacity = _capacity(end, len(columns[0]), lineno - 1, chars, size)
                    for col in columns:
                        # No view of a column outlives the statement that made it.
                        col.resize(capacity, refcheck=False)
                for i, piece in enumerate(parsed):
                    dtype = np.result_type(columns[i], piece)
                    if dtype != columns[i].dtype:  # int64 counts joining a float block, as np.concatenate joins them
                        columns[i] = columns[i].astype(dtype)
                    columns[i][rows:end] = piece
                del parsed
                spans.append((rows, linenos))
                rows = end
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    if not lineno:
        raise DataFormatError(f"{path}: expected header {RECORD_HEADER!r}")
    if columns is None:
        columns = [np.zeros(0, dtype=np.int64) for _ in _CSV_DTYPE.names]
    for col in columns:
        col.resize(rows, refcheck=False)
    cols = dict(zip(["theta_slot" if name == "theta" else name for name in _CSV_DTYPE.names], columns))
    del columns
    for name in ("shots_postselected", "counts_a", "counts_b"):
        cols[name] = _integral(cols[name])
    cols["tau"] = cols["tau_index"] * grid.d_tau
    n = grid.n
    delta, tau_index = cols["delta_index"], cols["tau_index"]

    def out_of_range(strip):
        d, k = delta[strip], tau_index[strip]
        return (d < 0) | (d >= n) | (k < 0) | (k >= n)

    def off(strip):
        mask = np.zeros(strip.stop - strip.start, dtype=bool)
        if first_off is not None and strip.start <= first_off[0] < strip.stop:
            mask[first_off[0] - strip.start] = True
        return mask

    bad = _first_invalid(
        cols, [(out_of_range, lambda r: f"indices out of range for an n={n} grid")],
        _phase_check(off, lambda r: first_off[1]),
    )
    if bad is not None:
        first_row, linenos = spans[bisect.bisect_right([row for row, _ in spans], bad[0]) - 1]
        raise DataFormatError(f"{path}:{linenos[bad[0] - first_row]}: {bad[1]}")
    return ScanTable._trusted([cols[name] for name in _COLUMNS])


def p_delta_rows(records, grid: FrequencyGrid) -> tuple[np.ndarray, ...]:
    """Plot-ready columns (delta_index, tau_index, tau, theta, p_delta, stderr),
    one entry per pooled (delta, tau, theta) cell."""
    cells = pool_records(records)
    p_delta_hat, stderr = estimate_p_delta(cells)
    return cells.delta_index, cells.tau_index, cells.tau_index * grid.d_tau, cells.theta, p_delta_hat, stderr


def write_p_delta_table(path, records, grid: FrequencyGrid) -> None:
    """CSV of `p_delta_rows`: indices as integers, floats as shortest round-trip decimals.

    Only n delays and 2 phases occur, so their text comes from per-index
    tables; each block of rows is joined in C from per-column pieces.
    """
    delta_index, tau_index, _, theta, p_delta_hat, stderr = p_delta_rows(records, grid)
    taus = np.arange(int(tau_index.max(initial=-1)) + 1) * grid.d_tau
    tau_text = [f",{k},{tau!r}," for k, tau in enumerate(taus.tolist())]
    theta_text = {phase: f"{phase!r}," for phase in THETAS}
    comma, newline = repeat(","), repeat("\n")
    with open(path, "w", newline="\n") as f:
        f.write(P_DELTA_HEADER + "\n")
        for start in range(0, len(delta_index), _BLOCK_ROWS):
            rows = slice(start, start + _BLOCK_ROWS)
            cells = zip(
                map(int.__repr__, delta_index[rows].tolist()),
                map(tau_text.__getitem__, tau_index[rows].tolist()),
                map(theta_text.__getitem__, theta[rows].tolist()),
                map(float.__repr__, p_delta_hat[rows].tolist()), comma,
                map(float.__repr__, stderr[rows].tolist()), newline,
            )
            f.write("".join(chain.from_iterable(cells)))
