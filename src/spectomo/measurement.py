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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .core import FrequencyGrid
from .diagnostics import emit
from .errors import DataFormatError, InsufficientDataError
from .interferometer import InterferometerConfig, MeasurementSetting, band_transforms

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


def _theta_slots(cols: dict) -> tuple:
    """Replace the float `theta` column of `cols` by `theta_slot`; returns the
    (mask, message(row)) check, for `_first_invalid`, of thetas off both THETAS."""
    theta = cols.pop("theta")
    near = [np.abs(theta - phase) <= THETA_TOL for phase in THETAS]
    cols["theta_slot"] = near[1].astype(np.int64)
    return (
        ~(near[0] | near[1]),
        lambda r: f"theta_rad must be 0 or pi/2 (the two tomography phases), got {theta[r].item()!r}",
    )


def _first_invalid(cols: dict, checks=(), phase=None) -> tuple[int, str] | None:
    """First row breaking a record invariant, and the reason.

    `checks` are extra (mask, message(row)) pairs tried before the record
    invariants, in order, for each row; `phase` replaces the theta_slot
    range check (see `_theta_slots`).
    """
    delta, tau_index, slot = cols["delta_index"], cols["tau_index"], cols["theta_slot"]
    attempted, post = cols["shots_attempted"], cols["shots_postselected"]
    a, b = cols["counts_a"], cols["counts_b"]
    total = a + b
    with np.errstate(invalid="ignore"):  # inf - inf; such rows fail below
        # math.isclose(total, post, rel_tol=1e-9, abs_tol=1e-9), row by row
        tol = np.maximum(1e-9 * np.maximum(np.abs(total), np.abs(post)), 1e-9)
        close = (total == post) | (np.abs(post - total) <= tol)

    def value(col, row):
        return col[row].item()

    checks = list(checks) + [
        (delta < 0, lambda r: f"delta_index must be nonnegative, got {value(delta, r)}"),
        (tau_index < 0, lambda r: f"tau_index must be nonnegative, got {value(tau_index, r)}"),
        phase or ((slot < 0) | (slot > 1), lambda r: f"theta_slot must be 0 or 1, got {value(slot, r)}"),
        ((attempted < 0) | (a < 0) | (b < 0), lambda r: "shot and count fields must be nonnegative"),
        (
            post > attempted + 1e-9,
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
        phase = _theta_slots(cols)
        return cls._trusted(_checked(cols, phase))

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
        if not 0 <= self.max_delta_index < self.grid.n:
            raise ValueError(f"max_delta_index must be in [0, {self.grid.n - 1}], got {self.max_delta_index}")
        if self.shots_per_setting <= 0:
            raise ValueError(f"shots_per_setting must be positive, got {self.shots_per_setting}")
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
    once, from the cached band transforms, with the float operations of one
    setting's complex product Re[c * G]. Sampling mode: shots_postselected ~
    Binomial(shots, xi * efficiency), counts_A ~ Binomial(shots_postselected,
    P_A). Each stream (the calibration pair's, then each band's, see the
    module docstring) draws all its rows' shots_postselected in one call and
    then all their counts_A in a second. Exact mode keeps every shot and
    stores counts_A = shots * P_A unrounded.
    """
    delta_index, tau_index, slot = plan.cells()
    g = band_transforms(state, plan.delta_indices)[delta_index, tau_index]
    # Re[c * G] as CPython's complex product forms it, c = gamma * e^{i theta}.
    c = [complex(config.gamma) * cmath.exp(1j * theta) for theta in THETAS]
    c_re, c_im = np.array([z.real for z in c])[slot], np.array([z.imag for z in c])[slot]
    p_a = np.clip(0.5 + 0.5 * (c_re * g.real - c_im * g.imag), 0.0, 1.0)

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
    return ScanTable(
        delta_index, tau_index, slot, tau_index * plan.grid.d_tau, attempted, post, counts_a, counts_b
    )


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
    p_hat_a = table.counts_a / post
    p_delta_hat = (table.counts_a - table.counts_b) / post
    stderr = 2.0 * np.sqrt(np.maximum(p_hat_a * (1.0 - p_hat_a), 0.0) / post)
    return p_delta_hat, stderr


def pool_records(records) -> ScanTable:
    """Sum counts of rows sharing a (delta_index, tau_index, theta) cell.

    Dedicated calibration rows and the coincident (delta=0, tau=0) tomography
    rows pool into one estimate this way. Each cell adds its rows in row
    order onto its first row, so float counts sum exactly as a running total
    would; the other columns come from the first row. The result is sorted by
    (delta_index, tau_index, theta).
    """
    table = as_table(records)
    if not len(table):
        return table
    key = (table.delta_index * (int(table.tau_index.max()) + 1) + table.tau_index) * 2 + table.theta_slot
    if np.all(key[1:] > key[:-1]):
        return table  # already one row per cell, in order
    _, first, cell = np.unique(key, return_index=True, return_inverse=True)
    later = np.ones(len(table), dtype=bool)
    later[first] = False
    columns = []
    for name, col in zip(_COLUMNS, table.columns):
        pooled = col[first]
        if name in _SUMMED:
            np.add.at(pooled, cell[later], col[later])
        columns.append(pooled)
    return ScanTable._trusted(columns)


# ---------------------------------------------------------------------------
# Record file format (CSV, also the import path for real laboratory data)
# ---------------------------------------------------------------------------

# CSV fields and the Python type each parses as (`int("1.0")` is an error);
# messages name a field as the file's header does.
_CSV_FIELDS = (
    ("delta_index", int), ("tau_index", int), ("theta", float), ("shots_attempted", int),
    ("shots_postselected", float), ("counts_a", float), ("counts_b", float),
)
_CSV_DTYPE = np.dtype([(name, np.int64 if kind is int else np.float64) for name, kind in _CSV_FIELDS])


def _format_counts(col: np.ndarray) -> list:
    """Integers as integers; real-valued counts as shortest round-trip decimals."""
    if col.dtype.kind == "i":
        return col.tolist()
    return [str(int(v)) if v.is_integer() else repr(v) for v in col.tolist()]


def write_records(path, records) -> None:
    """CSV of a ScanTable or a list of records, one line per row."""
    table = as_table(records)
    theta_text = [repr(theta) for theta in THETAS]
    lines = [
        f"{d},{k},{theta},{shots},{post},{a},{b}"
        for d, k, theta, shots, post, a, b in zip(
            table.delta_index.tolist(),
            table.tau_index.tolist(),
            map(theta_text.__getitem__, table.theta_slot.tolist()),
            table.shots_attempted.tolist(),
            _format_counts(table.shots_postselected),
            _format_counts(table.counts_a),
            _format_counts(table.counts_b),
        )
    ]
    Path(path).write_text("\n".join([RECORD_HEADER] + lines) + "\n", newline="\n")


def _integral(col: np.ndarray) -> np.ndarray:
    """int64 if every entry is a whole number, as the file's own integers read."""
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


def read_records(path, grid: FrequencyGrid) -> ScanTable:
    """Parse a record CSV into a ScanTable, one row per non-blank line.

    Any malformed line raises DataFormatError naming its line number:
    wrong field count, unparsable or non-integer index, out-of-range index,
    a theta that is not 0 or pi/2, or counts that break the record
    invariants.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != RECORD_HEADER:
        raise DataFormatError(f"{path}: expected header {RECORD_HEADER!r}")
    body = lines[1:]
    linenos = range(2, len(lines) + 1)
    if any(not line.strip() for line in body):
        linenos = [i for i, line in enumerate(body, start=2) if line.strip()]
        body = [lines[i - 1] for i in linenos]
    if body:
        try:
            # Sized once by max_rows: grown block by block, the array's
            # reallocations set the peak RSS of reading a large file.
            data = np.loadtxt(
                body, delimiter=",", dtype=_CSV_DTYPE, comments=None, ndmin=1, max_rows=len(body)
            )
        except ValueError as exc:
            raise DataFormatError(_field_error(path, body, linenos) or f"{path}: {exc}") from exc
    else:
        data = np.zeros(0, dtype=_CSV_DTYPE)
    del lines, body  # only a parse error needs the text; free it before the checks
    cols = {name: data[name] for name in _CSV_DTYPE.names}
    for name in ("shots_postselected", "counts_a", "counts_b"):
        cols[name] = _integral(cols[name])
    cols["tau"] = cols["tau_index"] * grid.d_tau
    n = grid.n
    delta, tau_index = cols["delta_index"], cols["tau_index"]
    out_of_range = (delta < 0) | (delta >= n) | (tau_index < 0) | (tau_index >= n)
    phase = _theta_slots(cols)
    bad = _first_invalid(
        cols, [(out_of_range, lambda r: f"indices out of range for an n={n} grid")], phase
    )
    if bad is not None:
        raise DataFormatError(f"{path}:{linenos[bad[0]]}: {bad[1]}")
    return ScanTable._trusted([np.ascontiguousarray(cols[name]) for name in _COLUMNS])


def p_delta_rows(records, grid: FrequencyGrid) -> tuple[np.ndarray, ...]:
    """Plot-ready columns (delta_index, tau_index, tau, theta, p_delta, stderr),
    one entry per pooled (delta, tau, theta) cell."""
    cells = pool_records(records)
    p_delta_hat, stderr = estimate_p_delta(cells)
    return cells.delta_index, cells.tau_index, cells.tau_index * grid.d_tau, cells.theta, p_delta_hat, stderr


_P_DELTA_BLOCK = 1 << 16  # rows per write: the text in memory stays a few MB


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
        for start in range(0, len(delta_index), _P_DELTA_BLOCK):
            rows = slice(start, start + _P_DELTA_BLOCK)
            cells = zip(
                map(int.__repr__, delta_index[rows].tolist()),
                map(tau_text.__getitem__, tau_index[rows].tolist()),
                map(theta_text.__getitem__, theta[rows].tolist()),
                map(float.__repr__, p_delta_hat[rows].tolist()), comma,
                map(float.__repr__, stderr[rows].tolist()), newline,
            )
            f.write("".join(chain.from_iterable(cells)))
