"""Per-setting reference routes to the port-A probability.

The package computes P_A for a whole scan from one batched
`cross_section_transform`. These routes compute it for one setting at a time,
by two independent means, so tests can check the shipped path against them:

* `conditional_state` composes the AOM shift, phase shifter, delay and the
  two beamsplitters into the four-term port-A kernel and takes its trace;
* `probabilities_quadrature` is a direct Riemann sum of the four-term
  probability integrand, and the sign-convention reference;
* `probabilities_closed_form` reads G_delta(tau) from the production
  `cross_section_transform`, so it is the shipped path evaluated at one
  setting.

Each route emits the package's support-clipping diagnostic through the public
`warn_support_clipping` and keeps its own band helpers.

`pool_by_unique` pools any layout by sorting its cell keys: the reference
that `pool_records`' short path and its counting path must match in dtype,
shape and bytes. `records_csv_by_rows` is the record CSV formatted one
f-string per row: the reference for the bytes `write_records` writes.
`parse_block_as_floats` parses a block of record lines with every count and
theta as float64, never as integer text: put in place of
`measurement._parse_block`, it gives the outcome that `read_records` must
give.

`first_invalid_whole_table` is the record check on whole-table masks and
sums: the reference for `measurement._first_invalid`, which checks a strip
of rows at a time. `read_records_by_concatenation` reads a record CSV by
keeping every block's parsed columns and joining them with `np.concatenate`
at the end, then checks the whole table: the reference for `read_records`,
which parses each block into columns it sizes and grows in place.
"""

from __future__ import annotations

import bisect
import cmath

import numpy as np

from spectomo.core import PSD_TOL, SpectralDensityMatrix, hermitian_part
from spectomo.interferometer import (
    InterferometerConfig,
    MeasurementSetting,
    cross_section_transform,
    warn_support_clipping,
)
from spectomo import measurement
from spectomo.errors import DataFormatError
from spectomo.measurement import (
    _COLUMNS,
    _CSV_DTYPE,
    _SUMMED,
    _THETA,
    _WRAP_FREE,
    RECORD_HEADER,
    THETAS,
    ScanTable,
    _field_error,
    _integral,
    _isclose,
    _line_blocks,
    _theta_slots,
)

_EPS = float(np.finfo(np.float64).eps)


def _check_delta(state: SpectralDensityMatrix, delta_index: int) -> int:
    if not 0 <= delta_index < state.grid.n:
        raise ValueError(f"delta_index must be in [0, {state.grid.n - 1}], got {delta_index}")
    return delta_index


def _shift_rows(m: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros_like(m)
    out[k:, :] = m[: m.shape[0] - k, :]
    return out


def _shift_cols(m: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros_like(m)
    out[:, k:] = m[:, : m.shape[1] - k]
    return out


def _shift_both(m: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros_like(m)
    out[k:, k:] = m[: m.shape[0] - k, : m.shape[1] - k]
    return out


def _lower_band(m: np.ndarray, k: int) -> np.ndarray:
    """g[i] = m[i, i-k] for i >= k, zero otherwise."""
    g = np.zeros(m.shape[0], dtype=np.complex128)
    g[k:] = np.diagonal(m, -k)
    return g


def _upper_band(m: np.ndarray, k: int) -> np.ndarray:
    """g[i] = m[i-k, i] for i >= k, zero otherwise."""
    g = np.zeros(m.shape[0], dtype=np.complex128)
    g[k:] = np.diagonal(m, k)
    return g


def apply_aom(state: SpectralDensityMatrix, delta_index: int, xi: float) -> np.ndarray:
    """Kept-mode kernel block after the AOM: xi * rho(w1 - delta, w2 - delta).

    The retained beam picks up an amplitude i*sqrt(xi) per arm, so the kernel
    scales by xi (the i cancels against its conjugate); the sqrt(1-xi) branch
    feeds only the discarded mode. The result is unnormalized and returned as
    a plain array.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {xi}")
    k = _check_delta(state, delta_index)
    return xi * _shift_both(state.rho, k)


def conditional_state(
    state: SpectralDensityMatrix,
    setting: MeasurementSetting,
    config: InterferometerConfig,
) -> tuple[SpectralDensityMatrix | None, float]:
    """Post-selected state at output port A and its detection probability.

    Composes the AOM shift, phase shifter, delay and the two beamsplitters
    into the four-term port-A kernel; the two cross terms carry gamma and
    conj(gamma). Returns (normalized state, p_A). When p_A vanishes (dark
    port) the conditional state is undefined and None is returned.
    """
    k = _check_delta(state, setting.delta_index)
    grid = state.grid
    m = state.rho
    gamma = complex(config.gamma)
    phase = np.exp(-1j * setting.tau * grid.omegas)
    cross = gamma * cmath.exp(1j * setting.theta)
    t1 = np.outer(phase, phase.conj()) * m
    t2 = cross * (phase[:, None] * _shift_cols(m, k))
    t3 = cross.conjugate() * (phase.conj()[None, :] * _shift_rows(m, k))
    t4 = _shift_both(m, k)
    kernel = (t1 + t2 + t3 + t4) / 4.0
    p_raw = float(kernel.diagonal().real.sum()) * grid.d_omega
    warn_support_clipping(state, k)
    p_a = min(max(p_raw, 0.0), 1.0)
    if p_a < 1e-12:
        return None, p_a
    # Float cancellation near dark settings perturbs eigenvalues by ~eps/p_A
    # even though the exact kernel is positive; widen the check accordingly.
    tol = max(PSD_TOL, 16.0 * grid.n * _EPS / p_a)
    m = hermitian_part(grid, kernel)
    w = np.linalg.eigvalsh(m) * grid.d_omega
    if w[-1] <= 0.0 or w[0] < -tol * w[-1]:
        raise ValueError(
            f"conditional kernel is not positive semidefinite: eigenvalues in "
            f"[{w[0]:.3e}, {w[-1]:.3e}], tolerance {tol:.1e}"
        )
    return SpectralDensityMatrix(grid, m), p_a


def probabilities_quadrature(
    state: SpectralDensityMatrix,
    setting: MeasurementSetting,
    config: InterferometerConfig,
) -> tuple[float, float]:
    """Detection probabilities by direct Riemann sum of the four-term integrand.

    All four terms (two unit-trace diagonal terms, two phase-weighted cross
    terms with factors exp(+i*theta - i*tau*omega) and its conjugate) are
    summed numerically; completeness P_A + P_B = 1 is then enforced by
    definition of P_B. This function is the sign-convention reference for
    the whole toolkit.
    """
    k = _check_delta(state, setting.delta_index)
    grid = state.grid
    m = state.rho
    gamma = complex(config.gamma)
    diag = m.diagonal().real
    t1 = float(diag.sum()) * grid.d_omega
    t4 = float(diag[: grid.n - k].sum()) * grid.d_omega if k else t1
    phase = np.exp(-1j * setting.tau * grid.omegas)
    c2 = gamma * cmath.exp(1j * setting.theta) * complex(np.sum(phase * _lower_band(m, k)))
    c3 = (
        gamma.conjugate()
        * cmath.exp(-1j * setting.theta)
        * complex(np.sum(phase.conj() * _upper_band(m, k)))
    )
    cross = (c2 + c3).real * grid.d_omega
    warn_support_clipping(state, k)
    p_a = min(max(float(t1 + t4 + cross) / 4.0, 0.0), 1.0)
    return p_a, 1.0 - p_a


def probabilities_closed_form(
    state: SpectralDensityMatrix,
    setting: MeasurementSetting,
    config: InterferometerConfig,
) -> tuple[float, float]:
    """Closed-form probabilities P_A = 1/2 + Re[gamma e^{i theta} G_delta(tau)]/2.

    G_delta comes from the production `cross_section_transform`, and the
    support-clipping diagnostic from `warn_support_clipping`, as in
    `simulate_counts`. Valid for tau on the conjugate delay grid; off-grid
    delays fall back to the direct quadrature.
    """
    grid = state.grid
    pos = setting.tau / grid.d_tau
    j = int(round(pos))
    if not 0 <= j < grid.n or abs(setting.tau - j * grid.d_tau) > 1e-9 * max(
        grid.d_tau, abs(setting.tau)
    ):
        return probabilities_quadrature(state, setting, config)
    g = cross_section_transform(state, setting.delta_index)
    warn_support_clipping(state, setting.delta_index)
    value = (complex(config.gamma) * cmath.exp(1j * setting.theta) * complex(g[j])).real
    p_a = min(max(0.5 + 0.5 * value, 0.0), 1.0)
    return p_a, 1.0 - p_a


def pool_by_unique(table: ScanTable) -> ScanTable:
    """Rows sharing a (delta_index, tau_index, theta_slot) cell, summed in row
    order onto the cell's first row by `np.add.at`, cells sorted by `np.unique`."""
    key = (table.delta_index * (int(table.tau_index.max()) + 1) + table.tau_index) * 2 + table.theta_slot
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


def _count_text(value) -> str:
    """An int as an int; a float as an int if it is whole, else its shortest repr."""
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def records_csv_by_rows(table: ScanTable) -> bytes:
    """The record CSV of `table`: its header, then one f-string line per row."""
    lines = [RECORD_HEADER + "\n"]
    for row in zip(*(col.tolist() for col in table.columns)):
        delta, tau_index, slot, _, attempted, post, a, b = row
        lines.append(
            f"{delta},{tau_index},{THETAS[slot]!r},{attempted},"
            f"{_count_text(post)},{_count_text(a)},{_count_text(b)}\n"
        )
    return "".join(lines).encode()


def parse_block_as_floats(path, lines, first: int, integral: bool):
    """`measurement._parse_block` with only the float parse: (line numbers,
    column arrays in _CSV_DTYPE order, False) of the non-blank `lines`, which
    start at line `first` of the file; None if all are blank. `integral` is
    ignored."""
    body, linenos = lines, range(first, first + len(lines))
    if not all(map(str.strip, body)):
        linenos = [i for i, line in enumerate(lines, start=first) if line.strip()]
        body = [lines[i - first] for i in linenos]
    if not body:
        return None
    try:
        data = np.loadtxt(body, delimiter=",", dtype=_CSV_DTYPE, comments=None, ndmin=1)
    except ValueError as exc:
        raise DataFormatError(_field_error(path, body, linenos) or f"{path}: {exc}") from exc
    if not isinstance(linenos, range):
        linenos = np.array(linenos)
    return linenos, [np.ascontiguousarray(data[name]) for name in _CSV_DTYPE.names], False


def first_invalid_whole_table(cols: dict, checks=(), phase=None) -> tuple[int, str] | None:
    """First row breaking a record invariant, and the reason, from one mask
    per check over the whole table. `checks` and `phase` are (mask,
    message(row)) pairs whose masks cover the whole table; `phase` replaces
    the theta_slot range check."""
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


def read_records_by_concatenation(path, grid) -> ScanTable:
    """`read_records` as per-block parses joined by `np.concatenate` and
    checked on whole-table masks by `first_invalid_whole_table`. Blocks are
    `measurement._BLOCK_ROWS` lines, parsed by `measurement._parse_block`."""
    names = ["theta_slot" if name == "theta" else name for name in _CSV_DTYPE.names]
    pieces = {name: [np.zeros(0, dtype=np.int64)] for name in names}  # integer blocks join to int64
    spans, thetas = [], []
    rows = lineno = 0
    integral = True
    try:
        with open(path) as f:
            for lines, nul in _line_blocks(f, measurement._BLOCK_ROWS):
                if not lineno:
                    if lines[0].strip() != RECORD_HEADER:
                        break
                    del lines[0]
                    lineno = 1
                block = measurement._parse_block(path, lines, lineno + 1, integral and not nul)
                lineno += len(lines)
                if block is None:
                    continue
                linenos, columns, integral = block
                theta = np.array(THETAS)[columns[_THETA]] if integral else columns[_THETA]
                thetas.append(theta)
                columns[_THETA] = _theta_slots(theta)[0]
                spans.append((rows, linenos))
                rows += len(linenos)
                for name, col in zip(names, columns):
                    pieces[name].append(col)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    if not lineno:
        raise DataFormatError(f"{path}: expected header {RECORD_HEADER!r}")
    cols = {name: np.concatenate(pieces[name]) for name in names}
    for name in ("shots_postselected", "counts_a", "counts_b"):
        cols[name] = _integral(cols[name])
    cols["tau"] = cols["tau_index"] * grid.d_tau
    theta = np.concatenate([np.zeros(0)] + thetas)
    n = grid.n
    delta, tau_index = cols["delta_index"], cols["tau_index"]
    out_of_range = (delta < 0) | (delta >= n) | (tau_index < 0) | (tau_index >= n)
    phase = (
        _theta_slots(theta)[1],
        lambda r: f"theta_rad must be 0 or pi/2 (the two tomography phases), got {theta[r].item()!r}",
    )
    bad = first_invalid_whole_table(
        cols, [(out_of_range, lambda r: f"indices out of range for an n={n} grid")], phase
    )
    if bad is not None:
        first_row, linenos = spans[bisect.bisect_right([row for row, _ in spans], bad[0]) - 1]
        raise DataFormatError(f"{path}:{linenos[bad[0] - first_row]}: {bad[1]}")
    return ScanTable._trusted([cols[name] for name in _COLUMNS])
