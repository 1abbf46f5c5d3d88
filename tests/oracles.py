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
"""

from __future__ import annotations

import cmath

import numpy as np

from spectomo.core import PSD_TOL, SpectralDensityMatrix, hermitian_part
from spectomo.interferometer import (
    InterferometerConfig,
    MeasurementSetting,
    cross_section_transform,
    warn_support_clipping,
)
from spectomo.errors import DataFormatError
from spectomo.measurement import _COLUMNS, _CSV_DTYPE, _SUMMED, RECORD_HEADER, THETAS, ScanTable, _field_error

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
