"""Inverse pipeline: from count records back to a spectral density matrix.

The balanced setting (tau=0, delta=0) has G = 1, so its two phase rows read
the mode overlap directly: gamma_hat = P_delta(theta=0) - i*P_delta(theta=pi/2).
For all frequency shifts at once, the theta=0 and theta=pi/2 scans over the
delay grid give Re and -Im of gamma * G_delta(tau), one row per shift; dividing
by gamma_hat and one inverse FFT along the delay axis (plus the explicit phase
ramp from omega_min) recover every kernel band. Bands assemble into the lower
triangle and the upper follows from Hermitian symmetry. The noisy estimate is
then made physical by replacing it with the nearest unit-trace PSD matrix in
Hilbert-Schmidt norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .core import (
    FrequencyGrid,
    SpectralDensityMatrix,
    _hermitize,
    hermitian_part,
    hs_distance,
    hs_overlap,
    purity,
)
from .diagnostics import Diagnostic, emit
from .errors import (
    CalibrationMissingError,
    DegenerateInputError,
    MissingSettingsError,
    VisibilityTooLowError,
)
from .interferometer import cross_section_transform
from .measurement import THETAS, as_table, estimate_p_delta, pool_records

MIN_VISIBILITY = 0.05


@dataclass(frozen=True)
class CrossSectionEstimate:
    """Measured G_delta samples and per-point errors, (bands, n) arrays whose
    row k belongs to band `delta_indices[k]` (1-D int64)."""

    delta_indices: np.ndarray
    g_of_tau: np.ndarray
    stderr_per_point: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.delta_indices, dtype=np.int64)
        g = np.asarray(self.g_of_tau, dtype=np.complex128)
        se = np.asarray(self.stderr_per_point, dtype=np.float64)
        if m.ndim != 1 or g.ndim != 2 or g.shape != se.shape or g.shape[0] != len(m):
            raise ValueError("g_of_tau and stderr_per_point must be (len(delta_indices), n) arrays")
        object.__setattr__(self, "delta_indices", m)
        object.__setattr__(self, "g_of_tau", g)
        object.__setattr__(self, "stderr_per_point", se)


@dataclass
class ReconstructionResult:
    rho_hat: SpectralDensityMatrix
    gamma_hat: complex
    pre_projection_min_eigenvalue: float
    residuals: list[float]
    warnings: list[Diagnostic]
    rho_pre_projection: np.ndarray


def calibrate_gamma(records) -> complex:
    """Infer the mode overlap from the balanced (tau=0, delta=0) statistics.

    Reads the pooled (0, 0) cells of `records` (a ScanTable or a list of
    records). Requires both phase rows; |gamma_hat| > 1 (possible under shot
    noise) is clamped back to the unit circle with a diagnostic.
    """
    table = as_table(records)
    cells = as_table(pool_records(table[(table.delta_index == 0) & (table.tau_index == 0)]))
    if cells.theta_slot.tolist() != [0, 1]:
        raise CalibrationMissingError(
            f"calibration rows absent at (delta=0, tau=0): need thetas {THETAS}"
        )
    (p0, p1), _ = estimate_p_delta(cells)
    gamma_hat = complex(float(p0), -float(p1))
    if abs(gamma_hat) > 1.0:
        emit(
            "gamma-clamped",
            f"raw visibility estimate |gamma| = {abs(gamma_hat):.6f} exceeds 1; "
            "clamped to the unit circle",
            raw_magnitude=abs(gamma_hat),
        )
        gamma_hat /= abs(gamma_hat)
    return gamma_hat


def _divide(re: np.ndarray, im: np.ndarray, c: complex) -> np.ndarray:
    """(re + i*im) / c elementwise, rounded as CPython's complex division is.

    numpy's complex division multiplies by 1/|c|^2 instead and differs in the
    last bit, which would move every reconstructed byte.
    """
    out = np.empty(re.shape, dtype=np.complex128)
    if abs(c.real) >= abs(c.imag):
        ratio = c.imag / c.real
        denom = c.real + c.imag * ratio
        out.real = (re + im * ratio) / denom
        out.imag = (im - re * ratio) / denom
    else:
        ratio = c.real / c.imag
        denom = c.real * ratio + c.imag
        out.real = (re * ratio + im) / denom
        out.imag = (im * ratio - re) / denom
    return out


def estimate_cross_section(
    records,
    gamma_hat: complex,
    grid: FrequencyGrid,
    *,
    min_visibility: float = MIN_VISIBILITY,
) -> CrossSectionEstimate:
    """Cross-sections of every band in `records` from the two phase rows at every delay.

    G_hat(tau_k) = [p_delta(theta=0) - i * p_delta(theta=pi/2)] / gamma_hat;
    the theta=0 row measures Re[gamma G], the theta=pi/2 row -Im[gamma G].
    Errors propagate linearly, including the 1/|gamma_hat| amplification.
    `records` is a ScanTable or a list of records holding any set of bands;
    each band present must have all 2n (tau, theta) cells, else
    MissingSettingsError lists every missing cell of every band. A row with
    delta or tau index off the n-grid, or a `min_visibility` outside (0, 1],
    raises ValueError. Bands absent altogether are not checked here.
    """
    if not 0.0 < min_visibility <= 1.0:
        raise ValueError(f"min_visibility must be in (0, 1], got {min_visibility}")
    if abs(gamma_hat) < min_visibility:
        raise VisibilityTooLowError(
            f"|gamma_hat| = {abs(gamma_hat):.4f} below the floor {min_visibility}; "
            "cross-section division would amplify noise unboundedly"
        )
    table = as_table(records)
    off_grid = (table.delta_index >= grid.n) | (table.tau_index >= grid.n)
    if off_grid.any():
        row = int(np.argmax(off_grid))
        raise ValueError(
            f"row {row} (delta_index={table.delta_index[row]}, tau_index={table.tau_index[row]}) "
            f"lies off the n={grid.n} grid"
        )
    cells = as_table(pool_records(table))
    deltas, band = np.unique(cells.delta_index, return_inverse=True)
    present = np.zeros((len(deltas), grid.n, len(THETAS)), dtype=bool)
    present[band, cells.tau_index, cells.theta_slot] = True
    if not present.all():
        raise MissingSettingsError(
            [(int(deltas[k]), tau_index, THETAS[slot]) for k, tau_index, slot in np.argwhere(~present).tolist()]
        )
    # One row per (delta, tau, theta) cell, sorted: a (bands, n, 2) block.
    p_delta, stderr = (a.reshape(present.shape) for a in estimate_p_delta(cells))
    g = _divide(p_delta[..., 0], -p_delta[..., 1], complex(gamma_hat))
    se = np.hypot(stderr[..., 0], stderr[..., 1]) / abs(gamma_hat)
    return CrossSectionEstimate(deltas, g, se)


def invert_cross_section(estimate: CrossSectionEstimate, grid: FrequencyGrid) -> np.ndarray:
    """Solve G(tau_j) = sum_i exp(-i*tau_j*omega_i) g(omega_i) d_omega for g, band by row.

    The forward map is the phase ramp exp(-i*tau*omega_min) times a forward
    FFT times d_omega, so the inverse is exact: round trips with the forward
    transform are identities up to float rounding. One inverse FFT along the
    delay axis gives a (bands, n) array, row k band `estimate.delta_indices[k]`.
    """
    if estimate.g_of_tau.shape[1] != grid.n:
        raise ValueError(
            f"cross-section length {estimate.g_of_tau.shape[1]} does not match n={grid.n}"
        )
    return np.fft.ifft(estimate.g_of_tau * np.exp(1j * grid.taus * grid.omega_min), axis=-1) / grid.d_omega


def assemble(bands: dict[int, np.ndarray], grid: FrequencyGrid) -> np.ndarray:
    """Assemble inverted bands into a Hermitian kernel estimate.

    Band m fills rho[i, i-m] for i >= m; the mirror entries come from
    conjugate symmetry, never from separate scans. The diagonal keeps only
    the real part (its imaginary residue is noise). Unmeasured outer bands
    stay zero, with a bandwidth diagnostic when coverage is partial.
    """
    if not bands:
        raise MissingSettingsError([(0, None, None)], "no cross-sections to assemble")
    deltas = sorted(bands)
    expected = list(range(deltas[-1] + 1))
    if deltas != expected:
        absent = [(m, None, None) for m in expected if m not in bands]
        raise MissingSettingsError(absent, f"delta coverage has gaps: have {deltas}")
    n = grid.n
    out = np.zeros((n, n), dtype=np.complex128)
    for m, band in bands.items():
        band = np.asarray(band, dtype=np.complex128)
        if band.shape != (n,):
            raise ValueError(f"band {m} must have length {n}, got {band.shape}")
        if m == 0:
            np.fill_diagonal(out, band.real)
        else:
            rows = np.arange(m, n)
            out[rows, rows - m] = band[m:]
            out[rows - m, rows] = band[m:].conj()
    if deltas[-1] < n - 1:
        emit(
            "bandwidth-truncation",
            f"only bands 0..{deltas[-1]} of {n - 1} measured; outer coherences set to zero",
            max_delta_index=deltas[-1],
        )
    return out


def project_physical(
    rho_raw: np.ndarray, grid: FrequencyGrid
) -> tuple[SpectralDensityMatrix, float]:
    """The nearest unit-trace PSD matrix in Hilbert-Schmidt norm.

    The eigenvalues w of the Hermitian part (dimensionless, i.e. of
    rho * d_omega) are projected onto the probability simplex: max(w - t, 0)
    with t chosen for unit trace (Smolin, Gambetta & Smith, PRL 108, 070502,
    2012). Returns the projected state and the smallest pre-projection
    eigenvalue. The result is positive semidefinite by construction, so it is
    symmetrized and renormalized as `from_kernel` does but not diagonalized a
    second time, and the state holds that kernel without a copy.
    """
    m = np.asarray(rho_raw, dtype=np.complex128)
    if m.shape != (grid.n, grid.n):
        raise ValueError(f"matrix must have shape ({grid.n}, {grid.n}), got {m.shape}")
    # In place where the arithmetic allows, with the operations and their
    # order unchanged, so that few n x n temporaries are alive at once.
    herm = hermitian_part(grid, m, renormalize=False)
    herm *= grid.d_omega
    w, vecs = np.linalg.eigh(herm)
    del herm
    min_eig = float(w[0])
    if not w[-1] > 0.0:
        raise DegenerateInputError("no positive spectral weight to project onto")
    # t = max over j of (sum of the j largest eigenvalues - 1) / j. A scalar
    # loop, because small temporary arrays here raised the n=1024 peak RSS by
    # 44 MB in half the benchmark runs (heap layout around freed n^2 buffers).
    total, t = 0.0, -math.inf
    for j, x in enumerate(w[::-1], start=1):
        total += x
        t = max(t, (total - 1.0) / j)
    kept = np.clip(w - t, 0.0, None)
    vecs_h = vecs.conj().T
    vecs *= kept
    kernel = vecs @ vecs_h
    del vecs, vecs_h
    kernel /= grid.d_omega
    return SpectralDensityMatrix._owning(grid, _hermitize(grid, kernel)), min_eig


def reconstruct_records(
    records,
    grid: FrequencyGrid,
    *,
    min_visibility: float = MIN_VISIBILITY,
) -> ReconstructionResult:
    """Full pipeline, one pass over one pooled table: calibrate, then estimate,
    invert and assemble every band at once, then project.

    Per-delta residuals compare the measured cross-sections against the
    forward transform of the projected estimate (RMS over the delay grid).
    Diagnostics emitted anywhere in the pipeline are collected on the result;
    other warnings pass on to the caller.
    """
    with diagnostics.capture() as caught:
        cells = as_table(pool_records(records))
        gamma_hat = calibrate_gamma(cells)
        estimate = estimate_cross_section(cells, gamma_hat, grid, min_visibility=min_visibility)
        deltas = estimate.delta_indices.tolist()
        rho_raw = assemble(dict(zip(deltas, invert_cross_section(estimate, grid))), grid)
        rho_hat, min_eig = project_physical(rho_raw, grid)
        residuals = [
            math.sqrt(float(np.vdot(diff, diff).real) / grid.n)
            for diff in estimate.g_of_tau - cross_section_transform(rho_hat, deltas)
        ]
    return ReconstructionResult(
        rho_hat=rho_hat,
        gamma_hat=gamma_hat,
        pre_projection_min_eigenvalue=min_eig,
        residuals=residuals,
        warnings=diagnostics.dedupe(caught),
        rho_pre_projection=rho_raw,
    )


def report(result: ReconstructionResult, truth: SpectralDensityMatrix | None = None) -> dict:
    """The report JSON document: purity, gamma_hat as [re, im], the smallest
    pre-projection eigenvalue, residuals and warnings, then hs_distance and
    overlap against `truth` when it is given."""
    rho_hat = result.rho_hat
    doc = {
        "purity": purity(rho_hat),
        "gamma_hat": [result.gamma_hat.real, result.gamma_hat.imag],
        "min_eigenvalue_pre_projection": result.pre_projection_min_eigenvalue,
        "residuals": list(result.residuals),
        "warnings": [str(diag) for diag in result.warnings],
    }
    if truth is not None:
        truth.grid.require_compatible(rho_hat.grid)
        doc["hs_distance"] = hs_distance(rho_hat.rho, truth.rho, rho_hat.grid)
        doc["overlap"] = hs_overlap(truth, rho_hat)
    return doc
