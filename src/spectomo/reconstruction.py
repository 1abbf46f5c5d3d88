"""Inverse pipeline: from count records back to a spectral density matrix.

The balanced setting (tau=0, delta=0) has G = 1, so its two phase rows read
the mode overlap directly: gamma_hat = P_delta(theta=0) - i*P_delta(theta=pi/2).
For each frequency shift, the theta=0 and theta=pi/2 scans over the delay grid
give Re and -Im of gamma * G_delta(tau); dividing by gamma_hat and inverting
the Fourier transform (an IFFT plus the explicit phase ramp from omega_min)
recovers one kernel band. Bands assemble into the lower triangle and the upper
follows from Hermitian symmetry. The noisy estimate is then made physical by
replacing it with the nearest unit-trace PSD matrix in Hilbert-Schmidt norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .core import (
    FrequencyGrid,
    SpectralDensityMatrix,
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
    """Measured G_delta samples on the delay grid, with per-point errors."""

    delta_index: int
    g_of_tau: np.ndarray
    stderr_per_point: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g_of_tau, dtype=np.complex128)
        se = np.asarray(self.stderr_per_point, dtype=np.float64)
        if g.shape != se.shape or g.ndim != 1:
            raise ValueError("g_of_tau and stderr_per_point must be 1-D and equal length")
        object.__setattr__(self, "g_of_tau", g)
        object.__setattr__(self, "stderr_per_point", se)


@dataclass
class ReconstructionResult:
    grid: FrequencyGrid
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
    """Per-delta cross-section from the two phase rows at every delay.

    G_hat(tau_k) = [p_delta(theta=0) - i * p_delta(theta=pi/2)] / gamma_hat;
    the theta=0 row measures Re[gamma G], the theta=pi/2 row -Im[gamma G].
    Errors propagate linearly, including the 1/|gamma_hat| amplification.
    `records` is a ScanTable or a list of records of one delta_index; a row
    with delta or tau index off the n-grid raises ValueError.
    """
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
    deltas = np.unique(table.delta_index).tolist()
    if len(deltas) != 1:
        raise ValueError(f"records must cover exactly one delta_index, got {deltas}")
    delta_index = deltas[0]
    cells = as_table(pool_records(table))
    present = np.zeros((grid.n, len(THETAS)), dtype=bool)
    present[cells.tau_index, cells.theta_slot] = True
    if not present.all():
        raise MissingSettingsError(
            [(delta_index, tau_index, THETAS[slot]) for tau_index, slot in np.argwhere(~present).tolist()]
        )
    # One row per (tau, theta) cell, sorted: theta=0 rows even, theta=pi/2 odd.
    p_delta, stderr = estimate_p_delta(cells)
    g = _divide(p_delta[0::2], -p_delta[1::2], complex(gamma_hat))
    se = np.hypot(stderr[0::2], stderr[1::2]) / abs(gamma_hat)
    return CrossSectionEstimate(delta_index, g, se)


def invert_cross_section(estimate: CrossSectionEstimate, grid: FrequencyGrid) -> np.ndarray:
    """Solve G(tau_j) = sum_i exp(-i*tau_j*omega_i) g(omega_i) d_omega for g.

    The forward map is the phase ramp exp(-i*tau*omega_min) times a forward
    FFT times d_omega, so the inverse is exact: round trips with the forward
    transform are identities up to float rounding.
    """
    if estimate.g_of_tau.shape != (grid.n,):
        raise ValueError(
            f"cross-section length {estimate.g_of_tau.shape} does not match n={grid.n}"
        )
    return np.fft.ifft(estimate.g_of_tau * np.exp(1j * grid.taus * grid.omega_min)) / grid.d_omega


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
    second time.
    """
    m = np.asarray(rho_raw, dtype=np.complex128)
    if m.shape != (grid.n, grid.n):
        raise ValueError(f"matrix must have shape ({grid.n}, {grid.n}), got {m.shape}")
    herm = (m + m.conj().T) / 2.0
    w, vecs = np.linalg.eigh(herm * grid.d_omega)
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
    kernel = (vecs * kept) @ vecs.conj().T / grid.d_omega
    return SpectralDensityMatrix(grid, hermitian_part(grid, kernel)), min_eig


def reconstruct_records(
    records,
    grid: FrequencyGrid,
    *,
    min_visibility: float = MIN_VISIBILITY,
) -> ReconstructionResult:
    """Full pipeline: calibrate, estimate, invert, assemble, project.

    Per-delta residuals compare the measured cross-sections against the
    forward transform of the projected estimate (RMS over the delay grid).
    Diagnostics emitted anywhere in the pipeline are collected on the result.
    """
    with diagnostics.capture() as caught:
        cells = as_table(pool_records(records))
        gamma_hat = calibrate_gamma(cells)
        # Pooled rows are sorted by delta_index: each band is one slice.
        deltas, starts = np.unique(cells.delta_index, return_index=True)
        stops = starts[1:].tolist() + [len(cells)]
        estimates = {
            m: estimate_cross_section(
                cells[start:stop], gamma_hat, grid, min_visibility=min_visibility
            )
            for m, start, stop in zip(deltas.tolist(), starts.tolist(), stops)
        }
        bands = {m: invert_cross_section(est, grid) for m, est in estimates.items()}
        rho_raw = assemble(bands, grid)
        rho_hat, min_eig = project_physical(rho_raw, grid)
        residuals = []
        for m in sorted(estimates):
            forward = cross_section_transform(rho_hat, m)
            diff = estimates[m].g_of_tau - forward
            residuals.append(math.sqrt(float(np.vdot(diff, diff).real) / grid.n))
    return ReconstructionResult(
        grid=grid,
        rho_hat=rho_hat,
        gamma_hat=gamma_hat,
        pre_projection_min_eigenvalue=min_eig,
        residuals=residuals,
        warnings=diagnostics.dedupe(caught),
        rho_pre_projection=rho_raw,
    )


@dataclass
class ReportDocument:
    """Reconstruction metrics; truth-dependent fields present when truth is given."""

    purity: float
    gamma_hat: complex
    min_eigenvalue_pre_projection: float
    residuals: list[float]
    warnings: list[str]
    hs_distance: float | None = None
    overlap: float | None = None

    def as_dict(self) -> dict:
        doc = {
            "purity": self.purity,
            "gamma_hat": [self.gamma_hat.real, self.gamma_hat.imag],
            "min_eigenvalue_pre_projection": self.min_eigenvalue_pre_projection,
            "residuals": self.residuals,
            "warnings": self.warnings,
        }
        if self.hs_distance is not None:
            doc["hs_distance"] = self.hs_distance
        if self.overlap is not None:
            doc["overlap"] = self.overlap
        return doc


def report(
    result: ReconstructionResult, truth: SpectralDensityMatrix | None = None
) -> ReportDocument:
    """Summarize a reconstruction, optionally against the known true state."""
    doc = ReportDocument(
        purity=purity(result.rho_hat),
        gamma_hat=result.gamma_hat,
        min_eigenvalue_pre_projection=result.pre_projection_min_eigenvalue,
        residuals=list(result.residuals),
        warnings=[str(diag) for diag in result.warnings],
    )
    if truth is not None:
        truth.grid.require_compatible(result.grid)
        doc.hs_distance = hs_distance(result.rho_hat.rho, truth.rho, result.grid)
        doc.overlap = hs_overlap(truth, result.rho_hat)
    return doc
