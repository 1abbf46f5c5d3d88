"""Spectral-domain representation of single-photon states.

Angular frequencies live on a uniform grid and every integral over omega is
a Riemann sum with weight `d_omega` (`d_omega**2` for double integrals). A
density matrix stores the kernel rho(omega_i, omega_j), which carries units
of seconds, so unit trace means `sum(diag(rho)) * d_omega == 1` and purity
is `sum(|rho|**2) * d_omega**2`. The conjugate delay grid tau_k = k * d_tau
with `d_tau * d_omega * n == 2*pi` is where discrete Fourier transforms of
kernel bands naturally live; keeping the conjugacy exact is what makes the
measurement inversion in `reconstruction` an identity on noiseless data.

Continuum bra-kets normalize as <omega|omega'> = delta(omega - omega'),
which on the grid becomes a Kronecker delta divided by d_omega; that single
convention fixes all unit bookkeeping below.
"""

from __future__ import annotations

import gc
import io
import json
import locale
import math
import os
import re
import stat
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .diagnostics import emit
from .errors import DataFormatError, GridMismatchError

# Tolerances enforced at construction time.
NORM_TOL = 1e-12        # amplitude normalization
TRACE_TOL = 1e-10       # kernel trace
PSD_TOL = 1e-10         # min eigenvalue >= -PSD_TOL * max eigenvalue
CLIP_WARN = 1e-6        # grid-edge mass loss worth warning about
HERMITIAN_TOL = 1e-9    # a loaded kernel's max|K - K^dagger|, relative to max|K|

DENSITY_MATRIX_UNITS = "SI-rad-per-s"


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency grid with its conjugate delay grid.

    omega_i = omega_min + i * d_omega for 0 <= i < n. The delay grid has n
    points tau_k = k * d_tau starting at 0, with d_tau = 2*pi / (n * d_omega).
    """

    omega_min: float
    d_omega: float
    n: int

    def __post_init__(self):
        if not math.isfinite(self.omega_min):
            raise ValueError(f"omega_min must be finite, got {self.omega_min}")
        if not self.d_omega > 0:
            raise ValueError(f"d_omega must be positive, got {self.d_omega}")
        if not math.isfinite(self.d_omega):
            raise ValueError(f"d_omega must be finite, got {self.d_omega}")
        if self.n < 2:
            raise ValueError(f"need at least 2 grid points, got {self.n}")

    @property
    def d_tau(self) -> float:
        return 2.0 * math.pi / (self.n * self.d_omega)

    @property
    def omega_max(self) -> float:
        return self.omega_min + (self.n - 1) * self.d_omega

    @property
    def span(self) -> float:
        return (self.n - 1) * self.d_omega

    @cached_property
    def omegas(self) -> np.ndarray:
        arr = self.omega_min + self.d_omega * np.arange(self.n)
        arr.flags.writeable = False
        return arr

    @cached_property
    def taus(self) -> np.ndarray:
        arr = self.d_tau * np.arange(self.n)
        arr.flags.writeable = False
        return arr

    def omega(self, i: int) -> float:
        return self.omega_min + i * self.d_omega

    def compatible_with(self, other: "FrequencyGrid") -> bool:
        return (
            self.n == other.n
            and math.isclose(self.d_omega, other.d_omega, rel_tol=1e-12, abs_tol=0.0)
            and math.isclose(
                self.omega_min, other.omega_min, rel_tol=1e-12, abs_tol=1e-12 * self.d_omega
            )
        )

    def require_compatible(self, other: "FrequencyGrid") -> None:
        if not self.compatible_with(other):
            raise GridMismatchError(f"grids differ: {self} vs {other}")


def make_grid(omega_center: float, span: float, n: int) -> FrequencyGrid:
    """Grid of n points covering [omega_center - span/2, omega_center + span/2]."""
    if not math.isfinite(omega_center):
        raise ValueError(f"center must be finite, got {omega_center}")
    if not span > 0:
        raise ValueError(f"span must be positive, got {span}")
    if not math.isfinite(span):
        raise ValueError(f"span must be finite, got {span}")
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n}")
    return FrequencyGrid(omega_min=omega_center - span / 2.0, d_omega=span / (n - 1), n=n)


@dataclass(frozen=True)
class PureSpectralAmplitude:
    """Spectral amplitude psi(omega_i) of a pure wavepacket.

    Units are s**(1/2): sum(|psi|**2) * d_omega == 1. Use `from_samples` to
    normalize arbitrary sample values onto the grid.
    """

    grid: FrequencyGrid
    psi: np.ndarray

    def __post_init__(self):
        psi = np.array(self.psi, dtype=np.complex128)
        if psi.shape != (self.grid.n,):
            raise ValueError(f"psi must have shape ({self.grid.n},), got {psi.shape}")
        norm = float(np.vdot(psi, psi).real) * self.grid.d_omega
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(
                f"amplitude not normalized: sum |psi|^2 d_omega = {norm!r}; "
                "use PureSpectralAmplitude.from_samples"
            )
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    @classmethod
    def from_samples(cls, grid: FrequencyGrid, values) -> "PureSpectralAmplitude":
        """Normalize raw samples so that sum(|psi|**2) * d_omega == 1."""
        v = np.asarray(values, dtype=np.complex128)
        norm = float(np.vdot(v, v).real) * grid.d_omega
        if not norm > 0.0:
            raise ValueError("cannot normalize an identically zero amplitude")
        return cls(grid, v / math.sqrt(norm))


@dataclass(frozen=True)
class SpectralDensityMatrix:
    """Discretized spectral density kernel rho(omega_i, omega_j).

    Invariants (checked at construction; use `from_kernel` for arbitrary
    matrices, which also symmetrizes, renormalizes and runs the
    positive-semidefiniteness check):
      * exactly Hermitian,
      * unit trace within TRACE_TOL,
      * real, nonnegative diagonal.

    The constructor checks and holds a read-only copy of `rho`.
    `from_kernel`, the state factories, the density-matrix loader and
    `reconstruction.project_physical` hand over a kernel they built for
    the purpose through `_owning`, which runs the same
    checks on it and holds it without a copy. The checks work a block of
    rows at a time, so no n x n complex temporary is made beside the kernel.

    The `cache` dict memoizes the eigenvalues, the one derived quantity read
    more than once; it is append-only, excluded from equality and not a
    constructor argument, so only the state's own checks fill it. Neither
    the cross-section transforms nor the written text are cached.
    """

    grid: FrequencyGrid
    rho: np.ndarray
    cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        self._hold(np.array(self.rho, dtype=np.complex128))

    @classmethod
    def _owning(cls, grid: FrequencyGrid, m: np.ndarray) -> "SpectralDensityMatrix":
        """The state holding `m` itself, a complex128 array nothing else holds,
        after the constructor's checks; `m` becomes read-only."""
        state = object.__new__(cls)
        object.__setattr__(state, "grid", grid)
        object.__setattr__(state, "cache", {})
        state._hold(m)
        return state

    def _hold(self, m: np.ndarray) -> None:
        n = self.grid.n
        if m.shape != (n, n):
            raise ValueError(f"kernel must have shape ({n}, {n}), got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("kernel entries must be finite")
        if not _is_exactly_hermitian(m):
            raise ValueError(
                f"kernel must be exactly Hermitian (max deviation {_hermitian_deviation(m):.3e}); "
                "use SpectralDensityMatrix.from_kernel"
            )
        tr = float(np.trace(m).real) * self.grid.d_omega
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"kernel trace must be 1 within {TRACE_TOL}, got {tr!r}")
        diag = m.diagonal().real
        if diag.min() < -PSD_TOL:
            raise ValueError(f"diagonal must be nonnegative, min {diag.min():.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "rho", m)

    @classmethod
    def from_kernel(
        cls,
        grid: FrequencyGrid,
        kernel,
        *,
        renormalize: bool = True,
    ) -> "SpectralDensityMatrix":
        """Build a state from an arbitrary kernel matrix.

        Symmetrizes to (K + K^dag)/2 (a no-op on already-Hermitian input),
        optionally renormalizes the trace to 1, and rejects kernels whose
        minimum eigenvalue is below -PSD_TOL times the maximum one. The
        eigenvalues stay in the cache for `eigenvalues()` and `validate`.
        The state holds the one copy of `kernel` that the symmetrization
        is computed in.
        """
        return cls._from_hermitian(grid, hermitian_part(grid, kernel, renormalize=renormalize))

    @classmethod
    def _from_hermitian(cls, grid: FrequencyGrid, m: np.ndarray) -> "SpectralDensityMatrix":
        """`from_kernel` of `m`, an array `_hermitize` has symmetrized in place
        and nothing else holds: its eigenvalue check, then the state holding `m`."""
        w = _spectral_weights(m, grid)
        w_max = float(w[-1])
        if w_max <= 0.0 or float(w[0]) < -PSD_TOL * w_max:
            raise ValueError(
                f"kernel is not positive semidefinite: eigenvalues in "
                f"[{w[0]:.3e}, {w_max:.3e}], tolerance {PSD_TOL:.1e}"
            )
        state = cls._owning(grid, m)
        w.flags.writeable = False
        state.cache["eigenvalues"] = w
        return state

    def trace(self) -> float:
        return float(np.trace(self.rho).real) * self.grid.d_omega

    def eigenvalues(self) -> np.ndarray:
        """Dimensionless spectral weights (eigenvalues of rho * d_omega), ascending.

        Computed once per state and returned read-only.
        """
        w = self.cache.get("eigenvalues")
        if w is None:
            w = _spectral_weights(self.rho, self.grid)
            w.flags.writeable = False
            self.cache["eigenvalues"] = w
        return w


def _spectral_weights(m: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """Eigenvalues of the Hermitian n x n complex `m` times d_omega, ascending.

    A kernel whose imaginary parts are all zero (-0.0 counts as zero) is a
    real symmetric matrix, and `eigvalsh` takes it in real arithmetic as
    `m.real`, some 3x faster than in complex; any other kernel is taken as
    it is. The two agree to rounding, not bit for bit.
    """
    return np.linalg.eigvalsh(m if m.imag.any() else m.real) * grid.d_omega


def hermitian_part(grid: FrequencyGrid, kernel, *, renormalize: bool = True) -> np.ndarray:
    """(K + K^dag)/2 of an n x n kernel, optionally scaled to unit trace.

    The symmetrize-and-renormalize step of `SpectralDensityMatrix.from_kernel`,
    without its eigenvalue check.
    """
    m = np.array(kernel, dtype=np.complex128)
    if m.shape != (grid.n, grid.n):
        raise ValueError(f"kernel must have shape ({grid.n}, {grid.n}), got {m.shape}")
    return _hermitize(grid, m, renormalize=renormalize)


# Rows per block of the n x n checks and of `_hermitize`: their temporaries
# are a strip of the kernel, never a second kernel.
_CHECK_ROWS = 64


def _hermitize(grid: FrequencyGrid, m: np.ndarray, *, renormalize: bool = True) -> np.ndarray:
    """`hermitian_part` of an n x n complex128 array, computed in the array itself.

    One strip at a time: strip k holds the entries (i, j) whose smaller
    index lies in rows k * _CHECK_ROWS up to (k + 1) * _CHECK_ROWS. An entry
    and its mirror share a strip, so each sum reads the input's values, and
    every entry becomes m[i, j] + conj(m[j, i]), then /2, bit for bit as the
    whole-array expression gives it.
    """
    for start in range(0, len(m), _CHECK_ROWS):
        upper, lower = m[start : start + _CHECK_ROWS, start:], m[start:, start : start + _CHECK_ROWS]
        upper_sum = upper + lower.T.conj()
        lower[...] = lower + upper.T.conj()
        upper[...] = upper_sum
    m /= 2.0
    if renormalize:
        tr = float(np.trace(m).real) * grid.d_omega
        if not tr > 0.0:
            raise ValueError(f"cannot renormalize kernel with trace {tr!r}")
        m /= tr
    return m


def _row_blocks(m: np.ndarray):
    """(rows, mirror) per block of `_CHECK_ROWS` rows of a square `m`:
    rows = m[a:b], and mirror = m[:, a:b].T, so mirror[r, j] is m[j, a + r]."""
    for start in range(0, len(m), _CHECK_ROWS):
        yield m[start : start + _CHECK_ROWS], m[:, start : start + _CHECK_ROWS].T


def _hermitian_deviation(m: np.ndarray) -> float:
    """max|m - m^dagger|, with a block of rows as the largest temporary."""
    return max(float(np.abs(rows - mirror.conj()).max()) for rows, mirror in _row_blocks(m))


def _is_exactly_hermitian(m: np.ndarray) -> bool:
    """np.array_equal(m, m.conj().T), with a block of rows as the largest temporary."""
    return all(
        np.array_equal(rows.real, mirror.real) and np.array_equal(rows.imag, -mirror.imag)
        for rows, mirror in _row_blocks(m)
    )


def gaussian_pure(
    grid: FrequencyGrid, omega0: float, sigma: float, chirp: float = 0.0
) -> PureSpectralAmplitude:
    """Gaussian wavepacket: |psi|^2 has standard deviation sigma around omega0.

    `chirp` (units s^2) adds a quadratic spectral phase exp(i*chirp*(omega-omega0)^2),
    which leaves |psi|^2 unchanged. Warns if the +-4 sigma support is not
    fully covered by the grid, and separately if more than CLIP_WARN of the
    probability mass falls outside the grid edges.
    """
    if not math.isfinite(omega0):
        raise ValueError(f"omega0 must be finite, got {omega0}")
    if not 0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not math.isfinite(chirp):
        raise ValueError(f"chirp must be finite, got {chirp}")
    if omega0 - 4 * sigma < grid.omega_min or omega0 + 4 * sigma > grid.omega_max:
        emit(
            "grid-coverage",
            f"gaussian at omega0={omega0}, sigma={sigma} is not covered to 4 sigma "
            f"by grid [{grid.omega_min}, {grid.omega_max}]",
            omega0=omega0,
            sigma=sigma,
        )
    z_hi = (grid.omega_max - omega0) / (sigma * math.sqrt(2.0))
    z_lo = (omega0 - grid.omega_min) / (sigma * math.sqrt(2.0))
    clipped = 0.5 * math.erfc(z_hi) + 0.5 * math.erfc(z_lo)
    if clipped > CLIP_WARN:
        emit(
            "mass-clipping",
            f"{clipped:.3e} of the wavepacket mass lies outside the grid and is "
            "absorbed by renormalization",
            clipped_mass=clipped,
        )
    x = grid.omegas - omega0
    samples = np.exp(-(x**2) / (4.0 * sigma**2) + 1j * chirp * x**2)
    return PureSpectralAmplitude.from_samples(grid, samples)


def density_from_pure(psi: PureSpectralAmplitude) -> SpectralDensityMatrix:
    """Rank-1 kernel psi(omega_1) * conj(psi(omega_2)); purity 1 by construction."""
    kernel = np.outer(psi.psi, psi.psi.conj())
    return SpectralDensityMatrix._from_hermitian(psi.grid, _hermitize(psi.grid, kernel, renormalize=False))


def mix(components) -> SpectralDensityMatrix:
    """Convex mixture sum_k w_k * rho_k of states on a shared grid.

    `components` is a sequence of (weight, SpectralDensityMatrix) pairs with
    nonnegative weights summing to 1 within 1e-12.
    """
    components = list(components)
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = [float(w) for w, _ in components]
    if min(weights) < 0.0:
        raise ValueError(f"weights must be nonnegative, got {weights}")
    total = sum(weights)
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
    grid = components[0][1].grid
    for _, state in components[1:]:
        grid.require_compatible(state.grid)
    kernel = np.zeros((grid.n, grid.n), dtype=np.complex128)
    for w, state in components:
        kernel += w * state.rho
    return SpectralDensityMatrix._from_hermitian(grid, _hermitize(grid, kernel))


def time_jitter_state(psi: PureSpectralAmplitude, jitter_std: float) -> SpectralDensityMatrix:
    """Mixture of a pure wavepacket over Gaussian-distributed emission times.

    A shift of the center time t_c multiplies psi(omega) by a phase linear in
    omega, so averaging over a zero-mean Gaussian t_c with standard deviation
    `jitter_std` multiplies the kernel by the characteristic function
    exp(-jitter_std**2 * (omega_1 - omega_2)**2 / 2). The diagonal (and hence
    the measured spectrum) is exactly |psi|^2 for every jitter strength.
    """
    if not 0 <= jitter_std < math.inf:
        raise ValueError(f"jitter_std must be nonnegative and finite, got {jitter_std}")
    omegas = psi.grid.omegas
    delta = omegas[:, None] - omegas[None, :]
    damping = np.exp(-0.5 * (jitter_std * delta) ** 2)
    kernel = np.outer(psi.psi, psi.psi.conj()) * damping
    return SpectralDensityMatrix._from_hermitian(psi.grid, _hermitize(psi.grid, kernel, renormalize=False))


def frequency_jitter_state(
    psi: PureSpectralAmplitude, jitter_std: float
) -> SpectralDensityMatrix:
    """Mixture of a pure wavepacket over Gaussian-distributed center frequencies.

    The center-frequency integral is discretized as grid-aligned shifts
    m * d_omega with |m * d_omega| <= 6 * jitter_std and renormalized Gaussian
    weights. Components shifted past the grid edges lose mass (a shift by n or
    more bins loses all of it); the final trace renormalization absorbs that,
    with a warning above CLIP_WARN.
    """
    if not 0 <= jitter_std < math.inf:
        raise ValueError(f"jitter_std must be nonnegative and finite, got {jitter_std}")
    if jitter_std == 0:
        return density_from_pure(psi)
    grid = psi.grid
    n = grid.n
    m_max = int(math.ceil(6.0 * jitter_std / grid.d_omega))
    shifts = np.arange(-m_max, m_max + 1)
    weights = np.exp(-0.5 * (shifts * grid.d_omega / jitter_std) ** 2)
    weights /= weights.sum()
    kernel = np.zeros((n, n), dtype=np.complex128)
    for m_shift, w in zip(shifts, weights):
        if abs(m_shift) >= n:
            continue
        shifted = np.zeros(n, dtype=np.complex128)
        if m_shift >= 0:
            shifted[m_shift:] = psi.psi[: n - m_shift]
        else:
            shifted[: n + m_shift] = psi.psi[-m_shift:]
        kernel += w * np.outer(shifted, shifted.conj())
    clipped = 1.0 - float(np.trace(kernel).real) * grid.d_omega
    if clipped > CLIP_WARN:
        emit(
            "mass-clipping",
            f"{clipped:.3e} of the jittered mass was shifted off the grid and is "
            "absorbed by renormalization",
            clipped_mass=clipped,
        )
    return SpectralDensityMatrix._from_hermitian(grid, _hermitize(grid, kernel))


def purity(state: SpectralDensityMatrix) -> float:
    """tr(rho^2) of the kernel: sum |rho_ij|^2 * d_omega^2. 1 iff pure."""
    return float(np.vdot(state.rho, state.rho).real) * state.grid.d_omega**2


def hs_overlap(a: SpectralDensityMatrix, b: SpectralDensityMatrix) -> float:
    """Hilbert-Schmidt overlap tr(rho_a rho_b); the distinguishability measure.

    Real for Hermitian inputs; the (rounding-level) imaginary residue is
    discarded.
    """
    a.grid.require_compatible(b.grid)
    value = complex(np.vdot(b.rho, a.rho)) * a.grid.d_omega**2
    return value.real


def hs_distance(a: np.ndarray, b: np.ndarray, grid: FrequencyGrid) -> float:
    """Hilbert-Schmidt distance sqrt(sum |a - b|^2 * d_omega^2) between kernels."""
    diff = np.asarray(a) - np.asarray(b)
    return math.sqrt(float(np.vdot(diff, diff).real)) * grid.d_omega


@dataclass(frozen=True)
class ValidationReport:
    """Deviations of a kernel from the density-matrix contract."""

    trace: float
    trace_deviation: float
    hermiticity_deviation: float
    min_eigenvalue: float
    max_eigenvalue: float
    min_diagonal: float
    trace_ok: bool
    hermitian_ok: bool
    psd_ok: bool
    diagonal_ok: bool

    @property
    def ok(self) -> bool:
        return self.trace_ok and self.hermitian_ok and self.psd_ok and self.diagonal_ok

    def summary(self) -> str:
        def mark(flag: bool) -> str:
            return "ok" if flag else "FAIL"

        return "\n".join(
            [
                f"trace        {self.trace:.12g} (deviation {self.trace_deviation:.3e}) [{mark(self.trace_ok)}]",
                f"hermiticity  max deviation {self.hermiticity_deviation:.3e} [{mark(self.hermitian_ok)}]",
                f"eigenvalues  min {self.min_eigenvalue:.3e}, max {self.max_eigenvalue:.3e} [{mark(self.psd_ok)}]",
                f"diagonal     min {self.min_diagonal:.3e} [{mark(self.diagonal_ok)}]",
            ]
        )


def validate(state, grid: FrequencyGrid | None = None) -> ValidationReport:
    """Report trace, Hermiticity, positivity and diagonal checks.

    Accepts a SpectralDensityMatrix or a raw matrix plus its grid. Raw
    matrices are symmetrized (`hermitian_part`, in a copy) only for the
    eigenvalue report; the Hermiticity deviation is measured on the input
    as given, a block of rows at a time, so a state's check makes no n x n
    temporary.
    """
    if isinstance(state, SpectralDensityMatrix):
        # Exactly Hermitian, so its symmetrized part is itself.
        m, grid = state.rho, state.grid
        w = state.eigenvalues()
    else:
        if grid is None:
            raise ValueError("grid is required when validating a raw matrix")
        m = np.asarray(state, dtype=np.complex128)
        if m.shape != (grid.n, grid.n):
            raise ValueError(f"matrix must have shape ({grid.n}, {grid.n}), got {m.shape}")
        w = _spectral_weights(hermitian_part(grid, m, renormalize=False), grid)
    herm_dev = _hermitian_deviation(m)
    tr = float(np.trace(m).real) * grid.d_omega
    min_eig, max_eig = float(w[0]), float(w[-1])
    diag = m.diagonal()
    min_diag = float(diag.real.min())
    diag_imag = float(np.max(np.abs(diag.imag)))
    return ValidationReport(
        trace=tr,
        trace_deviation=abs(tr - 1.0),
        hermiticity_deviation=herm_dev,
        min_eigenvalue=min_eig,
        max_eigenvalue=max_eig,
        min_diagonal=min_diag,
        trace_ok=abs(tr - 1.0) <= TRACE_TOL,
        hermitian_ok=herm_dev == 0.0,
        psd_ok=min_eig >= -PSD_TOL * max(max_eig, 0.0),
        diagonal_ok=diag_imag == 0.0 and min_diag >= -PSD_TOL,
    )


# ---------------------------------------------------------------------------
# Density-matrix interchange format (JSON)
# ---------------------------------------------------------------------------

def _reprs(values: np.ndarray) -> list[str]:
    """The shortest round-trip decimal of each float in `values`."""
    return list(map(float.__repr__, values.tolist()))


# Rows the density-matrix writer formats between packings of the strings
# that wait for their row below the diagonal.
_PACK_ROWS = 32


def _hermitian_rows(state: SpectralDensityMatrix, *, magnitude: bool = False):
    """Yield the repr strings of Re, Im and, if `magnitude`, abs of each row
    of the Hermitian fill of `state.rho`, as one list per component per row.

    The fill takes m[i, j] for i <= j and conj(m[j, i]) below the diagonal,
    so what is written is exactly Hermitian whatever the lower triangle holds.
    Row i formats its entries i..n-1 once each; entry (j, i) below the
    diagonal reuses the string of (i, j), sign-flipped for Im, which is
    exactly `repr(-x)` for finite x (0.0 becomes -0.0). Those strings wait
    for row j in a per-column list; every _PACK_ROWS rows each column's
    list is joined into one comma-separated string, split again only when
    its row is handed out. About n^2/4 entries per component wait at most,
    as a few bytes of packed text each rather than a string object apiece.
    Abs is `np.hypot` of the float64 Re and Im, not np.abs (numpy's
    vectorized complex abs differs from it in the last bit); it is within
    1 ulp of the correctly rounded `math.hypot` but not always equal to it.

    Where every Im on and above the diagonal is +0.0 bit for bit (a real
    kernel), row i's Im strings are i times "-0.0" then "0.0", taken as
    constants: Im is neither formatted nor kept waiting. The bits decide,
    not the value, because `repr(-0.0)` is "-0.0".
    """
    n = state.grid.n
    real = not any(state.rho[i, i:].imag.view(np.uint64).any() for i in range(n))
    flips = [False] + ([] if real else [True]) + ([False] if magnitude else [])
    packed = [[[] for _ in range(n)] for _ in flips]  # per column, joined blocks of strings
    below = [[[] for _ in range(n)] for _ in flips]  # per column, strings since the last pack
    for i in range(n):
        upper = state.rho[i, i:]
        parts = [upper.real] + ([] if real else [upper.imag])
        if magnitude:
            parts.append(np.hypot(upper.real, upper.imag))
        pack = (i + 1) % _PACK_ROWS == 0
        rows = []
        for values, flip, chunks, columns in zip(parts, flips, packed, below):
            above = _reprs(values)
            row = []
            for chunk in chunks[i]:
                row += chunk.split(",")
            row += columns[i]
            row += above
            chunks[i] = columns[i] = None
            tail = [s[1:] if s[0] == "-" else "-" + s for s in above[1:]] if flip else above[1:]
            deque(map(list.append, columns[i + 1 :], tail), maxlen=0)
            if pack:
                deque(map(list.append, chunks[i + 1 :], map(",".join, columns[i + 1 :])), maxlen=0)
                columns[i + 1 :] = [[] for _ in range(i + 1, n)]
            rows.append(row)
        if real:
            rows.insert(1, ["-0.0"] * i + ["0.0"] * (n - i))
        yield rows


HEATMAP_HEADER = "i,j,omega_i,omega_j,re,im,abs\n"


def _heatmap_text(grid: FrequencyGrid):
    """The heatmap CSV text of kernel row i from its Re, Im and abs strings,
    as a function of (i, re, im, abs)."""
    omegas = [float.__repr__(grid.omega(i)) for i in range(grid.n)]
    # Row i is the pieces i ",j," omega_i ",omega_j," re "," im "," abs "\n" of
    # each cell, joined in C; the pieces that vary only by column are built once.
    col_j = [f",{j}," for j in range(grid.n)]
    col_omega = [f",{w}," for w in omegas]
    comma, newline = repeat(","), repeat("\n")

    def text(i: int, re_row: list[str], im_row: list[str], abs_row: list[str]) -> str:
        cells = zip(
            repeat(str(i)), col_j, repeat(omegas[i]), col_omega,
            re_row, comma, im_row, comma, abs_row, newline,
        )
        return "".join(chain.from_iterable(cells))

    return text


def density_matrix_from_dict(doc: dict) -> SpectralDensityMatrix:
    """The state of a density-matrix document: `omega_min`, `d_omega`, `n`
    and `rho`, n*n [re, im] pairs of finite numbers (a list, or an
    (n*n, 2) array such as the float64 one the loader parses from a file).

    Raises DataFormatError for a malformed document, entries that are not
    pairs of finite numbers, a kernel whose max|K - K^dagger| exceeds
    HERMITIAN_TOL * max|K|, and a kernel that is not a physical density
    matrix. The Hermiticity check works a block of rows at a time. A
    float64 array in `doc` is copied, and the state holds the copy that
    `from_kernel` symmetrizes; the array made here from a list or from
    integer entries is symmetrized in place and held itself.
    """
    return _document_state(doc, own=False)


def _grid_fields(doc) -> tuple[float, float, int]:
    """`omega_min`, `d_omega` and `n` of a density-matrix document.

    `n` must be a JSON integer of at least 2 (not a float or a string; a
    bool is 0 or 1), checked here, before any entry is read, so every
    layout and `read_density_matrix_grid` reject a bad `n` with one
    DataFormatError; the other two fields are checked by `FrequencyGrid`.
    """
    omega_min, d_omega, n = float(doc["omega_min"]), float(doc["d_omega"]), doc["n"]
    if not isinstance(n, int) or n < 2:
        raise DataFormatError(f"n must be an integer of at least 2, got {n!r}")
    return omega_min, d_omega, n


def _document_state(doc: dict, *, own: bool) -> SpectralDensityMatrix:
    """`density_matrix_from_dict(doc)`; with `own`, `doc["rho"]` is the
    loader's own float64 array, and the state's kernel is symmetrized in it
    instead of in a copy."""
    try:
        omega_min, d_omega, n = _grid_fields(doc)
        pairs = doc["rho"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # float() of a huge integer overflows
        raise DataFormatError(f"malformed density-matrix document: {exc}") from exc
    try:
        entries = np.asarray(pairs)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise DataFormatError(f"kernel entries must be [re, im] pairs: {exc}") from exc
    count = len(entries) if entries.ndim else 0
    if count != n * n:
        raise DataFormatError(f"expected {n * n} kernel entries, got {count}")
    if entries.shape != (n * n, 2) or entries.dtype.kind not in "iuf":
        raise DataFormatError(
            f"kernel entries must be [re, im] pairs of numbers, got shape "
            f"{entries.shape} of {entries.dtype}"
        )
    entries = np.ascontiguousarray(entries, dtype=np.float64)
    own = own or (entries is not pairs and entries.base is None)  # made here, not `doc`'s
    if not np.isfinite(entries).all():
        raise DataFormatError("kernel entries must be finite numbers, found NaN or Infinity")
    kernel = entries.view(np.complex128).reshape(n, n)
    deviation = scale = 0.0  # max|K - K^dagger| and max|K|, a block of rows at a time
    for rows, mirror in _row_blocks(kernel):
        deviation = max(deviation, float(np.abs(rows - mirror.conj()).max()))
        scale = max(scale, float(np.abs(rows).max()))
    if deviation > HERMITIAN_TOL * scale:
        raise DataFormatError(
            f"kernel entries are not Hermitian: max|K - K^dagger| = {deviation:.3g} exceeds "
            f"{HERMITIAN_TOL:g} * max|K|"
        )
    try:
        grid = FrequencyGrid(omega_min=omega_min, d_omega=d_omega, n=n)
        if own:
            return SpectralDensityMatrix._from_hermitian(grid, _hermitize(grid, kernel, renormalize=False))
        return SpectralDensityMatrix.from_kernel(grid, kernel, renormalize=False)
    except ValueError as exc:
        raise DataFormatError(f"file does not hold a physical density matrix: {exc}") from exc


def save_density_matrix(
    path, state: SpectralDensityMatrix, units: str = DENSITY_MATRIX_UNITS, *, heatmap=None
) -> None:
    """Write `{omega_min, d_omega, n, units, rho}` JSON, `rho` as row-major [re, im] pairs,
    and, given a `heatmap` path, the CSV `i,j,omega_i,omega_j,re,im,abs` there.

    Both files are written in one pass over the rows of `_hermitian_rows`:
    the lower triangle is derived from the upper, so the file is exactly
    Hermitian, and the bytes are those `json.dumps` gives for the same
    document. The heatmap has one row per kernel entry in row-major order,
    its re and im the very strings of the JSON and abs the `np.hypot` of
    their values, all shortest round-trip decimals. Beside the state, the
    save holds one row's strings and the packed text of the entries that
    wait for their row below the diagonal, at most about n^2/4 per
    component at some 20 bytes each.
    """
    grid = state.grid
    header = json.dumps(
        {"omega_min": grid.omega_min, "d_omega": grid.d_omega, "n": grid.n, "units": units, "rho": []}
    )
    with ExitStack() as files:
        if heatmap is not None:  # opened first: a path that fails leaves the JSON untouched
            h = files.enter_context(open(heatmap, "w", newline="\n"))
            h.write(HEATMAP_HEADER)
            heatmap_text = _heatmap_text(grid)
        f = files.enter_context(open(path, "w"))
        f.write(header[:-2])  # drop the closing "]}" of the empty rho list
        for i, (re_row, im_row, *abs_row) in enumerate(_hermitian_rows(state, magnitude=heatmap is not None)):
            f.write(", " if i else "")
            f.write(", ".join([f"[{a}, {b}]" for a, b in zip(re_row, im_row)]))
            if heatmap is not None:
                h.write(heatmap_text(i, re_row, im_row, *abs_row))
        f.write("]}\n")


# A run of `rho` pairs as `save_density_matrix` writes them: [re, im] pairs of
# finite floats exactly as `float.__repr__` spells them, each a valid JSON
# number, matched on the file's bytes (such text is ASCII). The possessive
# repeat `*+` (Python 3.11) keeps no backtracking state per pair.
_REPR_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)"
_REPR_PAIR = rf"\[{_REPR_FLOAT}, {_REPR_FLOAT}\]"
_PAIRS = re.compile(rf"{_REPR_PAIR}(?:, {_REPR_PAIR})*+".encode())
_RHO_KEY = b'"rho": '
# Bytes of a file read per block after its head, so a load holds one block
# of text beside the array parsed from it.
_PARSE_CHARS = 1 << 18


def _rewindable(path):
    """The file at `path` open for binary reads as a handle that can go back
    to its start: a regular file as opened, any other (a pipe, say) read
    once into an in-memory file, which then holds its bytes whole."""
    f = open(path, "rb")
    if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
        return f
    with f:
        return io.BytesIO(f.read())


def _head(f) -> tuple[bytes, bytes]:
    """The bytes of the binary file `f` up to and including its first
    `"rho": `, read 64 kB at a time, and the bytes read past them; two
    empty strings if it has no `"rho": `."""
    head = bytearray()
    while block := f.read(1 << 16):
        seen = max(len(head) - len(_RHO_KEY) + 1, 0)
        head += block
        key = head.find(_RHO_KEY, seen)
        if key >= 0:
            end = key + len(_RHO_KEY)
            return bytes(head[:end]), bytes(head[end:])
    return b"", b""


def _head_document(head: bytes) -> dict | None:
    """The document that `head`, a file's bytes up to its first `"rho": `,
    begins, else None.

    The head is decoded as `_json_read` decodes the file; with `[]}`
    appended it must be a JSON object whose `rho` is `[]`, and that object,
    grid fields and all, is returned.
    """
    try:
        doc = json.loads(head.decode(locale.getpreferredencoding(False)) + "[]}")
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return doc if isinstance(doc, dict) and doc.get("rho") == [] else None


def _read_pairs(f, rest: bytes, count: int) -> np.ndarray | None:
    """The (count, 2) float64 array of a `rho` list that `rest`, the bytes
    read past a file's head, begins and the remainder of the binary file `f`
    continues, read _PARSE_CHARS bytes at a time; else None.

    The list must hold `count` pairs that `_PAIRS` matches, and only `}` and
    JSON whitespace may follow it. Each block is cut after its last pair,
    matched and parsed by numpy with the values `float()` gives, so every
    number is parsed as in one piece and no Python object is made per entry;
    a block that completes no pair ends the attempt. The array is sized only
    if the file, as long as `f` seeks to its end, can hold `count` pairs.
    """
    at = f.tell()
    size = f.seek(0, os.SEEK_END)
    f.seek(at)
    if size < 10 * count:  # a pair takes 10 bytes or more: [0.0, 0.0]
        return None
    out = np.empty((count, 2))
    row, text = 0, bytearray(rest)
    while True:
        block = f.read(_PARSE_CHARS)
        text += block
        if block:
            cut = text.rfind(b"], [")
            if cut < 0:
                if len(text) > _PARSE_CHARS + 64:  # no pair is this long: not laid out so
                    return None
                continue
            piece = bytes(text[: cut + 1])
            del text[: cut + 3]  # up to the next pair's "["
        else:
            piece = bytes(text.rstrip(b" \t\n\r"))
            if not piece.endswith(b"]}"):
                return None
            piece = piece[:-2]
        if row == 0:  # the list's own "[" opens the first block
            if piece[:1] != b"[":
                return None
            piece = piece[1:]
        if not _PAIRS.fullmatch(piece):
            return None
        pairs = np.fromstring(piece.translate(None, b"[]"), sep=",").reshape(-1, 2)
        if row + len(pairs) > count:
            return None
        out[row : row + len(pairs)] = pairs
        row += len(pairs)
        if not block:
            return out if row == count else None


def _json_read(path, f, read):
    """`read(doc)` of the document that `json.loads` makes of `f`, the file
    at `path` as `_rewindable` opens it, read from its start and decoded
    once as `open(path)` decodes it, universal newlines included; the
    document must be a JSON object. Errors name `path`.

    The cyclic GC is paused from the parse until the document is freed, then
    restored to its prior state: json.loads builds a list per entry, and a
    collection would walk them all, during the parse, or at the first
    allocation after it if the GC were paused for the parse alone.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        try:
            f.seek(0)
            decoded = io.TextIOWrapper(f, encoding=locale.getpreferredencoding(False))
            try:
                text = decoded.read()
            finally:
                decoded.detach()  # `f` stays open for the caller
            doc = json.loads(text)
            del text
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataFormatError(f"{path}: expected a JSON object")
        value = read(doc)
        del doc  # free the lists before the GC is restored
        return value
    finally:
        if collecting:
            gc.enable()


def _document_grid(doc: dict | None) -> FrequencyGrid | None:
    """The grid that the fields of a density-matrix document make, else None."""
    try:
        return FrequencyGrid(*_grid_fields(doc))
    except (KeyError, TypeError, ValueError, OverflowError, DataFormatError):
        return None


def _streamed_document(f) -> dict | None:
    """The document of the binary file `f` if it is laid out as
    `save_density_matrix` writes it, its `rho` the (n*n, 2) float64 array
    `_read_pairs` parses, else None.

    Such a file is `<head>"rho": <body>}` plus JSON whitespace, where
    `<head>"rho": []}` is a JSON object whose grid fields make a grid of n
    points (see `_head_document`) and `<body>` is a list of n*n pairs that
    `_PAIRS` matches. It is then valid JSON whose last key is `rho`, so
    `json.loads` of its text gives the same dict with `rho` as lists.
    """
    head, rest = _head(f)
    doc = _head_document(head)
    grid = _document_grid(doc)
    pairs = _read_pairs(f, rest, grid.n * grid.n) if grid else None
    if pairs is None:
        return None
    doc["rho"] = pairs
    return doc


def load_density_matrix(path) -> SpectralDensityMatrix:
    """Read a density-matrix JSON file: any JSON object `density_matrix_from_dict` accepts.

    The file is opened once, by `_rewindable`, and parsed as it is read:
    its head up to `"rho": `, then, for a file laid out as
    `save_density_matrix` writes it, its `rho` list block by block into one
    float64 array (see `_streamed_document`), so its text is never held
    whole. Any other file, including one found not to be so laid out after
    its head, is read again from its start on the same handle and parsed by
    `json.loads` of its text as `open(path)` decodes it, with the cyclic GC
    paused until the parsed lists are freed (see `_json_read`). The route
    depends only on the file's bytes, and the kernel bits or the error are
    those of the `json.loads` route alone. Either way the float64 array
    parsed from `rho` becomes the state's kernel, symmetrized in place: a
    load makes no second n x n copy. A file that is not regular (a pipe,
    say) is read once into memory and held there through the load; its
    bytes take the route a regular file's would.
    """
    with _rewindable(path) as f:
        doc = _streamed_document(f)
        if doc is None:
            return _json_read(path, f, density_matrix_from_dict)
    return _document_state(doc, own=True)


def read_density_matrix_grid(path) -> FrequencyGrid:
    """The grid of a density-matrix file, without its kernel.

    The file is opened once, as the loader opens it, and read only up to
    `"rho": ` by the loader's `_head`; the grid comes from that head as
    the loader decodes it. Any other file, or a head whose fields make no
    grid, is read again from its start on the same handle and parsed as
    `load_density_matrix` parses it through `json.loads`. The kernel is not
    checked, so a file whose kernel the loader rejects may still give its
    grid here; where the document makes no grid, the error is the one
    `load_density_matrix` raises for the file. A file with a key repeated
    after `rho` may load on another grid than its head names. A file that
    is not regular is read once into memory, as the loader reads it, so it
    cannot be read again for its kernel.
    """
    with _rewindable(path) as f:
        head, _ = _head(f)
        # Where the fields make no grid, the loader's own error for the
        # document, which may be about the entries: it checks them first.
        return _document_grid(_head_document(head)) or _json_read(
            path, f, lambda doc: _document_grid(doc) or density_matrix_from_dict(doc).grid
        )
