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

import json
import math
import re
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path

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
    `from_kernel` and `reconstruction.project_physical` hand over a kernel
    they built for the purpose through `_owning`, which runs the same
    checks on it and holds it without a copy. The checks work a block of
    rows at a time, so no n x n complex temporary is made beside the kernel.

    The `cache` dict memoizes the eigenvalues, the one derived quantity read
    more than once; it is append-only and excluded from equality. Neither
    the cross-section transforms nor the written text are cached.
    """

    grid: FrequencyGrid
    rho: np.ndarray
    cache: dict = field(default_factory=dict, compare=False, repr=False)

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
        if not _is_exactly_hermitian(m):  # the deviation array only for the message
            herm_dev = float(np.max(np.abs(m - m.conj().T)))
            raise ValueError(
                f"kernel must be exactly Hermitian (max deviation {herm_dev:.3e}); "
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
        m = hermitian_part(grid, kernel, renormalize=renormalize)
        w = np.linalg.eigvalsh(m) * grid.d_omega
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
            w = np.linalg.eigvalsh(self.rho) * self.grid.d_omega
            w.flags.writeable = False
            self.cache["eigenvalues"] = w
        return w


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
    return SpectralDensityMatrix.from_kernel(psi.grid, kernel, renormalize=False)


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
    return SpectralDensityMatrix.from_kernel(grid, kernel)


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
    return SpectralDensityMatrix.from_kernel(psi.grid, kernel, renormalize=False)


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
    return SpectralDensityMatrix.from_kernel(grid, kernel)


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
    matrices are symmetrized only for the eigenvalue report; the Hermiticity
    deviation is measured on the input as given.
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
        w = np.linalg.eigvalsh((m + m.conj().T) / 2.0) * grid.d_omega
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
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
    """
    n = state.grid.n
    flips = (False, True, False) if magnitude else (False, True)
    packed = [[[] for _ in range(n)] for _ in flips]  # per column, joined blocks of strings
    below = [[[] for _ in range(n)] for _ in flips]  # per column, strings since the last pack
    for i in range(n):
        upper = state.rho[i, i:]
        parts = [upper.real, upper.imag]
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
    and `rho`, n*n [re, im] pairs of finite numbers (a list, or the
    (n*n, 2) float64 array `_canonical_document` makes).

    Raises DataFormatError for a malformed document, entries that are not
    pairs of finite numbers, a kernel whose max|K - K^dagger| exceeds
    HERMITIAN_TOL * max|K|, and a kernel that is not a physical density
    matrix. The Hermiticity check works a block of rows at a time, and
    the state holds one copy of the kernel beside `doc`'s, the one
    `from_kernel` symmetrizes.
    """
    try:
        omega_min = float(doc["omega_min"])
        d_omega = float(doc["d_omega"])
        n = int(doc["n"])
        pairs = doc["rho"]
    except (KeyError, TypeError, ValueError) as exc:
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


# The `rho` value as `save_density_matrix` writes it: [re, im] pairs of finite
# floats exactly as `float.__repr__` spells them, each a valid JSON number. The
# possessive repeat `*+` (Python 3.11) keeps no backtracking state per pair; a
# plain `*` held about 0.9 GB matching an n=1024 file.
_REPR_FLOAT = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)"
_REPR_PAIR = rf"\[{_REPR_FLOAT}, {_REPR_FLOAT}\]"
_CANONICAL_RHO = re.compile(rf"\[(?:{_REPR_PAIR}(?:, {_REPR_PAIR})*+)?\]")
_RHO_KEY = '"rho": '
_DROP_BRACKETS = str.maketrans("", "", "[]")
# Characters of `rho` text parsed per block: the text's copies stay near
# 1 MB, so a load holds the file's text and its array, not three texts.
_PARSE_CHARS = 1 << 20


def _parse_pairs(text: str, start: int, stop: int) -> np.ndarray:
    """The (entries, 2) float64 array of text[start:stop], a `rho` list that
    matches `_CANONICAL_RHO`, parsed by numpy about _PARSE_CHARS at a time.

    Blocks end between two pairs, so every number is parsed as in one pass.
    """
    out = np.empty((text.count("[", start + 1, stop), 2))
    row, pos, stop = 0, start + 1, stop - 1  # inside the list's brackets
    while pos < stop:
        cut = text.find("], [", min(pos + _PARSE_CHARS, stop), stop)
        end = stop if cut < 0 else cut + 1
        block = np.fromstring(text[pos:end].translate(_DROP_BRACKETS), sep=",")
        out[row : row + len(block) // 2] = block.reshape(-1, 2)
        row += len(block) // 2
        pos = end + 2  # past the ", " between pairs
    return out


def _canonical_document(text: str) -> dict | None:
    """The document of a text laid out as `save_density_matrix` writes it, else None.

    Such a text is `<head>"rho": <body>}` plus JSON whitespace, where `<body>`
    matches `_CANONICAL_RHO` and `<head>"rho": []}` is a JSON object whose
    `rho` is `[]`. It is then valid JSON whose last key is `rho`, so
    `json.loads(text)` gives the same dict; here `rho` comes back as an
    (entries, 2) float64 array parsed by numpy block by block (see
    `_parse_pairs`), with the values `float()` gives each number, and no
    Python object per entry.
    """
    key = text.find(_RHO_KEY)
    if key < 0:
        return None
    start = key + len(_RHO_KEY)
    end = len(text)
    while end > start and text[end - 1] in " \t\n\r":
        end -= 1
    if end <= start or text[end - 1] != "}" or not _CANONICAL_RHO.fullmatch(text, start, end - 1):
        return None
    try:
        doc = json.loads(text[:start] + "[]}")
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict) or doc.get("rho") != []:
        return None
    doc["rho"] = _parse_pairs(text, start, end - 1)
    return doc


def load_density_matrix(path) -> SpectralDensityMatrix:
    """Read a density-matrix JSON file: any JSON object `density_matrix_from_dict` accepts.

    Text laid out as `save_density_matrix` writes it skips `json.loads` for
    its `rho` list (see `_canonical_document`); any other text is read by
    `json.loads`. Both give bit-identical kernels and the same errors.
    """
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    doc = _canonical_document(text)
    if doc is None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise DataFormatError(f"{path}: expected a JSON object")
    del text  # free the text before the kernel checks
    return density_matrix_from_dict(doc)
