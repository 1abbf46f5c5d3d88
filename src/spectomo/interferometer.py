"""Forward model of the scanning Mach-Zehnder interferometer.

One arm carries an acousto-optic frequency shift delta = delta_index * d_omega
followed by a phase shifter theta; the other arm a time delay tau. After the
recombining 50/50 beamsplitter, the post-selected port-A detection
probability reads out

    P_A = 1/2 + 1/2 * Re[gamma * exp(i*theta) * G_delta(tau)],

where G_delta(tau) = sum_i exp(-i*tau*omega_i) * rho[i, i-k] * d_omega is the
Fourier transform of the kernel band shifted by k = delta_index, and gamma is
the transverse-mode overlap of the two arms at the recombiner. The package
computes G_delta in one place: `cross_section_transform` gathers the kernel
bands of a whole scan into one (bands, n) array and takes a phase ramp times
one FFT along the delay axis. The test suite checks this path against two
independent per-setting references, the trace of the composed conditional
state and a direct Riemann sum of the four-term probability integrand.

Frequency shifts are grid-aligned only (delta = k * d_omega), so shifted
kernels stay on the grid with no interpolation; entries shifted past the grid
edge are dropped as zeros, and the trace mass lost that way triggers a
support-clipping diagnostic above CLIP_WARN (`warn_support_clipping`).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import CLIP_WARN, SpectralDensityMatrix
from .diagnostics import emit


@dataclass(frozen=True)
class MeasurementSetting:
    """One interferometer configuration: delay tau (s), grid-aligned shift
    delta = delta_index * d_omega (rad/s), phase theta (rad)."""

    tau: float
    delta_index: int
    theta: float

    def __post_init__(self):
        if self.delta_index < 0:
            raise ValueError(f"delta_index must be nonnegative, got {self.delta_index}")


@dataclass(frozen=True)
class InterferometerConfig:
    """Hardware parameters of the apparatus.

    xi is the AOM conversion efficiency; with xi < 1 and `compensate_loss`
    the delay arm is attenuated to the same amplitude sqrt(xi), which leaves
    the post-selected statistics untouched and multiplies the post-selection
    success rate by xi * detector_efficiency. gamma is the (possibly complex)
    transverse-mode overlap; |gamma| scales the fringe visibility. The
    post-selected model holds only for xi = 1 or matched loss, so xi < 1
    without `compensate_loss` is rejected at construction. xi = 0 is
    rejected too: it post-selects no shot at all. gamma must be finite.
    """

    xi: float = 1.0
    gamma: complex = 1.0 + 0.0j
    compensate_loss: bool = False
    detector_efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.xi <= 1.0:
            raise ValueError(f"xi must be in (0, 1], got {self.xi}")
        if not cmath.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not abs(self.gamma) <= 1.0 + 1e-12:
            raise ValueError(f"|gamma| must be <= 1, got {abs(self.gamma)}")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError(
                f"detector_efficiency must be in (0, 1], got {self.detector_efficiency}"
            )
        if self.xi < 1.0 and not self.compensate_loss:
            raise ValueError(
                "xi < 1 without compensate_loss unbalances the interferometer; "
                "post-selected statistics are not modeled in that regime"
            )

    @property
    def post_selection_rate(self) -> float:
        return self.xi * self.detector_efficiency


def _band_indices(state: SpectralDensityMatrix, delta_indices) -> np.ndarray:
    """The shifts as a 1-D int64 array, each checked to be an integer in [0, n)."""
    values = [delta_indices] if np.ndim(delta_indices) == 0 else delta_indices
    n = state.grid.n
    for k in values:
        if not (isinstance(k, (int, np.integer)) and 0 <= k < n):
            raise ValueError(f"delta_index must be an integer in [0, {n - 1}], got {k}")
    return np.array(values, dtype=np.int64).reshape(-1)


def warn_support_clipping(state: SpectralDensityMatrix, delta_indices) -> None:
    """Emit one support-clipping diagnostic per shift, in the order given, that
    pushes more than CLIP_WARN of the trace mass past the grid edge."""
    diag = state.rho.diagonal().real
    for k in _band_indices(state, delta_indices).tolist():
        deficit = float(diag[state.grid.n - k :].sum()) * state.grid.d_omega
        if deficit > CLIP_WARN:
            emit(
                "support-clipping",
                f"shift by delta_index={k} pushes {deficit:.3e} of the trace mass off the grid",
                delta_index=k,
                clipped_mass=deficit,
            )


def cross_section_transform(state: SpectralDensityMatrix, delta_indices) -> np.ndarray:
    """G_delta on the conjugate delay grid, for one shift or several.

    G(tau_j) = sum_i exp(-i*tau_j*omega_i) * rho[i, i-k] * d_omega, with
    out-of-grid band entries treated as zero. Factors into a phase ramp from
    omega_min times a plain forward FFT, which is what makes the inversion
    exact. An int gives the (n,) row; a sequence gives a (len, n) array whose
    rows come from one FFT along the delay axis. |G| <= 1 by Cauchy-Schwarz.
    """
    k = _band_indices(state, delta_indices)
    grid = state.grid
    i = np.arange(grid.n)
    # rho[i, i - k] through the flat index i*(n + 1) - k, zero where i < k.
    g = state.rho.take(i * (grid.n + 1) - k[:, None], mode="clip")
    g[i < k[:, None]] = 0.0
    g = np.fft.fft(g, axis=-1)
    # In place, so that one (bands, n) array is alive, with the operand order
    # ramp * FFT * d_omega that fixes every row's bits.
    np.multiply(np.exp(-1j * grid.taus * grid.omega_min), g, out=g)
    g *= grid.d_omega
    return g[0] if np.ndim(delta_indices) == 0 else g
