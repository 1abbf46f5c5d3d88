"""Forward model of the scanning Mach-Zehnder interferometer.

One arm carries an acousto-optic frequency shift delta = delta_index * d_omega
followed by a phase shifter theta; the other arm a time delay tau. After the
recombining 50/50 beamsplitter, the post-selected port-A detection
probability reads out

    P_A = 1/2 + 1/2 * Re[gamma * exp(i*theta) * G_delta(tau)],

where G_delta(tau) = sum_i exp(-i*tau*omega_i) * rho[i, i-k] * d_omega is the
Fourier transform of the kernel band shifted by k = delta_index, and gamma is
the transverse-mode overlap of the two arms at the recombiner. The package
computes P_A in one place: `band_transforms` stacks the G_delta rows of a
whole scan, each a phase ramp times one FFT of a kernel band
(`cross_section_transform`). The test suite checks this path against two
independent per-setting references, the trace of the composed conditional
state and a direct Riemann sum of the four-term probability integrand.

Frequency shifts are grid-aligned only (delta = k * d_omega), so shifted
kernels stay on the grid with no interpolation; entries shifted past the grid
edge are dropped as zeros, and the trace mass lost that way triggers a
support-clipping diagnostic above CLIP_WARN.
"""

from __future__ import annotations

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
    transverse-mode overlap; |gamma| scales the fringe visibility.
    `max_delta` is an advisory hardware limit on the frequency shift.
    """

    xi: float = 1.0
    gamma: complex = 1.0 + 0.0j
    compensate_loss: bool = False
    detector_efficiency: float = 1.0
    max_delta: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.xi <= 1.0:
            raise ValueError(f"xi must be in [0, 1], got {self.xi}")
        if abs(self.gamma) > 1.0 + 1e-12:
            raise ValueError(f"|gamma| must be <= 1, got {abs(self.gamma)}")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ValueError(
                f"detector_efficiency must be in (0, 1], got {self.detector_efficiency}"
            )
        if self.max_delta is not None and self.max_delta <= 0:
            raise ValueError(f"max_delta must be positive, got {self.max_delta}")

    @property
    def post_selection_rate(self) -> float:
        return self.xi * self.detector_efficiency


def require_post_selected_regime(config: InterferometerConfig) -> None:
    """The post-selected model holds only for xi = 1 or matched loss."""
    if config.xi < 1.0 and not config.compensate_loss:
        raise ValueError(
            "xi < 1 without compensate_loss unbalances the interferometer; "
            "post-selected statistics are not modeled in that regime"
        )


def _check_delta(state: SpectralDensityMatrix, delta_index: int) -> int:
    if not 0 <= delta_index < state.grid.n:
        raise ValueError(
            f"delta_index must be in [0, {state.grid.n - 1}], got {delta_index}"
        )
    return delta_index


def _lower_band(m: np.ndarray, k: int) -> np.ndarray:
    """g[i] = m[i, i-k] for i >= k, zero otherwise."""
    g = np.zeros(m.shape[0], dtype=np.complex128)
    g[k:] = np.diagonal(m, -k)
    return g


def shifted_trace_deficit(state: SpectralDensityMatrix, delta_index: int) -> float:
    """Trace mass that a shift by delta_index pushes past the grid edge."""
    k = _check_delta(state, delta_index)
    if k == 0:
        return 0.0
    diag = state.rho.diagonal().real
    return float(diag[state.grid.n - k :].sum()) * state.grid.d_omega


def _warn_clipping(deficit: float, delta_index: int) -> None:
    if deficit > CLIP_WARN:
        emit(
            "support-clipping",
            f"shift by delta_index={delta_index} pushes {deficit:.3e} of the trace "
            "mass off the grid",
            delta_index=delta_index,
            clipped_mass=deficit,
        )


def cross_section_transform(state: SpectralDensityMatrix, delta_index: int) -> np.ndarray:
    """G_delta on the conjugate delay grid.

    G(tau_j) = sum_i exp(-i*tau_j*omega_i) * rho[i, i-k] * d_omega, with
    out-of-grid band entries treated as zero. Factors into a phase ramp from
    omega_min times a plain forward FFT, which is what makes the inversion
    exact. Memoized per (state, delta_index); |G| <= 1 by Cauchy-Schwarz.
    """
    k = _check_delta(state, delta_index)
    key = ("cross_section", k)
    g = state.cache.get(key)
    if g is None:
        grid = state.grid
        band = _lower_band(state.rho, k)
        g = np.exp(-1j * grid.taus * grid.omega_min) * np.fft.fft(band) * grid.d_omega
        g.flags.writeable = False
        state.cache[key] = g
    return g


def band_transforms(state: SpectralDensityMatrix, delta_indices) -> np.ndarray:
    """G_delta for several shifts as one (len(delta_indices), n) array.

    Row r is `cross_section_transform(state, delta_indices[r])`. A band that
    pushes mass off the grid emits its support-clipping diagnostic once here,
    not once per setting that reads it.
    """
    rows = []
    for k in delta_indices:
        rows.append(cross_section_transform(state, k))
        _warn_clipping(shifted_trace_deficit(state, k), k)
    return np.array(rows).reshape(len(rows), state.grid.n)
