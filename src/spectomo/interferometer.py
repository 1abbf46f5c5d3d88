"""Forward model of the scanning Mach-Zehnder interferometer.

One arm carries an acousto-optic frequency shift delta = delta_index * d_omega
followed by a phase shifter theta; the other arm a time delay tau. After the
recombining 50/50 beamsplitter, the post-selected port-A detection
probability reads out

    P_A = 1/2 + 1/2 * Re[gamma * exp(i*theta) * G_delta(tau)],

where G_delta(tau) = sum_i exp(-i*tau*omega_i) * rho[i, i-k] * d_omega is the
Fourier transform of the kernel band shifted by k = delta_index, and gamma is
the transverse-mode overlap of the two arms at the recombiner. Three
independent routes to the same number are provided: the composed conditional
state (its trace), a direct Riemann sum of the four-term probability
integrand, and the closed form through `cross_section_transform`. The direct
Riemann sum is the authoritative sign convention. `band_transforms` stacks
the closed form's G_delta rows for a whole scan.

Frequency shifts are grid-aligned only (delta = k * d_omega), so shifted
kernels stay on the grid with no interpolation; entries shifted past the grid
edge are dropped as zeros, and the trace mass lost that way triggers a
support-clipping diagnostic above CLIP_WARN.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .core import CLIP_WARN, PSD_TOL, SpectralDensityMatrix
from .diagnostics import emit
from .errors import GridMismatchError

_EPS = float(np.finfo(np.float64).eps)


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

    def delta(self, grid) -> float:
        return self.delta_index * grid.d_omega


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
    require_post_selected_regime(config)
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
    _warn_clipping(shifted_trace_deficit(state, k), k)
    p_a = min(max(p_raw, 0.0), 1.0)
    if p_a < 1e-12:
        return None, p_a
    # Float cancellation near dark settings perturbs eigenvalues by ~eps/p_A
    # even though the exact kernel is positive; widen the check accordingly.
    psd_tol = max(PSD_TOL, 16.0 * grid.n * _EPS / p_a)
    out = SpectralDensityMatrix.from_kernel(grid, kernel, renormalize=True, psd_tol=psd_tol)
    return out, p_a


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
    _warn_clipping(t1 - t4, k)
    p_a = min(max(float(t1 + t4 + cross) / 4.0, 0.0), 1.0)
    return p_a, 1.0 - p_a


def cross_section_transform(state: SpectralDensityMatrix, delta_index: int) -> np.ndarray:
    """G_delta on the conjugate delay grid.

    G(tau_j) = sum_i exp(-i*tau_j*omega_i) * rho[i, i-k] * d_omega, with
    out-of-grid band entries treated as zero. Factors into a phase ramp from
    omega_min times a plain forward FFT, which is what makes the inversion
    exact. Memoized per (state, delta_index); |G| <= 1 by Cauchy-Schwarz.
    """
    return _cross_section_cached(state, delta_index)[0]


def _cross_section_cached(
    state: SpectralDensityMatrix, delta_index: int
) -> tuple[np.ndarray, float]:
    k = _check_delta(state, delta_index)
    key = ("cross_section", k)
    hit = state.cache.get(key)
    if hit is None:
        grid = state.grid
        band = _lower_band(state.rho, k)
        g = np.exp(-1j * grid.taus * grid.omega_min) * np.fft.fft(band) * grid.d_omega
        g.flags.writeable = False
        hit = (g, shifted_trace_deficit(state, k))
        state.cache[key] = hit
    return hit


def band_transforms(state: SpectralDensityMatrix, delta_indices) -> np.ndarray:
    """G_delta for several shifts as one (len(delta_indices), n) array.

    Row r is `cross_section_transform(state, delta_indices[r])`. A band that
    pushes mass off the grid emits its support-clipping diagnostic once here,
    not once per setting that reads it.
    """
    rows = []
    for k in delta_indices:
        g, deficit = _cross_section_cached(state, k)
        _warn_clipping(deficit, k)
        rows.append(g)
    return np.array(rows).reshape(len(rows), state.grid.n)


def probabilities_closed_form(
    state: SpectralDensityMatrix,
    setting: MeasurementSetting,
    config: InterferometerConfig,
) -> tuple[float, float]:
    """Closed-form probabilities P_A = 1/2 + Re[gamma e^{i theta} G_delta(tau)]/2.

    Valid for tau on the conjugate delay grid; off-grid delays fall back to
    the direct quadrature.
    """
    grid = state.grid
    pos = setting.tau / grid.d_tau
    j = int(round(pos))
    if not 0 <= j < grid.n or abs(setting.tau - j * grid.d_tau) > 1e-9 * max(
        grid.d_tau, abs(setting.tau)
    ):
        return probabilities_quadrature(state, setting, config)
    g, deficit = _cross_section_cached(state, setting.delta_index)
    _warn_clipping(deficit, setting.delta_index)
    value = (complex(config.gamma) * cmath.exp(1j * setting.theta) * complex(g[j])).real
    p_a = min(max(0.5 + 0.5 * value, 0.0), 1.0)
    return p_a, 1.0 - p_a


def spatial_overlap(mode_a, mode_b, dx: float, dy: float) -> complex:
    """Transverse-mode overlap gamma = sum conj(psi) * psi' * dx * dy.

    Both modes must be sampled on the same 2-D grid and normalized to
    sum |psi|^2 dx dy = 1; |gamma| <= 1 then follows from Cauchy-Schwarz.
    """
    a = np.asarray(mode_a, dtype=np.complex128)
    b = np.asarray(mode_b, dtype=np.complex128)
    if a.ndim != 2 or a.shape != b.shape:
        raise GridMismatchError(f"modes must share one 2-D grid, got {a.shape} vs {b.shape}")
    if not (dx > 0 and dy > 0):
        raise ValueError("dx and dy must be positive")
    area = dx * dy
    for name, mode in (("first", a), ("second", b)):
        norm = float(np.vdot(mode, mode).real) * area
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"{name} mode is not normalized: sum |psi|^2 dx dy = {norm!r}")
    return complex(np.vdot(a, b)) * area
