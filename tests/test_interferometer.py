import cmath
import math

import numpy as np
import pytest

from spectomo import (
    DiagnosticWarning,
    InterferometerConfig,
    MeasurementSetting,
    cross_section_transform,
    density_from_pure,
    gaussian_pure,
    make_grid,
)
from conftest import random_contained_state, random_psd_state
from oracles import (
    apply_aom,
    conditional_state,
    probabilities_closed_form,
    probabilities_quadrature,
)

IDEAL = InterferometerConfig()


def _pure(grid, omega0=0.0, sigma=1.0, chirp=0.0):
    return density_from_pure(gaussian_pure(grid, omega0, sigma, chirp=chirp))


# ---------------------------------------------------------------------------
# apply_aom
# ---------------------------------------------------------------------------

def test_aom_identity_shift(grid64):
    rho = _pure(grid64)
    np.testing.assert_array_equal(apply_aom(rho, 0, 1.0), rho.rho)


def test_aom_full_conversion_loss(grid64):
    rho = _pure(grid64)
    assert np.all(apply_aom(rho, 5, 0.0) == 0.0)


def test_aom_shifts_gaussian_center(grid64):
    # Oracle: a shift by k bins must reproduce the kernel of a Gaussian
    # generated k bins higher, entry for entry (away from the clipped edge).
    k = 8
    rho = _pure(grid64, omega0=-2.0)
    shifted = apply_aom(rho, k, 1.0)
    target = _pure(grid64, omega0=-2.0 + k * grid64.d_omega)
    np.testing.assert_allclose(shifted[k:, k:], target.rho[k:, k:], atol=1e-12)


def test_aom_rejects_bad_arguments(grid64):
    rho = _pure(grid64)
    with pytest.raises(ValueError):
        apply_aom(rho, grid64.n, 1.0)
    with pytest.raises(ValueError):
        apply_aom(rho, -1, 1.0)
    with pytest.raises(ValueError):
        apply_aom(rho, 0, 1.5)


# ---------------------------------------------------------------------------
# conditional_state
# ---------------------------------------------------------------------------

def test_balanced_setting_returns_input(grid64):
    rho = _pure(grid64, chirp=0.3)
    out, p_a = conditional_state(rho, MeasurementSetting(0.0, 0, 0.0), IDEAL)
    assert p_a == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(out.rho, rho.rho, atol=1e-14)


def test_dark_port_setting(grid64):
    rho = _pure(grid64)
    out, p_a = conditional_state(rho, MeasurementSetting(0.0, 0, math.pi), IDEAL)
    assert out is None
    assert p_a == pytest.approx(0.0, abs=1e-12)


def test_conditional_state_term_traces():
    # Oracle: rebuild each of the four kernel terms and compare 4*p_A against
    # the sum of their traces.
    rng = np.random.default_rng(5)
    grid = make_grid(0.0, 20.0, 32)
    rho = random_psd_state(rng, grid)
    k = 3
    tau = 4 * grid.d_tau
    theta = 0.9
    gamma = 0.8 * cmath.exp(1j * 0.4)
    config = InterferometerConfig(gamma=gamma)
    _, p_a = conditional_state(rho, MeasurementSetting(tau, k, theta), config)

    m = rho.rho
    w = grid.omegas
    n = grid.n
    t1 = sum(m[i, i] for i in range(n))
    t2 = gamma * cmath.exp(1j * theta) * sum(
        cmath.exp(-1j * tau * w[i]) * m[i, i - k] for i in range(k, n)
    )
    t3 = gamma.conjugate() * cmath.exp(-1j * theta) * sum(
        cmath.exp(1j * tau * w[i]) * m[i - k, i] for i in range(k, n)
    )
    t4 = sum(m[i - k, i - k] for i in range(k, n))
    total = (t1 + t2 + t3 + t4).real * grid.d_omega
    assert 4.0 * p_a == pytest.approx(total, abs=1e-10)


def test_conditional_state_requires_post_selected_regime(grid64):
    rho = _pure(grid64)
    setting = MeasurementSetting(0.0, 0, 0.0)
    with pytest.raises(ValueError, match="compensate_loss"):
        conditional_state(rho, setting, InterferometerConfig(xi=0.5))
    out, p_a = conditional_state(
        rho, setting, InterferometerConfig(xi=0.5, compensate_loss=True)
    )
    assert p_a == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# probabilities
# ---------------------------------------------------------------------------

def test_all_photons_exit_port_a(standard_states):
    setting = MeasurementSetting(0.0, 0, 0.0)
    for name, state in standard_states.items():
        p_a, p_b = probabilities_quadrature(state, setting, IDEAL)
        assert p_a == pytest.approx(1.0, abs=1e-12), name
        assert p_a + p_b == 1.0


def test_theta_antisymmetry(grid64):
    rho = _pure(grid64, chirp=0.4)
    rng = np.random.default_rng(3)
    for _ in range(10):
        tau = rng.uniform(0.0, 5.0)
        k = int(rng.integers(0, 6))
        theta = rng.uniform(0.0, 2 * math.pi)
        p1, _ = probabilities_quadrature(rho, MeasurementSetting(tau, k, theta), IDEAL)
        p2, _ = probabilities_quadrature(rho, MeasurementSetting(tau, k, theta + math.pi), IDEAL)
        # the cross terms cancel; what is left of the sum deviates from 1 only
        # by the (here ~1e-12) trace mass the shift clips off the grid
        assert p1 + p2 == pytest.approx(1.0, abs=1e-11)
        j = int(rng.integers(0, grid64.n))
        c1, _ = probabilities_closed_form(rho, MeasurementSetting(grid64.taus[j], k, theta), IDEAL)
        c2, _ = probabilities_closed_form(
            rho, MeasurementSetting(grid64.taus[j], k, theta + math.pi), IDEAL
        )
        assert c1 + c2 == pytest.approx(1.0, abs=1e-14)


def test_gaussian_fringe_value(grid64):
    # Oracle: int e^{-i tau w} |psi(w)|^2 dw = e^{-sigma^2 tau^2 / 2} at
    # omega0 = 0, so P_A(tau=1, 0, 0) = 1/2 + e^{-1/2}/2.
    rho = _pure(grid64)
    p_a, _ = probabilities_quadrature(rho, MeasurementSetting(1.0, 0, 0.0), IDEAL)
    assert p_a == pytest.approx(0.5 + 0.5 * math.exp(-0.5), abs=1e-6)


def test_zero_gamma_kills_fringes(grid64):
    rho = _pure(grid64)
    config = InterferometerConfig(gamma=0.0)
    for tau, k, theta in [(0.0, 0, 0.0), (1.3, 2, 0.7), (2.0, 5, math.pi / 2)]:
        p_a, p_b = probabilities_closed_form(rho, MeasurementSetting(tau, k, theta), config)
        assert p_a == pytest.approx(0.5, abs=1e-12)
        assert p_b == pytest.approx(0.5, abs=1e-12)


def test_real_gamma_scales_visibility(grid64):
    rho = _pure(grid64, chirp=0.2)
    gamma = 0.6
    config = InterferometerConfig(gamma=gamma)
    for k in (0, 1, 4):
        for j in (0, 3, 11):
            for theta in (0.0, math.pi / 2, 1.1):
                setting = MeasurementSetting(grid64.taus[j], k, theta)
                p1, q1 = probabilities_closed_form(rho, setting, IDEAL)
                p2, q2 = probabilities_closed_form(rho, setting, config)
                assert p2 - q2 == pytest.approx(gamma * (p1 - q1), abs=1e-12)


def test_closed_form_at_gamma_08(grid64):
    rho = _pure(grid64)
    p_a, _ = probabilities_closed_form(
        rho, MeasurementSetting(0.0, 0, 0.0), InterferometerConfig(gamma=0.8)
    )
    assert p_a == pytest.approx(0.9, abs=1e-12)


def test_clipping_warning_attached(grid64):
    rho = _pure(grid64)
    setting = MeasurementSetting(0.0, 40, 0.0)  # shift far beyond the support
    with pytest.warns(DiagnosticWarning, match="support-clipping"):
        probabilities_quadrature(rho, setting, IDEAL)
    with pytest.warns(DiagnosticWarning, match="support-clipping"):
        probabilities_closed_form(rho, setting, IDEAL)


def test_delta_zero_sees_only_the_diagonal(grid64):
    # Dephasing kills every off-diagonal entry but leaves the diagonal; all
    # delta=0 statistics must be unchanged.
    rho = _pure(grid64, chirp=0.5)
    dephased_kernel = np.diag(rho.rho.diagonal())
    from spectomo import SpectralDensityMatrix

    dephased = SpectralDensityMatrix.from_kernel(grid64, dephased_kernel, renormalize=False)
    for j in (0, 1, 7, 30):
        for theta in (0.0, math.pi / 2):
            setting = MeasurementSetting(grid64.taus[j], 0, theta)
            p1, _ = probabilities_quadrature(rho, setting, IDEAL)
            p2, _ = probabilities_quadrature(dephased, setting, IDEAL)
            assert p1 == pytest.approx(p2, abs=1e-10)


def test_path_equivalence_on_random_fixtures():
    rng = np.random.default_rng(17)
    grid = make_grid(0.0, 28.0, 32)
    for _ in range(25):
        rho = random_contained_state(rng, grid)
        k = int(rng.integers(0, 4))
        j = int(rng.integers(0, grid.n))
        theta = rng.uniform(0.0, 2 * math.pi)
        gamma = rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        config = InterferometerConfig(gamma=gamma)
        setting = MeasurementSetting(grid.taus[j], k, theta)
        p_q, _ = probabilities_quadrature(rho, setting, config)
        p_c, _ = probabilities_closed_form(rho, setting, config)
        _, p_cond = conditional_state(rho, setting, config)
        assert abs(p_q - p_c) < 1e-10
        assert abs(p_q - p_cond) < 1e-10


# ---------------------------------------------------------------------------
# cross_section_transform
# ---------------------------------------------------------------------------

def test_cross_section_at_zero_is_trace(grid64):
    rho = _pure(grid64)
    g = cross_section_transform(rho, 0)
    assert g[0] == pytest.approx(rho.trace(), abs=1e-12)


def test_cross_section_gaussian_fourier_pair(grid64):
    rho = _pure(grid64)
    g = cross_section_transform(rho, 0)
    half = grid64.n // 2
    expected = np.exp(-grid64.taus[:half] ** 2 / 2.0)
    np.testing.assert_allclose(np.abs(g[:half]), expected, atol=1e-6)


def test_cross_section_bounded_by_one():
    rng = np.random.default_rng(29)
    grid = make_grid(0.0, 20.0, 32)
    for _ in range(10):
        rho = random_psd_state(rng, grid)
        for k in range(0, grid.n, 5):
            g = cross_section_transform(rho, k)
            assert np.max(np.abs(g)) <= 1.0 + 1e-10


def test_cross_section_memoized(grid64):
    rho = _pure(grid64)
    a = cross_section_transform(rho, 2)
    b = cross_section_transform(rho, 2)
    assert a is b


def test_band_hermiticity(standard_states):
    # The conjugate cross term reads the mirrored band: rho(w - d, w) must be
    # the conjugate of rho(w, w - d) entry for entry.
    for state in standard_states.values():
        m = state.rho
        for k in (1, 3, 9):
            np.testing.assert_array_equal(
                np.diagonal(m, -k), np.conj(np.diagonal(m, k))
            )


def test_closed_form_matches_quadrature_off_grid_fallback(grid64):
    rho = _pure(grid64)
    setting = MeasurementSetting(0.37 * grid64.d_tau, 0, 0.2)  # off the delay grid
    p_c = probabilities_closed_form(rho, setting, IDEAL)
    p_q = probabilities_quadrature(rho, setting, IDEAL)
    assert p_c == p_q


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        InterferometerConfig(xi=1.2)
    with pytest.raises(ValueError):
        InterferometerConfig(gamma=1.5)
    with pytest.raises(ValueError, match="got nan"):
        InterferometerConfig(gamma=complex("nan"))
    with pytest.raises(ValueError, match="compensate_loss"):
        InterferometerConfig(xi=0.7)
    with pytest.raises(ValueError):
        InterferometerConfig(detector_efficiency=0.0)
    with pytest.raises(ValueError):
        MeasurementSetting(0.0, -2, 0.0)
    config = InterferometerConfig(xi=0.7, compensate_loss=True, detector_efficiency=0.5)
    assert config.post_selection_rate == pytest.approx(0.35)
