import math

import numpy as np
import pytest

from spectomo import (
    DataFormatError,
    DiagnosticWarning,
    GridMismatchError,
    PureSpectralAmplitude,
    SpectralDensityMatrix,
    density_from_pure,
    frequency_jitter_state,
    gaussian_pure,
    hs_overlap,
    make_grid,
    mix,
    purity,
    time_jitter_state,
    validate,
)
from spectomo import core
from spectomo.cli import main
from spectomo.core import HERMITIAN_TOL, density_matrix_from_dict
from conftest import random_contained_state


# ---------------------------------------------------------------------------
# gaussian_pure
# ---------------------------------------------------------------------------

def test_gaussian_pure_normalized(grid64):
    psi = gaussian_pure(grid64, 0.0, 1.0)
    norm = np.sum(np.abs(psi.psi) ** 2) * grid64.d_omega
    assert norm == pytest.approx(1.0, abs=1e-13)


def test_gaussian_pure_real_without_chirp(grid64):
    psi = gaussian_pure(grid64, 0.0, 1.0)
    assert np.all(psi.psi.imag == 0.0)
    assert np.all(psi.psi.real > 0.0)


def test_chirp_leaves_modulus_unchanged(grid64):
    flat = gaussian_pure(grid64, 0.0, 1.0)
    chirped = gaussian_pure(grid64, 0.0, 1.0, chirp=0.5)
    np.testing.assert_allclose(np.abs(chirped.psi) ** 2, np.abs(flat.psi) ** 2, atol=1e-14)


def test_gaussian_pure_rejects_bad_sigma(grid64):
    with pytest.raises(ValueError):
        gaussian_pure(grid64, 0.0, 0.0)
    with pytest.raises(ValueError):
        gaussian_pure(grid64, 0.0, -1.0)


def test_gaussian_pure_warns_when_poorly_covered(grid64):
    with pytest.warns(DiagnosticWarning) as caught:
        gaussian_pure(grid64, 7.0, 1.0)
    codes = {w.message.diagnostic.code for w in caught}
    assert "grid-coverage" in codes
    assert "mass-clipping" in codes  # 1 sigma past the edge loses real mass too


def test_amplitude_requires_normalization(grid64):
    with pytest.raises(ValueError, match="not normalized"):
        PureSpectralAmplitude(grid64, np.ones(grid64.n))
    psi = PureSpectralAmplitude.from_samples(grid64, np.ones(grid64.n))
    assert np.sum(np.abs(psi.psi) ** 2) * grid64.d_omega == pytest.approx(1.0, abs=1e-13)


# ---------------------------------------------------------------------------
# density_from_pure
# ---------------------------------------------------------------------------

def test_density_from_pure_unit_trace_and_purity(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 1.0, 0.7, chirp=0.3))
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    assert purity(rho) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.matrix_rank(rho.rho, tol=1e-10) == 1


def test_density_from_pure_matches_analytic_gaussian_kernel(grid64):
    # Independent oracle: for sigma=1 centered at 0 the continuum kernel is
    # exp(-(w1^2 + w2^2)/4) / sqrt(2*pi); the grid normalization differs from
    # the continuum one only by the (here sub-1e-14) truncated tail mass.
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    w = grid64.omegas
    expected = np.exp(-(w[:, None] ** 2 + w[None, :] ** 2) / 4.0) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(rho.rho.real, expected, atol=1e-12)
    assert np.max(np.abs(rho.rho.imag)) == 0.0


# ---------------------------------------------------------------------------
# mix
# ---------------------------------------------------------------------------

def test_identity_mixture(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    mixed = mix([(1.0, rho)])
    np.testing.assert_allclose(mixed.rho, rho.rho, atol=1e-15)


def test_self_mixture_idempotent(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0, chirp=0.2))
    mixed = mix([(0.5, rho), (0.5, rho)])
    assert purity(mixed) == pytest.approx(purity(rho), abs=1e-12)


def test_far_separated_mixture_purity_half():
    # Oracle: purity of an equal two-component mixture is
    # (1 + |<a|b>|^2) / 2 with |<a|b>|^2 = exp(-sep^2 / (4 sigma^2)) -> 0.5
    # at sep = 10 sigma; cross-checked against a brute-force matrix-product
    # trace.
    g = make_grid(0.0, 28.0, 64)
    a = density_from_pure(gaussian_pure(g, -5.0, 1.0))
    b = density_from_pure(gaussian_pure(g, 5.0, 1.0))
    mixed = mix([(0.5, a), (0.5, b)])
    brute = float(np.trace(mixed.rho @ mixed.rho).real) * g.d_omega**2
    assert purity(mixed) == pytest.approx(brute, abs=1e-12)
    assert purity(mixed) == pytest.approx(0.5, abs=1e-3)


def test_mix_rejects_bad_weights(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    with pytest.raises(ValueError):
        mix([(0.7, rho), (0.4, rho)])
    with pytest.raises(ValueError):
        mix([(-0.1, rho), (1.1, rho)])
    with pytest.raises(ValueError):
        mix([])


def test_mix_rejects_grid_mismatch(grid64):
    other = make_grid(0.0, 16.0, 32)
    a = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    b = density_from_pure(gaussian_pure(other, 0.0, 1.0))
    with pytest.raises(GridMismatchError):
        mix([(0.5, a), (0.5, b)])


# ---------------------------------------------------------------------------
# time_jitter_state
# ---------------------------------------------------------------------------

def test_time_jitter_zero_equals_pure(grid64):
    psi = gaussian_pure(grid64, 0.0, 1.0)
    np.testing.assert_array_equal(
        time_jitter_state(psi, 0.0).rho, density_from_pure(psi).rho
    )


@pytest.mark.parametrize("jitter_std", [0.0, 0.3, 1.0, 5.0])
def test_time_jitter_diagonal_invariance(grid64, jitter_std):
    psi = gaussian_pure(grid64, 0.5, 0.9, chirp=0.4)
    rho = time_jitter_state(psi, jitter_std)
    np.testing.assert_allclose(
        rho.rho.diagonal().real, np.abs(psi.psi) ** 2, atol=1e-12, rtol=0.0
    )


def _time_jitter_by_center_time_quadrature(psi, jitter_std, n_tc=201):
    """Independent oracle: average the shifted pure kernel over a discrete
    Gaussian center-time distribution (weights renormalized on the grid)."""
    t = np.linspace(-5.0 * jitter_std, 5.0 * jitter_std, n_tc)
    w = np.exp(-0.5 * (t / jitter_std) ** 2)
    w /= w.sum()
    kernel = np.zeros((psi.grid.n, psi.grid.n), dtype=complex)
    for tk, wk in zip(t, w):
        shifted = psi.psi * np.exp(1j * psi.grid.omegas * tk)
        kernel += wk * np.outer(shifted, shifted.conj())
    return kernel


def test_time_jitter_against_center_time_quadrature(grid64):
    psi = gaussian_pure(grid64, 0.0, 1.0)
    rho = time_jitter_state(psi, 1.0)
    oracle = _time_jitter_by_center_time_quadrature(psi, 1.0)
    oracle_purity = float(np.vdot(oracle, oracle).real) * grid64.d_omega**2
    assert purity(rho) == pytest.approx(oracle_purity, abs=1e-4)
    # analytic cross-check: tr(rho^2) = 1/sqrt(1 + 4 s^2 sigma^2)
    assert purity(rho) == pytest.approx(1 / math.sqrt(5.0), abs=1e-6)


def test_time_jitter_rejects_negative(grid64):
    with pytest.raises(ValueError):
        time_jitter_state(gaussian_pure(grid64, 0.0, 1.0), -0.1)


# ---------------------------------------------------------------------------
# frequency_jitter_state
# ---------------------------------------------------------------------------

def test_frequency_jitter_zero_equals_pure(grid64):
    psi = gaussian_pure(grid64, 0.0, 1.0)
    np.testing.assert_array_equal(
        frequency_jitter_state(psi, 0.0).rho, density_from_pure(psi).rho
    )


def test_frequency_jitter_diagonal_variance():
    # Convolution of variance-1 and variance-4 Gaussians has variance 5.
    g = make_grid(0.0, 24.0, 64)
    rho = frequency_jitter_state(gaussian_pure(g, 0.0, 1.0), 2.0)
    p = rho.rho.diagonal().real * g.d_omega
    mean = float(np.sum(g.omegas * p))
    var = float(np.sum((g.omegas - mean) ** 2 * p))
    assert var == pytest.approx(5.0, rel=0.01)


def test_frequency_jitter_purity_strictly_decreasing():
    g = make_grid(0.0, 24.0, 64)
    psi = gaussian_pure(g, 0.0, 1.0)
    values = [purity(frequency_jitter_state(psi, s)) for s in (0.0, 0.5, 1.0, 2.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_frequency_jitter_warns_on_clipping():
    g = make_grid(0.0, 16.0, 64)
    with pytest.warns(DiagnosticWarning, match="mass-clipping"):
        frequency_jitter_state(gaussian_pure(g, 0.0, 1.0), 2.0)


def test_frequency_jitter_wider_than_the_grid(tmp_path, capsys):
    # 6 * jitter spans 3.8 grids: shifts of n bins or more land wholly off the
    # grid and count as clipped mass instead of crashing the slice assignment.
    g = make_grid(0.0, 16.0, 16)
    with pytest.warns(DiagnosticWarning, match="mass-clipping"):
        rho = frequency_jitter_state(gaussian_pure(g, 0.0, 1.0), 3.0)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    argv = ["gen-state", "freq-jitter", "--n", "16", "--jitter", "3", "--out", str(tmp_path / "x.json")]
    capsys.readouterr()
    assert main(argv) == 0
    assert "mass-clipping" in capsys.readouterr().err


def test_frequency_jitter_rejects_negative(grid64):
    with pytest.raises(ValueError):
        frequency_jitter_state(gaussian_pure(grid64, 0.0, 1.0), -1.0)


# ---------------------------------------------------------------------------
# purity / hs_overlap
# ---------------------------------------------------------------------------

def test_purity_of_maximally_mixed(grid64):
    n = grid64.n
    eye = np.eye(n) / (n * grid64.d_omega)
    rho = SpectralDensityMatrix.from_kernel(grid64, eye, renormalize=False)
    assert purity(rho) == pytest.approx(1.0 / n, abs=1e-12)


def test_hs_overlap_self_is_purity(standard_states):
    for state in standard_states.values():
        assert hs_overlap(state, state) == pytest.approx(purity(state), abs=1e-12)


def test_hs_overlap_displaced_gaussians(grid64):
    # Oracle: |<psi_0|psi_d>|^2 = exp(-d^2 / (4 sigma^2)) = e^-1 at d=2, sigma=1.
    a = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    b = density_from_pure(gaussian_pure(grid64, 2.0, 1.0))
    assert hs_overlap(a, b) == pytest.approx(math.exp(-1.0), abs=1e-4)


def test_hs_overlap_disjoint_support(grid64):
    n = grid64.n
    left = np.exp(-((grid64.omegas + 4.0) ** 2))
    right = np.exp(-((grid64.omegas - 4.0) ** 2))
    left[n // 2 :] = 0.0
    right[: n // 2] = 0.0
    a = density_from_pure(PureSpectralAmplitude.from_samples(grid64, left))
    b = density_from_pure(PureSpectralAmplitude.from_samples(grid64, right))
    assert abs(hs_overlap(a, b)) < 1e-10


def test_hs_overlap_grid_mismatch(grid64):
    other = make_grid(0.0, 16.0, 32)
    a = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    b = density_from_pure(gaussian_pure(other, 0.0, 1.0))
    with pytest.raises(GridMismatchError):
        hs_overlap(a, b)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_passes_fresh_state(grid64):
    report = validate(density_from_pure(gaussian_pure(grid64, 0.0, 1.0)))
    assert report.ok
    assert report.hermiticity_deviation == 0.0
    assert report.trace_deviation < 1e-12


def test_validate_flags_broken_hermiticity(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    broken = np.array(rho.rho)
    broken[3, 5] += 1e-3
    report = validate(broken, grid64)
    assert not report.hermitian_ok
    assert report.hermiticity_deviation == pytest.approx(1e-3, rel=1e-6)


def test_validate_flags_scaled_trace(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    report = validate(2.0 * np.array(rho.rho), grid64)
    assert not report.trace_ok
    assert report.trace_deviation == pytest.approx(1.0, abs=1e-9)
    assert report.hermitian_ok  # scaling preserves symmetry


def test_construction_rejects_unphysical(grid64):
    n = grid64.n
    with pytest.raises(ValueError, match="Hermitian"):
        SpectralDensityMatrix(grid64, np.triu(np.ones((n, n))) / (n * grid64.d_omega))
    with pytest.raises(ValueError, match="trace"):
        SpectralDensityMatrix(grid64, 2.0 * np.eye(n) / (n * grid64.d_omega))
    indefinite = np.diag(np.linspace(-1.0, 1.0, n))
    indefinite /= np.trace(indefinite).real * grid64.d_omega
    with pytest.raises(ValueError, match="positive semidefinite"):
        SpectralDensityMatrix.from_kernel(grid64, indefinite, renormalize=False)


# ---------------------------------------------------------------------------
# checks and symmetrization a strip of rows at a time
# ---------------------------------------------------------------------------

def _kernels(rng, n):
    """Generic, exactly Hermitian, wide-ranging and signed-zero n x n kernels."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    yield a
    yield a + a.conj().T
    yield a * 10.0 ** rng.integers(-150, 150, size=(n, n))
    signs = rng.choice([-1.0, 1.0], size=(2, n, n))
    yield signs[0] * np.round(a.real) * (rng.random((n, n)) < 0.5) + 1j * signs[1] * np.round(a.imag)


@pytest.mark.parametrize("check_rows", [1, 3, 64])
def test_strip_checks_equal_whole_array_expressions(monkeypatch, check_rows):
    monkeypatch.setattr(core, "_CHECK_ROWS", check_rows)
    rng = np.random.default_rng(check_rows)
    for n in (2, 5, 64, 67):
        grid = make_grid(0.0, 1.0, n)
        for kernel in _kernels(rng, n):
            whole = kernel.copy()
            np.add(whole, whole.conj().T, out=whole)
            whole /= 2.0
            strips = core._hermitize(grid, kernel.copy(), renormalize=False)
            assert strips.tobytes() == whole.tobytes()  # signed zeros included
            for m in (kernel, strips):
                assert core._is_exactly_hermitian(m) == np.array_equal(m, m.conj().T)
            deviation = float(np.abs(kernel - kernel.conj().T).max())
            if deviation > HERMITIAN_TOL * float(np.abs(kernel).max()):
                doc = {"omega_min": 0.0, "d_omega": grid.d_omega, "n": n, "rho": kernel.view(np.float64).reshape(-1, 2)}
                with pytest.raises(DataFormatError) as excinfo:
                    density_matrix_from_dict(doc)
                assert str(excinfo.value) == (
                    f"kernel entries are not Hermitian: max|K - K^dagger| = {deviation:.3g} exceeds "
                    f"{HERMITIAN_TOL:g} * max|K|"
                )


def test_from_kernel_state_owns_its_kernel(grid64):
    kernel = np.array(density_from_pure(gaussian_pure(grid64, 0.0, 1.0)).rho)
    state = SpectralDensityMatrix.from_kernel(grid64, kernel, renormalize=False)
    # The state holds the copy it symmetrized; the caller's array stays its own.
    assert not np.shares_memory(state.rho, kernel)
    assert kernel.flags.writeable and not state.rho.flags.writeable


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_construction_closure(standard_states):
    for name, state in standard_states.items():
        report = validate(state)
        assert report.ok, f"{name} failed validation:\n{report.summary()}"


def test_purity_bounds(standard_states, grid64):
    rng = np.random.default_rng(11)
    states = list(standard_states.values())
    states += [random_contained_state(rng, make_grid(0.0, 28.0, 32)) for _ in range(10)]
    for state in states:
        p = purity(state)
        assert 1.0 / state.grid.n <= p <= 1.0 + 1e-10


def test_mixture_purity_cauchy_schwarz_bound():
    rng = np.random.default_rng(23)
    g = make_grid(0.0, 28.0, 32)
    for _ in range(20):
        k = int(rng.integers(2, 4))
        weights = rng.random(k)
        weights /= weights.sum()
        weights[-1] = 1.0 - weights[:-1].sum()
        parts = [(w, random_contained_state(rng, g)) for w in weights]
        mixed = mix(parts)
        purities = [purity(s) for _, s in parts]
        bound = sum(w * p for (w, _), p in zip(parts, purities))
        for i in range(k):
            for j in range(i + 1, k):
                bound += 2 * weights[i] * weights[j] * math.sqrt(purities[i] * purities[j])
        assert purity(mixed) <= bound + 1e-12


def test_grid_refinement_stability():
    for build in (
        lambda g: time_jitter_state(gaussian_pure(g, 0.0, 1.0), 1.0),
        lambda g: frequency_jitter_state(gaussian_pure(g, 0.0, 1.0), 0.5),
    ):
        coarse = purity(build(make_grid(0.0, 16.0, 64)))
        fine = purity(build(make_grid(0.0, 16.0, 128)))
        assert abs(coarse - fine) < 1e-6


def test_states_are_immutable(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    with pytest.raises(ValueError):
        rho.rho[0, 0] = 1.0
