"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or `-rA`) to see the
per-criterion lines alongside the pytest verdicts.
"""

import cmath
import math
import time

import numpy as np
import pytest

from spectomo import (
    InterferometerConfig,
    MeasurementSetting,
    conditional_state,
    density_from_pure,
    gaussian_pure,
    hs_distance,
    make_grid,
    mix,
    plan_scan,
    probabilities_closed_form,
    probabilities_quadrature,
    purity,
    reconstruct_records,
    simulate_counts,
    time_jitter_state,
)
from spectomo.measurement import estimate_p_delta, write_p_delta_table
from conftest import exact_records, random_contained_state

IDEAL = InterferometerConfig()

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def test_criterion_1_forward_model_triple_agreement():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = make_grid(0.0, 28.0, 32)
    worst = 0.0
    for _ in range(100):
        rho = random_contained_state(rng, grid)
        setting = MeasurementSetting(
            tau=grid.taus[int(rng.integers(0, grid.n))],
            delta_index=int(rng.integers(0, 4)),
            theta=float(rng.uniform(0.0, 2 * math.pi)),
        )
        gamma = rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
        config = InterferometerConfig(gamma=gamma)
        p_q, q_q = probabilities_quadrature(rho, setting, config)
        p_c, q_c = probabilities_closed_form(rho, setting, config)
        _, p_cond = conditional_state(rho, setting, config)
        assert p_q + q_q == 1.0
        assert p_c + q_c == 1.0
        worst = max(worst, abs(p_q - p_c), abs(p_q - p_cond), abs(p_c - p_cond))
    assert worst < 1e-10
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\n[criterion 1] PASS: three probability routes agree to {worst:.2e} "
        f"on 100 random states; completeness exact; {elapsed:.2f}s"
    )


def test_criterion_2_balanced_interferometer(standard_states):
    setting = MeasurementSetting(0.0, 0, 0.0)
    worst = 0.0
    for name, state in standard_states.items():
        for routine in (probabilities_closed_form, probabilities_quadrature):
            p_a, p_b = routine(state, setting, IDEAL)
            assert p_a + p_b == 1.0
            worst = max(worst, abs(p_a - 1.0))
    assert worst <= 1e-12  # exact up to the float renormalization of the trace
    print(
        f"\n[criterion 2] PASS: P_A(0,0,0) = 1 on every fixture "
        f"(worst deviation {worst:.2e})"
    )


def test_criterion_3_exact_round_trip(standard_states):
    started = time.perf_counter()
    worst = 0.0
    for name, state in standard_states.items():
        result = reconstruct_records(exact_records(state), state.grid)
        err = hs_distance(result.rho_pre_projection, state.rho, state.grid)
        assert err < 1e-10, (name, err)
        worst = max(worst, err)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\n[criterion 3] PASS: five-fixture exact round trip, worst "
        f"pre-projection HS distance {worst:.2e}; {elapsed:.1f}s"
    )


def _table_g_magnitudes(tmp_path, state, name):
    """|G_0(tau)| extracted from an emitted P_delta table."""
    grid = state.grid
    records = exact_records(state, max_delta_index=0)
    path = tmp_path / f"{name}.csv"
    write_p_delta_table(path, records, grid)
    p0 = np.full(grid.n, np.nan)
    p1 = np.full(grid.n, np.nan)
    for line in path.read_text().splitlines()[1:]:
        _, tau_index, _, theta, p_delta, _ = line.split(",")
        target = p0 if float(theta) == 0.0 else p1
        target[int(tau_index)] = float(p_delta)
    assert not np.isnan(p0).any() and not np.isnan(p1).any()
    return np.abs(p0 - 1j * p1)


def test_criterion_4a_pure_gaussian_single_envelope(tmp_path, standard_states):
    state = standard_states["pure-gaussian"]
    grid = state.grid
    g_abs = _table_g_magnitudes(tmp_path, state, "pure")
    half = grid.n // 2
    expected = np.exp(-grid.taus[:half] ** 2 / 2.0)
    np.testing.assert_allclose(g_abs[:half], expected, atol=1e-6)
    # single smooth fringe envelope: monotone decay from tau=0 down to noise
    meaningful = g_abs[:half] > 1e-10
    decay = np.diff(g_abs[:half])[meaningful[1:]]
    assert np.all(decay <= 1e-12)
    print("\n[criterion 4a] PASS: pure Gaussian emits one smooth monotone fringe envelope")


def test_criterion_4b_mixture_beat(tmp_path):
    sep = 8.0  # center-frequency difference, sigma = 1
    grid = make_grid(0.0, 20.0, 128)
    state = mix(
        [
            (0.5, density_from_pure(gaussian_pure(grid, -sep / 2, 1.0))),
            (0.5, density_from_pure(gaussian_pure(grid, +sep / 2, 1.0))),
        ]
    )
    g_abs = _table_g_magnitudes(tmp_path, state, "mixture")
    half = grid.n // 2
    # skip the main lobe: first local minimum, then the revival peak
    first_min = 1
    while first_min < half - 1 and g_abs[first_min + 1] < g_abs[first_min]:
        first_min += 1
    revival = first_min + int(np.argmax(g_abs[first_min:half]))
    tau_beat = 2 * math.pi / sep
    assert abs(grid.taus[revival] - tau_beat) <= grid.d_tau
    print(
        f"\n[criterion 4b] PASS: beat revival at tau = {grid.taus[revival]:.4f}, "
        f"expected 2*pi/{sep:g} = {tau_beat:.4f} (one bin = {grid.d_tau:.4f})"
    )


def test_criterion_4c_frequency_jitter_broadening(standard_states):
    state = standard_states["freq-jitter"]  # sigma = 1, jitter = 2 on span 24
    grid = state.grid
    result = reconstruct_records(exact_records(state), grid)
    diag = result.rho_hat.rho.diagonal().real * grid.d_omega
    mean = float(np.sum(grid.omegas * diag))
    var = float(np.sum((grid.omegas - mean) ** 2 * diag))
    assert var == pytest.approx(1.0 + 4.0, rel=0.05)
    p = purity(result.rho_hat)
    assert p < 0.6
    print(
        f"\n[criterion 4c] PASS: reconstructed diagonal variance {var:.3f} "
        f"(target 5), purity {p:.3f} < 0.6"
    )


def test_criterion_5_gamma_calibration(standard_states):
    state = standard_states["chirped-gaussian"]
    grid = state.grid
    reference = reconstruct_records(exact_records(state), grid).rho_pre_projection
    worst_gamma = 0.0
    worst_recon = 0.0
    for gamma in (1.0, 0.8, 0.5, 0.8 * cmath.exp(1j * math.pi / 6)):
        config = InterferometerConfig(gamma=gamma)
        result = reconstruct_records(exact_records(state, config), grid)
        worst_gamma = max(worst_gamma, abs(result.gamma_hat - gamma))
        worst_recon = max(
            worst_recon, hs_distance(result.rho_pre_projection, reference, grid)
        )
    assert worst_gamma < 1e-10
    assert worst_recon < 1e-10
    print(
        f"\n[criterion 5] PASS: gamma recovered to {worst_gamma:.2e}; calibrated "
        f"reconstructions match the gamma=1 run to {worst_recon:.2e}"
    )


def test_criterion_6_delta_zero_restriction(standard_states):
    state = standard_states["chirped-gaussian"]
    grid = state.grid
    result = reconstruct_records(exact_records(state, max_delta_index=0), grid)
    raw = result.rho_pre_projection
    off_diagonal = raw - np.diag(raw.diagonal())
    assert np.all(off_diagonal == 0.0)
    np.testing.assert_allclose(
        raw.diagonal().real, state.rho.diagonal().real, atol=1e-10
    )
    print(
        "\n[criterion 6] PASS: delta=0 scan recovers the spectrum to 1e-10 and "
        "no off-diagonal coherences"
    )


def test_criterion_7_shot_noise_scaling(standard_states):
    started = time.perf_counter()
    grid = make_grid(0.0, 16.0, 32)
    state = mix(
        [
            (0.5, density_from_pure(gaussian_pure(grid, -2.0, 1.0))),
            (0.5, density_from_pure(gaussian_pure(grid, 2.0, 1.0))),
        ]
    )
    medians = {}
    for shots in (1000, 100000):
        errors = []
        for seed in range(20):
            plan = plan_scan(grid, grid.n - 1, shots, seed)
            records = simulate_counts(state, plan, IDEAL)
            result = reconstruct_records(records, grid)
            errors.append(hs_distance(result.rho_pre_projection, state.rho, grid))
        medians[shots] = float(np.median(errors))
    ratio = medians[1000] / medians[100000]
    assert 5.0 <= ratio <= 20.0
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(
        f"\n[criterion 7] PASS: median HS error {medians[1000]:.3e} @1e3 shots vs "
        f"{medians[100000]:.3e} @1e5 shots, ratio {ratio:.1f} in [5, 20]; {elapsed:.1f}s"
    )


def test_criterion_8_estimator_soundness():
    grid = make_grid(0.0, 16.0, 16)
    state = density_from_pure(gaussian_pure(grid, 0.0, 1.0))
    shots = 4000
    plans = [plan_scan(grid, 1, shots, seed=seed) for seed in range(1000)]
    # The tomography (not calibration) setting at delta 0, tau index 2, theta 0.
    ordinal = next(
        i for i, cell in enumerate(zip(*(col.tolist() for col in plans[0].cells())))
        if i >= 2 and cell == (0, 2, 0)
    )
    setting = MeasurementSetting(2 * grid.d_tau, 0, 0.0)
    p_a, _ = probabilities_closed_form(state, setting, IDEAL)
    assert 0.1 < p_a < 0.9  # estimator comparison is meaningful away from the rails
    from spectomo import ScanTable

    records = [next(iter(simulate_counts(state, plan, IDEAL)[ordinal:ordinal + 1])) for plan in plans]
    estimates, reported = estimate_p_delta(ScanTable.from_records(records))
    empirical = float(np.std(estimates, ddof=1))
    mean_reported = float(np.mean(reported))
    assert empirical == pytest.approx(mean_reported, rel=0.10)
    print(
        f"\n[criterion 8] PASS: empirical std {empirical:.5f} vs reported stderr "
        f"{mean_reported:.5f} over 1000 re-simulations (within 10%)"
    )


def test_criterion_9_time_jitter_spectral_invariance(grid64):
    psi = gaussian_pure(grid64, 0.3, 1.1, chirp=0.2)
    spectrum = np.abs(psi.psi) ** 2
    worst = 0.0
    for jitter_std in (0.0, 1.0, 5.0):
        diag = time_jitter_state(psi, jitter_std).rho.diagonal().real
        worst = max(worst, float(np.max(np.abs(diag - spectrum))))
    assert worst < 1e-12
    print(
        f"\n[criterion 9] PASS: time-jitter leaves the spectrum untouched "
        f"(worst entrywise deviation {worst:.2e})"
    )
