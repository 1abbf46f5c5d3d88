import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectomo import (
    CalibrationMissingError,
    CrossSectionEstimate,
    DegenerateInputError,
    InterferometerConfig,
    MissingSettingsError,
    ScanTable,
    VisibilityTooLowError,
    assemble,
    calibrate_gamma,
    cross_section_transform,
    density_from_pure,
    estimate_cross_section,
    gaussian_pure,
    hs_distance,
    invert_cross_section,
    make_grid,
    plan_scan,
    project_physical,
    purity,
    reconstruct_records,
    report,
    simulate_counts,
    time_jitter_state,
)
from spectomo import reconstruction
from conftest import exact_records

IDEAL = InterferometerConfig()


def _sampled_records(state, shots, seed, config=IDEAL, max_delta_index=None):
    grid = state.grid
    if max_delta_index is None:
        max_delta_index = grid.n - 1
    plan = plan_scan(grid, max_delta_index, shots, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_counts(state, plan, config)


# ---------------------------------------------------------------------------
# calibrate_gamma
# ---------------------------------------------------------------------------

def test_calibrate_ideal(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    gamma_hat = calibrate_gamma(exact_records(rho, max_delta_index=0))
    assert gamma_hat == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "gamma", [0.8, 0.5, 0.8 * cmath.exp(1j * math.pi / 6)]
)
def test_calibrate_recovers_gamma(grid64, gamma):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    config = InterferometerConfig(gamma=gamma)
    gamma_hat = calibrate_gamma(exact_records(rho, config, max_delta_index=0))
    assert gamma_hat == pytest.approx(gamma, abs=1e-10)


def test_calibrate_missing_rows(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    records = exact_records(rho, max_delta_index=0)
    only_theta0 = [r for r in records if r.setting.theta == 0.0]
    with pytest.raises(CalibrationMissingError):
        calibrate_gamma(only_theta0)


def test_calibrate_clamps_excess_visibility():
    from spectomo import DiagnosticWarning, MeasurementRecord, MeasurementSetting

    # shot noise can push the raw estimate outside the unit circle
    rows = [
        MeasurementRecord(MeasurementSetting(0.0, 0, 0.0), 0, 100, 100, 100, 0),
        MeasurementRecord(MeasurementSetting(0.0, 0, math.pi / 2), 0, 100, 100, 80, 20),
    ]
    with pytest.warns(DiagnosticWarning, match="gamma-clamped"):
        gamma_hat = calibrate_gamma(rows)
    assert abs(gamma_hat) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# estimate_cross_section
# ---------------------------------------------------------------------------

def test_cross_section_estimate_matches_forward(grid64, standard_states):
    rho = standard_states["two-gaussian-mixture"]
    records = exact_records(rho, max_delta_index=3)
    for m in range(4):
        group = [r for r in records if r.setting.delta_index == m]
        est = estimate_cross_section(group, 1.0 + 0.0j, grid64)
        np.testing.assert_allclose(
            est.g_of_tau[0], cross_section_transform(rho, m), atol=1e-12
        )
    est0 = estimate_cross_section(
        [r for r in records if r.setting.delta_index == 0], 1.0 + 0.0j, grid64
    )
    assert est0.g_of_tau[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_cross_section_estimate_gamma_invariance(grid64):
    # After dividing out the calibrated gamma, a gamma=0.5 run and a gamma=1
    # run measure the same cross-section.
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0, chirp=0.5))
    out = {}
    for gamma in (1.0, 0.5):
        config = InterferometerConfig(gamma=gamma)
        records = exact_records(rho, config, max_delta_index=2)
        gamma_hat = calibrate_gamma(records)
        group = [r for r in records if r.setting.delta_index == 2]
        out[gamma] = estimate_cross_section(group, gamma_hat, grid64).g_of_tau[0]
    np.testing.assert_allclose(out[1.0], out[0.5], atol=1e-12)


def test_cross_section_estimate_missing_theta_rows(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    records = [
        r
        for r in exact_records(rho, max_delta_index=0)
        if not (r.setting.delta_index == 0 and r.setting.theta > 1.0 and r.tau_index == 5)
    ]
    group = [r for r in records if r.setting.delta_index == 0]
    with pytest.raises(MissingSettingsError) as excinfo:
        estimate_cross_section(group, 1.0 + 0.0j, grid64)
    assert (0, 5, math.pi / 2) in excinfo.value.missing


def test_cross_section_estimate_covers_every_band_at_once(grid64, standard_states):
    rho = standard_states["two-gaussian-mixture"]
    records = exact_records(rho, max_delta_index=3)
    est = estimate_cross_section(records, 1.0 + 0.0j, grid64)
    assert est.delta_indices.tolist() == [0, 1, 2, 3]
    assert est.g_of_tau.shape == est.stderr_per_point.shape == (4, grid64.n)
    for m in range(4):
        np.testing.assert_allclose(est.g_of_tau[m], cross_section_transform(rho, m), atol=1e-12)


def test_missing_cells_of_every_band_in_one_error(grid64, standard_states):
    table = exact_records(standard_states["pure-gaussian"], max_delta_index=3)
    dropped = ((table.delta_index == 1) & (table.tau_index == 5) & (table.theta_slot == 1)) | (
        (table.delta_index == 3) & (table.tau_index == 9) & (table.theta_slot == 0)
    )
    with pytest.raises(MissingSettingsError) as excinfo:
        reconstruct_records(table[~dropped], grid64)
    assert excinfo.value.missing == [(1, 5, math.pi / 2), (3, 9, 0.0)]


@pytest.mark.parametrize("delta_index, tau_index", [(0, 16), (16, 0)])
def test_rows_off_the_grid_fail_loudly(delta_index, tau_index):
    # One row off an n=16 grid: at tau index 16 it used to be dropped without a
    # word, at delta index 16 it read as a scan with missing settings.
    grid = make_grid(0.0, 16.0, 16)
    table = exact_records(density_from_pure(gaussian_pure(grid, 0.0, 1.0)))
    extra = ScanTable([delta_index], [tau_index], [0], [tau_index * grid.d_tau], [1000], [1000], [500.0], [500.0])
    joined = ScanTable(*(np.concatenate(pair) for pair in zip(table.columns, extra.columns)))
    message = rf"\(delta_index={delta_index}, tau_index={tau_index}\) lies off the n=16 grid"
    with pytest.raises(ValueError, match=message):
        reconstruct_records(joined, grid)
    with pytest.raises(ValueError, match=rf"^row 0 {message}"):
        estimate_cross_section(extra, 1.0 + 0.0j, grid)


def test_cross_section_estimate_visibility_floor(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    records = exact_records(rho, max_delta_index=0)
    with pytest.raises(VisibilityTooLowError):
        estimate_cross_section(records, 0.01 + 0.0j, grid64)


# ---------------------------------------------------------------------------
# invert_cross_section
# ---------------------------------------------------------------------------

def test_invert_is_exact_inverse(grid64, standard_states):
    for state in standard_states.values():
        grid = state.grid
        for m in (0, 1, 5):
            g = cross_section_transform(state, m)
            est = CrossSectionEstimate([m], [g], np.zeros((1, grid.n)))
            (band,) = invert_cross_section(est, grid)
            expected = np.zeros(grid.n, dtype=complex)
            expected[m:] = np.diagonal(state.rho, -m)
            np.testing.assert_allclose(band, expected, atol=1e-12)


def test_invert_constant_is_discrete_delta():
    # A flat cross-section at delta=0 inverts to all weight in the omega=0 bin.
    g = make_grid(0.0, 16.0, 17)  # odd count => omega=0 is exactly on the grid
    zero_bin = 8
    assert g.omegas[zero_bin] == pytest.approx(0.0, abs=1e-12)
    est = CrossSectionEstimate([0], np.ones((1, g.n), dtype=complex), np.zeros((1, g.n)))
    (band,) = invert_cross_section(est, g)
    expected = np.zeros(g.n)
    expected[zero_bin] = 1.0 / g.d_omega
    np.testing.assert_allclose(band, expected, atol=1e-10)


def test_invert_noise_propagation():
    # Parseval: i.i.d. complex noise of std s per G sample becomes
    # s / (sqrt(n) * d_omega) per band point.
    g = make_grid(0.0, 16.0, 32)
    rng = np.random.default_rng(101)
    s = 1e-3
    est_clean = np.zeros(g.n, dtype=complex)
    samples = []
    for _ in range(400):
        noise = (rng.normal(size=g.n) + 1j * rng.normal(size=g.n)) * (s / math.sqrt(2))
        est = CrossSectionEstimate([0], [est_clean + noise], np.zeros((1, g.n)))
        samples.append(invert_cross_section(est, g)[0])
    per_point_std = np.sqrt(np.mean(np.abs(np.array(samples)) ** 2, axis=0))
    predicted = s / (math.sqrt(g.n) * g.d_omega)
    np.testing.assert_allclose(per_point_std, predicted, rtol=0.15)


def test_invert_length_mismatch(grid64):
    est = CrossSectionEstimate([0], np.ones((1, 10), dtype=complex), np.zeros((1, 10)))
    with pytest.raises(ValueError):
        invert_cross_section(est, grid64)


# ---------------------------------------------------------------------------
# assemble / project_physical
# ---------------------------------------------------------------------------

def test_assemble_round_trip(grid64, standard_states):
    rho = standard_states["chirped-gaussian"]
    bands = {}
    for m in range(grid64.n):
        g = cross_section_transform(rho, m)
        (bands[m],) = invert_cross_section(CrossSectionEstimate([m], [g], np.zeros((1, grid64.n))), grid64)
    raw = assemble(bands, grid64)
    assert np.max(np.abs(raw - raw.conj().T)) == 0.0
    assert hs_distance(raw, rho.rho, grid64) < 1e-10


def test_assemble_delta_zero_only_is_diagonal(grid64, standard_states):
    from spectomo import DiagnosticWarning

    rho = standard_states["chirped-gaussian"]
    g = cross_section_transform(rho, 0)
    (band,) = invert_cross_section(CrossSectionEstimate([0], [g], np.zeros((1, grid64.n))), grid64)
    with pytest.warns(DiagnosticWarning, match="bandwidth-truncation"):
        raw = assemble({0: band}, grid64)
    off_diagonal = raw - np.diag(raw.diagonal())
    assert np.all(off_diagonal == 0.0)
    np.testing.assert_allclose(raw.diagonal().real, rho.rho.diagonal().real, atol=1e-12)


def test_assemble_rejects_gaps(grid64):
    bands = {0: np.zeros(grid64.n), 2: np.zeros(grid64.n)}
    with pytest.raises(MissingSettingsError):
        assemble(bands, grid64)


def test_project_fixed_point(standard_states):
    for state in standard_states.values():
        projected, min_eig = project_physical(np.array(state.rho), state.grid)
        assert hs_distance(projected.rho, state.rho, state.grid) < 1e-12
        assert min_eig > -1e-12


def test_project_two_eigenvalue_toy():
    g = make_grid(0.0, 1.0, 2)
    raw = np.diag([1.5, -0.5]) / g.d_omega
    projected, min_eig = project_physical(raw, g)
    assert min_eig == pytest.approx(-0.5, abs=1e-12)
    np.testing.assert_allclose(
        projected.rho, np.diag([1.0, 0.0]) / g.d_omega, atol=1e-12
    )


def test_project_rejects_degenerate(grid64):
    with pytest.raises(DegenerateInputError):
        project_physical(np.zeros((grid64.n, grid64.n)), grid64)


def _random_hermitian(rng, grid):
    a = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    return (a + a.conj().T) / (2.0 * grid.n * grid.d_omega)


def _clip_and_renormalize(herm, grid):
    w, vecs = np.linalg.eigh(herm * grid.d_omega)
    clipped = np.clip(w, 0.0, None)
    return (vecs * (clipped / clipped.sum())) @ vecs.conj().T / grid.d_omega


def test_project_satisfies_simplex_kkt():
    # Nearest unit-trace PSD matrix: same eigenvectors, eigenvalues max(w - t, 0)
    # for one threshold t; every eigenvalue clipped to zero lies below t.
    rng = np.random.default_rng(41)
    g = make_grid(0.0, 10.0, 12)
    for _ in range(20):
        herm = _random_hermitian(rng, g)
        projected, min_eig = project_physical(herm, g)
        w = np.linalg.eigvalsh(herm * g.d_omega)
        v = np.linalg.eigvalsh(projected.rho * g.d_omega)
        assert min_eig == pytest.approx(w[0], abs=1e-14)
        assert v[0] > -1e-14
        assert projected.trace() == pytest.approx(1.0, abs=1e-12)
        kept = v > 1e-12
        t = w[kept] - v[kept]
        assert np.ptp(t) < 1e-12
        assert np.all(w[~kept] <= t[0] + 1e-12)
        np.testing.assert_allclose(v, np.maximum(w - t[0], 0.0), atol=1e-12)
        commutator = projected.rho @ herm - herm @ projected.rho
        assert np.max(np.abs(commutator)) * g.d_omega**2 < 1e-12


def test_project_is_idempotent():
    rng = np.random.default_rng(43)
    g = make_grid(0.0, 10.0, 12)
    for _ in range(10):
        once, _ = project_physical(_random_hermitian(rng, g), g)
        twice, min_eig = project_physical(once.rho, g)
        assert min_eig > -1e-14
        assert hs_distance(twice.rho, once.rho, g) < 1e-13


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**32 - 1), shift=st.floats(-0.5, 0.5))
def test_project_never_farther_than_clipping(n, seed, shift):
    g = make_grid(0.0, float(n), n)
    herm = _random_hermitian(np.random.default_rng(seed), g) + shift * np.eye(n) / g.d_omega
    assume(np.linalg.eigvalsh(herm * g.d_omega)[-1] > 1e-6)
    projected, _ = project_physical(herm, g)
    nearest = hs_distance(projected.rho, herm, g)
    assert nearest <= hs_distance(_clip_and_renormalize(herm, g), herm, g) + 1e-12


def test_project_keeps_purity_under_shot_noise():
    # Clip-and-renormalize read purity 0.435 here: it keeps the positive half
    # of the shot-noise eigenvalues and shrinks the signal to make room.
    g = make_grid(0.0, 16.0, 64)
    truth = time_jitter_state(gaussian_pure(g, 0.0, 1.0), 0.5)
    assert purity(truth) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)
    for seed in range(3):
        records = _sampled_records(truth, 20000, seed, InterferometerConfig(gamma=0.9))
        result = reconstruct_records(records, g)
        assert purity(result.rho_hat) == pytest.approx(purity(truth), abs=0.05)


def test_projection_distance_shrinks_with_shots():
    g = make_grid(0.0, 20.0, 24)
    rho = density_from_pure(gaussian_pure(g, 0.0, 1.0))
    moved = {}
    for shots in (1000, 100000):
        distances = []
        for seed in range(5):
            records = _sampled_records(rho, shots, seed)
            result = reconstruct_records(records, g)
            distances.append(
                hs_distance(result.rho_hat.rho, result.rho_pre_projection, g)
            )
        moved[shots] = float(np.median(distances))
    assert moved[100000] < moved[1000]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_exact_round_trip_all_fixtures(standard_states):
    for name, rho in standard_states.items():
        result = reconstruct_records(exact_records(rho), rho.grid)
        err = hs_distance(result.rho_pre_projection, rho.rho, rho.grid)
        assert err < 1e-10, (name, err)
        assert result.gamma_hat == pytest.approx(1.0, abs=1e-10)
        assert max(result.residuals) < 1e-10


def test_calibration_invariance_of_reconstruction(grid64):
    rho = density_from_pure(gaussian_pure(grid64, 0.0, 1.0, chirp=0.5))
    reference = None
    for gamma in (1.0, 0.55, 0.1):
        config = InterferometerConfig(gamma=gamma)
        result = reconstruct_records(exact_records(rho, config), grid64)
        if reference is None:
            reference = result.rho_pre_projection
        else:
            assert hs_distance(result.rho_pre_projection, reference, grid64) < 1e-10


def test_phase_sensitivity(grid64, standard_states):
    # Chirped and unchirped twins share a diagonal but not a reconstruction.
    plain = standard_states["pure-gaussian"]
    chirped = standard_states["chirped-gaussian"]
    np.testing.assert_allclose(
        plain.rho.diagonal().real, chirped.rho.diagonal().real, atol=1e-12
    )
    r_plain = reconstruct_records(exact_records(plain), grid64)
    r_chirped = reconstruct_records(exact_records(chirped), grid64)
    gap = hs_distance(r_plain.rho_hat.rho, r_chirped.rho_hat.rho, grid64)
    assert gap > 0.1


def test_delta_truncation_monotonicity(standard_states):
    rho = standard_states["two-gaussian-mixture"]
    grid = rho.grid
    errors = []
    for max_delta_index in (0, 4, 16, grid.n - 1):
        result = reconstruct_records(
            exact_records(rho, max_delta_index=max_delta_index), grid
        )
        errors.append(hs_distance(result.rho_pre_projection, rho.rho, grid))
    assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 1e-10


def test_noise_scaling_with_shots():
    g = make_grid(0.0, 20.0, 16)
    rho = density_from_pure(gaussian_pure(g, 0.0, 1.2))
    medians = {}
    for shots in (1000, 100000):
        errs = [
            hs_distance(
                reconstruct_records(_sampled_records(rho, shots, seed), g).rho_pre_projection,
                rho.rho,
                g,
            )
            for seed in range(8)
        ]
        medians[shots] = float(np.median(errs))
    ratio = medians[1000] / medians[100000]
    assert 4.0 < ratio < 25.0  # 1/sqrt(shots) predicts 10


def test_one_pass_over_every_band(monkeypatch, standard_states):
    rho = standard_states["time-jitter"]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("pool_records", "estimate_cross_section", "invert_cross_section"):
        monkeypatch.setattr(reconstruction, name, counted(name, getattr(reconstruction, name)))
    monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
    result = reconstruct_records(exact_records(rho), rho.grid)
    assert len(result.residuals) == rho.grid.n
    assert calls["pool_records"] <= 3
    assert calls["estimate_cross_section"] == calls["invert_cross_section"] == calls["ifft"] == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_runtime_warning_in_the_pipeline_reaches_the_caller(monkeypatch, standard_states):
    rho = standard_states["pure-gaussian"]
    project = reconstruction.project_physical

    def dividing_by_zero(rho_raw, grid):
        np.float64(1.0) / np.float64(0.0)
        return project(rho_raw, grid)

    monkeypatch.setattr(reconstruction, "project_physical", dividing_by_zero)
    with pytest.raises(RuntimeWarning, match="divide by zero"):
        reconstruct_records(exact_records(rho, max_delta_index=2), rho.grid)


def test_reconstruction_result_warnings_collected(standard_states):
    rho = standard_states["pure-gaussian"]
    result = reconstruct_records(exact_records(rho, max_delta_index=0), rho.grid)
    assert any(d.code == "bandwidth-truncation" for d in result.warnings)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_report_self_comparison(standard_states):
    rho = standard_states["time-jitter"]
    result = reconstruct_records(exact_records(rho), rho.grid)
    doc = report(result, truth=result.rho_hat)
    assert doc["hs_distance"] == pytest.approx(0.0, abs=1e-14)
    assert doc["overlap"] == pytest.approx(purity(result.rho_hat), abs=1e-12)


def test_report_round_trip_purity(standard_states):
    for name in ("pure-gaussian", "freq-jitter"):
        rho = standard_states[name]
        result = reconstruct_records(exact_records(rho), rho.grid)
        doc = report(result, truth=rho)
        expected = 1.0 if name == "pure-gaussian" else purity(rho)
        tol = 1e-8 if name == "pure-gaussian" else 1e-6
        assert doc["purity"] == pytest.approx(expected, abs=tol)
        assert doc["hs_distance"] < 1e-8
        assert set(doc) >= {
            "purity",
            "gamma_hat",
            "min_eigenvalue_pre_projection",
            "residuals",
            "warnings",
            "hs_distance",
            "overlap",
        }


def test_report_grid_mismatch(standard_states):
    from spectomo import GridMismatchError

    rho = standard_states["pure-gaussian"]
    other = density_from_pure(gaussian_pure(make_grid(0.0, 16.0, 32), 0.0, 1.0))
    result = reconstruct_records(exact_records(rho), rho.grid)
    with pytest.raises(GridMismatchError):
        report(result, truth=other)
