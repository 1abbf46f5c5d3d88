import math

import numpy as np
import pytest

from spectomo import (
    DiagnosticWarning,
    InsufficientDataError,
    InterferometerConfig,
    MeasurementRecord,
    MeasurementSetting,
    ScanTable,
    cross_section_transform,
    density_from_pure,
    estimate_p_delta,
    gaussian_pure,
    make_grid,
    plan_scan,
    pool_records,
    read_records,
    simulate_counts,
    write_records,
)
from spectomo.diagnostics import capture
from spectomo import measurement
from spectomo.measurement import P_DELTA_HEADER, THETAS, p_delta_rows, write_p_delta_table

IDEAL = InterferometerConfig()


def _state(grid):
    return density_from_pure(gaussian_pure(grid, 0.0, 1.0))


# ---------------------------------------------------------------------------
# plan_scan
# ---------------------------------------------------------------------------

def test_plan_counts_single_delta():
    g = make_grid(0.0, 8.0, 8)
    plan = plan_scan(g, 0, shots=100, seed=1)
    cells = plan.cells()
    assert all(col.dtype == np.int64 and col.shape == cells[0].shape for col in cells)
    settings = list(zip(*(col.tolist() for col in cells)))
    assert len(settings) == 2 * 8 * 1 + 2
    assert plan.n_settings == len(settings)
    assert settings[:2] == [(0, 0, 0), (0, 0, 1)]  # the calibration pair leads
    assert [THETAS[slot] for _, _, slot in settings[:2]] == [0.0, math.pi / 2]


@pytest.mark.parametrize("n, max_delta_index", [(2, 0), (4, 0), (4, 3), (8, 5), (16, 15)])
def test_cells_follow_the_documented_order(n, max_delta_index):
    # The README's order, written out: the calibration pair, then every
    # (delta, tau, theta slot) cell with delta outermost and the slot innermost.
    expected = [(0, 0, 0), (0, 0, 1)]
    for delta_index in range(max_delta_index + 1):
        for tau_index in range(n):
            for slot in (0, 1):
                expected.append((delta_index, tau_index, slot))
    plan = plan_scan(make_grid(0.0, 8.0, n), max_delta_index, shots=1, seed=0)
    assert list(zip(*(col.tolist() for col in plan.cells()))) == expected
    assert plan.n_settings == len(expected)
    assert list(plan.delta_indices) == list(range(max_delta_index + 1))


def test_plan_counts_full_delta():
    g = make_grid(0.0, 8.0, 8)
    plan = plan_scan(g, 7, shots=100, seed=1)
    assert plan.n_settings == 2 * 8 * 8 + 2
    with pytest.raises(ValueError):
        plan_scan(g, 8, shots=100, seed=1)


def test_plan_hardware_advisory():
    g = make_grid(0.0, 8.0, 8)
    with pytest.warns(DiagnosticWarning, match="hardware-advisory"):
        plan_scan(g, 7, shots=100, seed=1, max_delta_advisory=2.0)
    with capture() as loud:
        plan_scan(g, 7, shots=100, seed=1, max_delta_advisory=2.0)
    assert any(d.code == "hardware-advisory" for d in loud)
    with capture() as quiet:
        plan_scan(g, 1, shots=100, seed=1, max_delta_advisory=2.0)
    assert quiet == []


# ---------------------------------------------------------------------------
# simulate_counts
# ---------------------------------------------------------------------------

def test_exact_mode_keeps_all_shots():
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 3, shots=1000, seed=0)
    records = simulate_counts(_state(g), plan, IDEAL, exact=True)
    assert len(records) == plan.n_settings
    for rec in records:
        assert rec.shots_postselected == rec.shots_attempted == 1000
        assert rec.counts_a + rec.counts_b == pytest.approx(1000)


def test_exact_mode_estimator_bias_bound():
    # Unrounded exact counts make the estimator bias zero, well inside the
    # 1/(2*shots) rounding bound.
    g = make_grid(0.0, 16.0, 16)
    rho = _state(g)
    plan = plan_scan(g, 2, shots=100, seed=0)
    from oracles import probabilities_closed_form

    for rec in simulate_counts(rho, plan, IDEAL, exact=True):
        p_a, _ = probabilities_closed_form(rho, rec.setting, IDEAL)
        assert abs(rec.counts_a / rec.shots_postselected - p_a) <= 1.0 / (2 * 100)


def test_lossless_sampling_keeps_all_shots():
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 1, shots=500, seed=42)
    for rec in simulate_counts(_state(g), plan, IDEAL):
        assert rec.shots_postselected == rec.shots_attempted == 500


def test_bright_port_never_counts_b():
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 0, shots=2000, seed=9)
    records = simulate_counts(_state(g), plan, IDEAL)
    bright = [r for r in records if r.setting.theta == 0.0 and r.tau_index == 0]
    assert bright
    for rec in bright:
        assert rec.counts_b == 0


def test_lossy_regime_requires_compensation():
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 0, shots=100, seed=0)
    with pytest.raises(ValueError, match="compensate_loss"):
        simulate_counts(_state(g), plan, InterferometerConfig(xi=0.5))


def _band_stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def test_determinism_and_substream_independence():
    g = make_grid(0.0, 16.0, 16)
    rho = _state(g)
    config = InterferometerConfig(xi=0.8, compensate_loss=True, detector_efficiency=0.9)
    plan = plan_scan(g, 2, shots=300, seed=1234)
    first = simulate_counts(rho, plan, config)
    second = simulate_counts(rho, plan, config)
    assert first == second
    # band delta's rows depend only on (seed, delta): replay band 1 by hand,
    # its post-selected shots and then its port-A counts as two draws
    from oracles import probabilities_closed_form

    rows = slice(2 + 2 * g.n, 2 + 4 * g.n)
    delta_index, tau_index, slot = (col[rows].tolist() for col in plan.cells())
    assert set(delta_index) == {1}
    assert (first.tau_index[rows].tolist(), first.theta_slot[rows].tolist()) == (tau_index, slot)
    p_a = [
        probabilities_closed_form(rho, MeasurementSetting(k * g.d_tau, 1, THETAS[s]), config)[0]
        for k, s in zip(tau_index, slot)
    ]
    rng = _band_stream(plan.seed, (1, 1))
    post = rng.binomial(300, config.post_selection_rate, size=2 * g.n)
    counts_a = rng.binomial(post, p_a)
    assert first.shots_postselected[rows].tolist() == post.tolist()
    assert first.counts_a[rows].tolist() == counts_a.tolist()


@pytest.mark.filterwarnings("ignore:support-clipping")
def test_band_rows_do_not_depend_on_scan_coverage():
    g = make_grid(0.0, 16.0, 16)
    rho = _state(g)
    config = InterferometerConfig(xi=0.8, compensate_loss=True, detector_efficiency=0.9)
    narrow = simulate_counts(rho, plan_scan(g, 2, shots=300, seed=99), config)
    wide = simulate_counts(rho, plan_scan(g, 5, shots=300, seed=99), config)
    # calibration pair and bands 0..2 are rows 0 .. 2 + 2n*3 of both scans
    assert len(narrow) == 2 + 2 * g.n * 3
    assert wide[: len(narrow)] == narrow
    rng = _band_stream(99, (0,))
    post = rng.binomial(300, config.post_selection_rate, size=2)
    assert narrow.shots_postselected[:2].tolist() == post.tolist()


def test_postselection_accounting():
    g = make_grid(0.0, 16.0, 16)
    config = InterferometerConfig(xi=0.7, compensate_loss=True, detector_efficiency=0.8)
    plan = plan_scan(g, 3, shots=400, seed=77)
    records = simulate_counts(_state(g), plan, config)
    attempted = sum(r.shots_attempted for r in records)
    post = sum(r.shots_postselected for r in records)
    rate = config.post_selection_rate
    sigma = math.sqrt(rate * (1 - rate) / attempted)
    assert abs(post / attempted - rate) < 3 * sigma


def test_statistical_soundness_mean_converges():
    # Empirical mean of p_delta over seeds approaches gamma*Re[e^{i theta} G],
    # with 1/sqrt(shots) errors, checked at two shot scales with 3-sigma bands.
    g = make_grid(0.0, 16.0, 16)
    rho = _state(g)
    gamma = 0.9
    config = InterferometerConfig(gamma=gamma)
    j, k, theta = 3, 1, 0.0
    setting = MeasurementSetting(g.taus[j], k, theta)
    truth = gamma * (np.exp(1j * theta) * cross_section_transform(rho, k)[j]).real
    n_runs = 150
    from oracles import probabilities_closed_form

    p_a, _ = probabilities_closed_form(rho, setting, config)
    for shots in (100, 10000):
        plans = [plan_scan(g, 1, shots=shots, seed=seed) for seed in range(n_runs)]
        # The tomography (not calibration) setting at (k, j, theta).
        ordinal = next(
            i for i, cell in enumerate(zip(*(col.tolist() for col in plans[0].cells())))
            if i >= 2 and cell == (k, j, THETAS.index(theta))
        )
        records = [next(iter(simulate_counts(rho, plan, config)[ordinal:ordinal + 1])) for plan in plans]
        estimates = estimate_p_delta(ScanTable.from_records(records))[0]
        err = abs(np.mean(estimates) - truth)
        scale = 2 * math.sqrt(p_a * (1 - p_a) / shots)
        assert err < 3 * scale / math.sqrt(n_runs), (shots, err, scale)


# ---------------------------------------------------------------------------
# estimate_p_delta
# ---------------------------------------------------------------------------

def test_estimate_arithmetic():
    rec = MeasurementRecord(MeasurementSetting(0.0, 0, 0.0), 0, 100, 100, 75, 25)
    (p,), (se,) = estimate_p_delta(ScanTable.from_records([rec]))
    assert p == pytest.approx(0.5)
    assert se == pytest.approx(2 * math.sqrt(0.75 * 0.25 / 100), abs=1e-12)


def test_estimate_symmetric_counts():
    rec = MeasurementRecord(MeasurementSetting(0.0, 0, 0.0), 0, 100, 100, 50, 50)
    assert estimate_p_delta(ScanTable.from_records([rec]))[0][0] == 0.0


def test_estimate_requires_postselected_shots():
    rec = MeasurementRecord(MeasurementSetting(0.0, 0, 0.0), 0, 100, 0, 0, 0)
    with pytest.raises(InsufficientDataError):
        estimate_p_delta(ScanTable.from_records([rec]))


def test_record_invariant_validation():
    # A hand-built record is checked when it becomes a table.
    with pytest.raises(ValueError):
        ScanTable.from_records([MeasurementRecord(MeasurementSetting(0.0, 0, 0.0), 0, 100, 100, 60, 50)])
    with pytest.raises(ValueError):
        ScanTable.from_records([MeasurementRecord(MeasurementSetting(0.0, 0, 0.0), 0, 100, 150, 100, 50)])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 2, shots=250, seed=5)
    records = simulate_counts(_state(g), plan, IDEAL)
    path = tmp_path / "records.csv"
    write_records(path, records)
    assert read_records(path, g) == records


def test_csv_round_trip_exact_counts(tmp_path):
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 1, shots=1000, seed=5)
    records = simulate_counts(_state(g), plan, IDEAL, exact=True)
    path = tmp_path / "records.csv"
    write_records(path, records)
    back = read_records(path, g)
    for a, b in zip(records, back):
        assert a.counts_a == b.counts_a  # full float precision survives


def test_csv_bytes_deterministic(tmp_path):
    g = make_grid(0.0, 16.0, 16)
    rho = _state(g)
    plan = plan_scan(g, 2, shots=250, seed=5)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_records(p1, simulate_counts(rho, plan, IDEAL))
    write_records(p2, simulate_counts(rho, plan, IDEAL))
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == "delta_index,tau_index,theta_rad,shots_attempted,shots_postselected,counts_A,counts_B"


def test_read_records_rejects_malformed(tmp_path):
    from spectomo import DataFormatError

    g = make_grid(0.0, 16.0, 16)
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,header\n")
    with pytest.raises(DataFormatError):
        read_records(bad, g)
    bad.write_text(
        "delta_index,tau_index,theta_rad,shots_attempted,shots_postselected,counts_A,counts_B\n"
        "0,0,0.0,100,100,60\n"
    )
    with pytest.raises(DataFormatError):
        read_records(bad, g)


def test_pooling_merges_calibration_and_tomography_rows():
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 0, shots=100, seed=3)
    records = simulate_counts(_state(g), plan, IDEAL)
    pooled = pool_records(records)
    # the (delta=0, tau=0) cells appear twice (calibration + tomography)
    assert len(records) == 2 * 16 + 2
    assert len(pooled) == 2 * 16
    merged = [r for r in pooled if r.tau_index == 0]
    for rec in merged:
        assert rec.shots_attempted == 200


def test_p_delta_rows_exact_values():
    g = make_grid(0.0, 16.0, 16)
    rho = _state(g)
    plan = plan_scan(g, 0, shots=1000, seed=0)
    records = simulate_counts(rho, plan, IDEAL, exact=True)
    columns = p_delta_rows(records, g)
    assert all(isinstance(col, np.ndarray) and len(col) == 2 * 16 for col in columns)
    g0 = cross_section_transform(rho, 0)
    for delta_index, tau_index, tau, theta, p_delta, _ in zip(*(col.tolist() for col in columns)):
        assert delta_index == 0
        assert tau == pytest.approx(tau_index * g.d_tau)
        expected = (np.exp(1j * theta) * g0[tau_index]).real
        assert p_delta == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("exact", [False, True])
def test_p_delta_table_is_one_repr_line_per_cell(tmp_path, monkeypatch, exact):
    # Reference: one f-string of the row's Python values per line. A block size
    # of 7 rows makes the writer cross block boundaries mid-band.
    g = make_grid(0.0, 16.0, 16)
    plan = plan_scan(g, 3, shots=50, seed=11)
    records = simulate_counts(_state(g), plan, InterferometerConfig(gamma=0.7), exact=exact)
    monkeypatch.setattr(measurement, "_P_DELTA_BLOCK", 7)
    path = tmp_path / "p_delta.csv"
    write_p_delta_table(path, records, g)
    rows = zip(*(col.tolist() for col in p_delta_rows(records, g)))
    expected = [P_DELTA_HEADER] + [
        f"{delta},{k},{tau!r},{theta!r},{p!r},{se!r}" for delta, k, tau, theta, p, se in rows
    ]
    assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
    assert len(expected) == 1 + 2 * 16 * 4


def test_p_delta_table_of_no_rows_is_the_header(tmp_path):
    g = make_grid(0.0, 16.0, 16)
    path = tmp_path / "p_delta.csv"
    write_p_delta_table(path, ScanTable([], [], [], [], [], [], [], []), g)
    assert path.read_text() == P_DELTA_HEADER + "\n"
