import json

import numpy as np
import pytest

from spectomo import (
    DataFormatError,
    SpectralDensityMatrix,
    density_from_pure,
    gaussian_pure,
    load_density_matrix,
    save_density_matrix,
    time_jitter_state,
)
from conftest import MALFORMED_RHO, density_matrix_to_dict


def test_json_round_trip_bit_exact(tmp_path, standard_states):
    for name, state in standard_states.items():
        path = tmp_path / f"{name}.json"
        save_density_matrix(path, state)
        back = load_density_matrix(path)
        assert back.grid == state.grid
        np.testing.assert_array_equal(back.rho, state.rho)


@pytest.mark.parametrize("units", ["SI-rad-per-s", "dimensionless"])
def test_writer_bytes_match_reference(tmp_path, standard_states, units):
    for name, state in standard_states.items():
        path = tmp_path / f"{name}.json"
        save_density_matrix(path, state, units=units)
        expected = json.dumps(density_matrix_to_dict(state, units)) + "\n"
        assert path.read_text() == expected, name


def test_writer_bytes_signed_zero_lower_triangle(tmp_path, grid64):
    # A real-valued kernel: every Im is +0.0, so the lower triangle's
    # conjugates are written as -0.0.
    real = np.array(density_from_pure(gaussian_pure(grid64, 0.0, 1.0)).rho.real)
    state = SpectralDensityMatrix(grid64, real)
    assert not np.signbit(state.rho.imag).any()
    doc = density_matrix_to_dict(state)
    n = grid64.n
    assert repr(doc["rho"][n][1]) == "-0.0"  # entry (1, 0)
    assert repr(doc["rho"][1][1]) == "0.0"  # entry (0, 1)
    path = tmp_path / "real.json"
    save_density_matrix(path, state)
    assert path.read_text() == json.dumps(doc) + "\n"
    back = load_density_matrix(path)
    np.testing.assert_array_equal(np.signbit(back.rho.imag), np.tril(np.ones((n, n), bool), -1))


def test_json_document_fields(grid64):
    state = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    doc = density_matrix_to_dict(state)
    assert set(doc) == {"omega_min", "d_omega", "n", "units", "rho"}
    assert doc["n"] == grid64.n
    assert doc["units"] == "SI-rad-per-s"
    assert len(doc["rho"]) == grid64.n**2
    assert all(len(pair) == 2 for pair in doc["rho"])


def test_writer_emits_exactly_hermitian_data(tmp_path, grid64):
    state = time_jitter_state(gaussian_pure(grid64, 0.5, 1.0, chirp=0.4), 0.7)
    doc = density_matrix_to_dict(state)
    n = grid64.n
    flat = np.array([complex(re, im) for re, im in doc["rho"]]).reshape(n, n)
    assert np.max(np.abs(flat - flat.conj().T)) == 0.0


def test_loader_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(DataFormatError):
        load_density_matrix(path)
    path.write_text(json.dumps({"omega_min": 0.0, "d_omega": 0.1}))
    with pytest.raises(DataFormatError):
        load_density_matrix(path)
    path.write_text(json.dumps({"omega_min": 0.0, "d_omega": 0.1, "n": 4, "rho": [[1, 0]]}))
    with pytest.raises(DataFormatError, match="expected 16"):
        load_density_matrix(path)


def test_loader_rejects_unphysical_kernel(tmp_path, grid64):
    state = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    doc = density_matrix_to_dict(state)
    doc["rho"] = [[2 * re, 2 * im] for re, im in doc["rho"]]  # trace 2
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match="physical"):
        load_density_matrix(path)


def test_loader_accepts_other_unit_labels(tmp_path, grid64):
    state = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    doc = density_matrix_to_dict(state, units="dimensionless")
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc))
    back = load_density_matrix(path)
    np.testing.assert_array_equal(back.rho, state.rho)


@pytest.mark.parametrize("case", sorted(MALFORMED_RHO))
def test_loader_rejects_malformed_entries(tmp_path, grid64, case):
    state = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))
    doc = density_matrix_to_dict(state)
    doc["rho"] = MALFORMED_RHO[case](doc["rho"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    match = "finite" if "nan" in case or "infinity" in case else "kernel entries"
    with pytest.raises(DataFormatError, match=match):
        load_density_matrix(path)
