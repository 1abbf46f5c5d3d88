import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spectomo import (
    DataFormatError,
    FrequencyGrid,
    SpectralDensityMatrix,
    density_from_pure,
    gaussian_pure,
    load_density_matrix,
    save_density_matrix,
    time_jitter_state,
)
from spectomo.core import _canonical_document, density_matrix_from_dict
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
    with pytest.raises(DataFormatError, match=match) as excinfo:
        load_density_matrix(path)
    assert ("DataFormatError", str(excinfo.value)) == _outcome(_reference_load, path)


# ---------------------------------------------------------------------------
# Reader: the canonical fast path against a plain json.loads of the file
# ---------------------------------------------------------------------------

EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-05, 1e16, -1e16,
    1.7976931348623157e308, -1.7976931348623157e308,
]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


def _reference_load(path):
    """The loader as one `json.loads` of the whole text."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object")
    return density_matrix_from_dict(doc)


def _outcome(load, path):
    """`rho` bytes of a successful load, else the exception's type and message."""
    try:
        return "rho", load(path).rho.tobytes()
    except (DataFormatError, RuntimeWarning) as exc:  # RuntimeWarning: overflow near the largest float
        return type(exc).__name__, str(exc)


def _n2_text(d_omega, pairs):
    doc = {"omega_min": 0.0, "d_omega": d_omega, "n": 2, "units": "dimensionless", "rho": pairs}
    return json.dumps(doc) + "\n"


@settings(max_examples=200, deadline=None)
@given(values=st.lists(finite_floats, min_size=8, max_size=8))
@example(values=EDGE_FLOATS[:8])
@example(values=EDGE_FLOATS[2:])
def test_canonical_reader_parses_every_finite_float_as_json_does(tmp_path_factory, values):
    text = _n2_text(0.5, [values[k : k + 2] for k in range(0, 8, 2)])
    doc = _canonical_document(text)
    assert doc is not None
    expected = np.array(json.loads(text)["rho"], dtype=np.float64)
    assert doc["rho"].dtype == np.float64
    assert doc["rho"].tobytes() == expected.tobytes()
    path = tmp_path_factory.getbasetemp() / "any-floats.json"
    path.write_text(text)
    assert _outcome(load_density_matrix, path) == _outcome(_reference_load, path)


small = st.one_of(st.sampled_from(EDGE_FLOATS[:6]), st.floats(-0.05, 0.05))


@settings(max_examples=100, deadline=None)
@given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0), c=small, e=small)
def test_canonical_reader_loads_physical_states_as_json_does(tmp_path_factory, a, b, c, e):
    # [[a, c + ie], [c - ie, b]] with d_omega = 1/(a + b): unit trace, PSD as |c + ie|^2 <= ab.
    text = _n2_text(1.0 / (a + b), [[a, 0.0], [c, e], [c, -e], [b, 0.0]])
    path = tmp_path_factory.getbasetemp() / "physical.json"
    path.write_text(text)
    kind, rho = _outcome(load_density_matrix, path)
    assert kind == "rho"
    assert (kind, rho) == _outcome(_reference_load, path)


def _unchecked_state(grid, kernel):
    """A state holding `kernel` as it is, past the constructor's checks."""
    state = object.__new__(SpectralDensityMatrix)
    for name, value in (("grid", grid), ("rho", kernel), ("cache", {})):
        object.__setattr__(state, name, value)
    return state


@st.composite
def unchecked_states(draw):
    # Any finite entries, the lower triangle unrelated to the upper one.
    n = draw(st.integers(2, 9))
    grid = FrequencyGrid(draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-3, 10.0)), n)
    values = draw(st.lists(finite_floats, min_size=2 * n * n, max_size=2 * n * n))
    return _unchecked_state(grid, np.array(values).view(np.complex128).reshape(n, n))


@settings(max_examples=150, deadline=None)
@given(state=unchecked_states())
@example(state=_unchecked_state(FrequencyGrid(0.0, 1.0, 2), np.array([[-0.0, 5e-324 - 0.0j], [1e308j, 0.0]])))
def test_one_pass_writes_the_hermitian_fill(tmp_path_factory, state):
    path = tmp_path_factory.getbasetemp() / "fill.json"
    heatmap = tmp_path_factory.getbasetemp() / "fill.csv"
    with np.errstate(over="ignore"):  # abs of entries near the float limit is inf
        save_density_matrix(path, state, units="dimensionless", heatmap=heatmap)
    doc = density_matrix_to_dict(state, "dimensionless")
    assert path.read_text() == json.dumps(doc) + "\n"
    n, grid = state.grid.n, state.grid
    lines = heatmap.read_text().split("\n")
    assert lines[0] == "i,j,omega_i,omega_j,re,im,abs"
    assert lines[-1] == ""
    expected = [
        [str(k // n), str(k % n), repr(grid.omega(k // n)), repr(grid.omega(k % n)),
         repr(re), repr(im), repr(math.hypot(re, im))]
        for k, (re, im) in enumerate(doc["rho"])
    ]
    assert [line.split(",") for line in lines[1:-1]] == expected


def _saved_text(tmp_path, state):
    path = tmp_path / "saved.json"
    save_density_matrix(path, state)
    return path.read_text()


NON_CANONICAL = {
    "indent-2": lambda text: json.dumps(json.loads(text), indent=2),
    "rho-first": lambda text: json.dumps({"rho": json.loads(text)["rho"], **json.loads(text)}),
    "extra-whitespace": lambda text: " " + text.replace("], [", "] ,\n\t[ ").replace("]]}", "]\r\n] }") + " \n",
    "compact": lambda text: json.dumps(json.loads(text), separators=(",", ":")),
}


@pytest.mark.parametrize("layout", sorted(NON_CANONICAL))
def test_loader_reads_other_layouts_as_json_does(tmp_path, grid64, layout):
    state = time_jitter_state(gaussian_pure(grid64, 0.5, 1.0, chirp=0.4), 0.7)
    text = NON_CANONICAL[layout](_saved_text(tmp_path, state))
    assert _canonical_document(text) is None
    path = tmp_path / "other.json"
    path.write_text(text)
    np.testing.assert_array_equal(load_density_matrix(path).rho, state.rho)
    assert _outcome(load_density_matrix, path) == _outcome(_reference_load, path)


def test_loader_reads_integer_entries(tmp_path):
    # [[1, 0], [0, 1]] on d_omega = 0.5 has unit trace.
    text = json.dumps({"omega_min": 0.0, "d_omega": 0.5, "n": 2, "rho": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    assert _canonical_document(text) is None
    path = tmp_path / "int.json"
    path.write_text(text)
    np.testing.assert_array_equal(load_density_matrix(path).rho, np.eye(2))
    assert _outcome(load_density_matrix, path) == _outcome(_reference_load, path)


# Numbers that a lenient float parser takes and JSON does not, and one JSON
# takes that overflows to infinity.
RAW_EDITS = {
    "plus-sign": "+1.0",
    "trailing-point": "1.",
    "leading-point": ".5",
    "leading-zero": "01.5",
    "digit-separator": "1_0.0",
    "inf": "inf",
    "overflow": "1e+999",
}


@pytest.mark.parametrize("case", sorted(RAW_EDITS) + ["trailing-comma", "trailing-form-feed"])
def test_loader_rejects_raw_text_edits_as_json_does(tmp_path, grid64, case):
    text = _saved_text(tmp_path, density_from_pure(gaussian_pure(grid64, 0.0, 1.0)))
    if case == "trailing-comma":
        text = text.replace("]]}", "],]}")
    elif case == "trailing-form-feed":  # whitespace to str.strip, not to JSON
        text += "\f"
    else:
        head, first, rest = text.partition('"rho": [[')
        text = head + first + RAW_EDITS[case] + rest[rest.index(","):]
    path = tmp_path / "edited.json"
    path.write_text(text)
    kind, message = _outcome(load_density_matrix, path)
    assert kind == "DataFormatError"
    assert (kind, message) == _outcome(_reference_load, path)
    assert ("finite" if case == "overflow" else "not valid JSON") in message


def test_loader_passes_json_loads_only_the_header(tmp_path, monkeypatch, standard_states):
    state = standard_states["time-jitter"]
    path = tmp_path / "state.json"
    save_density_matrix(path, state)
    header = path.read_text().index('"rho": ') + len('"rho": []}')
    lengths = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: lengths.append(len(text)) or loads(text, **kw))
    np.testing.assert_array_equal(load_density_matrix(path).rho, state.rho)
    assert lengths and max(lengths) <= header
