import contextlib
import gc
import io
import json
import math
import os
import tracemalloc
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
from spectomo import core
from spectomo.cli import main
from spectomo.core import density_matrix_from_dict
from conftest import MALFORMED_RHO, density_matrix_to_dict, piped


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


# Files whose `n` is not an integer of at least 2: (its JSON text, the
# number of identity-like [re, im] pairs the file holds).
BAD_N = {
    "negative": ("-2", 4),  # n * n entries, as for n = 2
    "overflowing": ("1e999", 4),
    "fraction": ("2.5", 4),
    "string": ('"2"', 4),
    "bool": ("true", 1),
    "one": ("1", 1),
    "zero": ("0", 0),
}


def _grid_text(layout, pairs, n="2", omega_min="0.0"):
    """A density-matrix file in the layout `save_density_matrix` writes, or compact."""
    if layout == "canonical":
        rho = ", ".join(f"[{re!r}, {im!r}]" for re, im in pairs)
        return f'{{"omega_min": {omega_min}, "d_omega": 0.5, "n": {n}, "units": "SI-rad-per-s", "rho": [{rho}]}}\n'
    rho = ",".join(f"[{re!r},{im!r}]" for re, im in pairs)
    return f'{{"omega_min":{omega_min},"d_omega":0.5,"n":{n},"rho":[{rho}]}}'


def _streamed(path):
    """`core._streamed_document` of the file at `path`, open for binary reads."""
    with open(path, "rb") as f:
        return core._streamed_document(f)


def _assert_layout(path, text, layout):
    """Write `text` to `path`: with a good grid, only the canonical layout streams."""
    path.write_text(text)
    assert (_streamed(path) is not None) == (layout == "canonical")


def _rejections(path, capsys):
    """What the loader, the grid reader and `spectomo analyze` make of `path`."""
    messages = []
    for read in (load_density_matrix, core.read_density_matrix_grid):
        with pytest.raises(DataFormatError) as excinfo:
            read(path)
        messages.append(str(excinfo.value))
    assert main(["analyze", str(path), str(path)]) == 3
    messages.append(capsys.readouterr().err.strip().removeprefix("error: "))
    return messages


@pytest.mark.parametrize("layout", ["canonical", "compact"])
@pytest.mark.parametrize("case", sorted(BAD_N))
def test_loader_rejects_n_below_2_or_not_an_integer(tmp_path, capsys, case, layout):
    text, entries = BAD_N[case]
    path = tmp_path / "bad-n.json"
    pairs = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    _assert_layout(path, _grid_text(layout, pairs), layout)
    path.write_text(_grid_text(layout, pairs[:entries], n=text))
    assert _streamed(path) is None  # no grid: the `json.loads` route
    message = f"n must be an integer of at least 2, got {json.loads(text)!r}"
    assert _rejections(path, capsys) == [message] * 3


@pytest.mark.parametrize("layout", ["canonical", "compact"])
def test_loader_rejects_a_grid_field_beyond_a_float(tmp_path, capsys, layout):
    path = tmp_path / "huge.json"
    pairs = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    _assert_layout(path, _grid_text(layout, pairs), layout)
    path.write_text(_grid_text(layout, pairs, omega_min="1" * 400))
    assert _streamed(path) is None  # no grid: the `json.loads` route
    message = "malformed density-matrix document: int too large to convert to float"
    assert _rejections(path, capsys) == [message] * 3


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
    path = tmp_path_factory.getbasetemp() / "any-floats.json"
    path.write_text(text)
    doc = _streamed(path)
    assert doc is not None
    expected = np.array(json.loads(text)["rho"], dtype=np.float64)
    assert doc["rho"].dtype == np.float64
    assert doc["rho"].tobytes() == expected.tobytes()
    assert _outcome(load_density_matrix, path) == _outcome(_reference_load, path)


@st.composite
def square_pair_lists(draw):
    n = draw(st.integers(2, 4))
    pairs = st.tuples(finite_floats, finite_floats)
    return n, draw(st.lists(pairs, min_size=n * n, max_size=n * n))


@pytest.mark.parametrize("parse_chars", [1, 7, 40])
@settings(max_examples=50, deadline=None)
@given(square=square_pair_lists(), past_head=st.integers(0, 200))
def test_canonical_reader_parses_in_blocks_as_in_one_piece(tmp_path_factory, parse_chars, square, past_head):
    # Blocks of 1, 7 or 40 bytes end after every pair, after a few, or not at
    # all, after the head read has taken `past_head` bytes of the list.
    n, pairs = square
    text = json.dumps({"omega_min": 0.0, "d_omega": 0.5, "n": n, "rho": pairs})
    path = tmp_path_factory.getbasetemp() / "blocks.json"
    path.write_text(text)
    with open(path, "rb") as f, pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_PARSE_CHARS", parse_chars)
        f.seek(text.index('"rho": ') + len('"rho": '))
        parsed = core._read_pairs(f, f.read(past_head), n * n)
    expected = np.array(json.loads(text)["rho"], dtype=np.float64).reshape(-1, 2)
    assert parsed.tobytes() == expected.tobytes()


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


def _expected_heatmap_rows(state, pairs):
    """The heatmap cells of `pairs`, the row-major [re, im] list of the
    Hermitian fill, as the writer spells them: abs is `np.hypot` of the same
    float64 values, which is within 1 ulp of the correctly rounded
    `math.hypot` but not always equal to it (0.429 + 0.759j is 1 ulp below)."""
    n, grid = state.grid.n, state.grid
    values = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    with np.errstate(over="ignore"):  # abs of entries near the float limit is inf
        magnitudes = np.hypot(values[:, 0], values[:, 1]).tolist()
    for (re, im), mag in zip(pairs, magnitudes):
        exact = math.hypot(re, im)
        assert mag == exact or abs(mag - exact) <= math.ulp(exact)
    return [
        [str(k // n), str(k % n), repr(grid.omega(k // n)), repr(grid.omega(k % n)),
         repr(re), repr(im), repr(mag)]
        for k, ((re, im), mag) in enumerate(zip(pairs, magnitudes))
    ]


def _assert_writes_the_hermitian_fill(directory, state, heatmap=True):
    path = directory / "fill.json"
    heatmap_path = directory / "fill.csv" if heatmap else None
    with np.errstate(over="ignore"):  # abs of entries near the float limit is inf
        save_density_matrix(path, state, units="dimensionless", heatmap=heatmap_path)
    doc = density_matrix_to_dict(state, "dimensionless")
    assert path.read_text() == json.dumps(doc) + "\n"
    if heatmap:
        lines = heatmap_path.read_text().split("\n")
        assert lines[0] == "i,j,omega_i,omega_j,re,im,abs"
        assert lines[-1] == ""
        assert [line.split(",") for line in lines[1:-1]] == _expected_heatmap_rows(state, doc["rho"])


@settings(max_examples=150, deadline=None)
@given(state=unchecked_states())
@example(state=_unchecked_state(FrequencyGrid(0.0, 1.0, 2), np.array([[-0.0, 5e-324 - 0.0j], [1e308j, 0.0]])))
@example(state=_unchecked_state(FrequencyGrid(0.0, 1.0, 2), np.array([[0.429 + 0.759j, 0.429 + 0.759j], [0.0, 1.0]])))
def test_one_pass_writes_the_hermitian_fill(tmp_path_factory, state):
    _assert_writes_the_hermitian_fill(tmp_path_factory.getbasetemp(), state)


@st.composite
def packed_states(draw):
    # Up to 12 rows, so that packing every 1, 2 or 3 rows leaves blocks of
    # every length behind; the kernel is either exactly Hermitian or any,
    # and real (every Im +0.0, then -0.0 in a Hermitian lower triangle) or not.
    n = draw(st.integers(2, 12))
    grid = FrequencyGrid(draw(st.floats(-1e3, 1e3)), draw(st.floats(1e-3, 10.0)), n)
    values = draw(st.lists(finite_floats, min_size=2 * n * n, max_size=2 * n * n))
    kernel = np.array(values).view(np.complex128).reshape(n, n)
    if draw(st.booleans()):
        kernel.imag = 0.0
    if draw(st.booleans()):
        lower = np.tril_indices(n, -1)
        kernel[lower] = kernel.T[lower].conj()
        kernel[np.diag_indices(n)] = kernel.diagonal().real
        assert np.array_equal(kernel, kernel.conj().T)
    return _unchecked_state(grid, kernel)


@pytest.mark.parametrize("pack_rows", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(state=packed_states(), heatmap=st.booleans())
def test_writer_bytes_across_packing_boundaries(tmp_path_factory, pack_rows, state, heatmap):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_PACK_ROWS", pack_rows)
        _assert_writes_the_hermitian_fill(tmp_path_factory.getbasetemp(), state, heatmap)


def test_writer_bytes_at_the_packing_interval(tmp_path):
    # n = 97 packs three times at 32 rows and leaves one row unpacked.
    assert core._PACK_ROWS == 32
    rng = np.random.default_rng(97)
    n = 97
    values = rng.normal(size=2 * n * n) * 10.0 ** rng.integers(-20, 20, size=2 * n * n)
    state = _unchecked_state(FrequencyGrid(-3.0, 0.0625, n), values.view(np.complex128).reshape(n, n))
    _assert_writes_the_hermitian_fill(tmp_path, state)


@pytest.mark.parametrize("case", ["real", "minus-zero-above", "loaded-real"])
def test_writer_spells_the_im_of_a_real_kernel_from_constants(tmp_path, monkeypatch, grid64, case):
    n = grid64.n
    state = density_from_pure(gaussian_pure(grid64, 0.0, 1.0))  # every Im +0.0
    assert not np.signbit(state.rho.imag).any()
    if case == "minus-zero-above":  # still exactly Hermitian: -0.0 == -(+0.0)
        kernel = np.array(state.rho)
        kernel[0, 1] = complex(kernel[0, 1].real, -0.0)
        state = SpectralDensityMatrix(grid64, kernel)
        doc = density_matrix_to_dict(state)
        assert (repr(doc["rho"][1][1]), repr(doc["rho"][n][1])) == ("-0.0", "0.0")  # entries (0, 1), (1, 0)
    elif case == "loaded-real":  # the lower triangle holds -0.0, as the file does
        save_density_matrix(tmp_path / "real.json", state)
        state = load_density_matrix(tmp_path / "real.json")
        np.testing.assert_array_equal(np.signbit(state.rho.imag), np.tril(np.ones((n, n), bool), -1))
    formatted, reprs = [], core._reprs
    monkeypatch.setattr(core, "_reprs", lambda values: formatted.append(len(values)) or reprs(values))
    _assert_writes_the_hermitian_fill(tmp_path, state)  # JSON and heatmap
    # Re and abs of each row from the diagonal on; Im too unless every Im there is +0.0.
    per_row = 3 if case == "minus-zero-above" else 2
    assert formatted == [n - i for i in range(n) for _ in range(per_row)]


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
    path = tmp_path / "other.json"
    path.write_text(text)
    assert _streamed(path) is None
    np.testing.assert_array_equal(load_density_matrix(path).rho, state.rho)
    assert _outcome(load_density_matrix, path) == _outcome(_reference_load, path)


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("valid", [True, False], ids=["valid", "invalid"])
def test_loader_pauses_the_gc_until_json_lists_are_freed(tmp_path, grid64, monkeypatch, collecting, valid):
    text = NON_CANONICAL["indent-2"](_saved_text(tmp_path, density_from_pure(gaussian_pure(grid64, 0.0, 1.0))))
    path = tmp_path / "other.json"
    path.write_text(text if valid else text[:-3])
    loads, from_dict, seen = json.loads, core.density_matrix_from_dict, []
    head = text.index('"rho": ') + len('"rho": []}')

    def watched_loads(s, *args, **kwargs):
        # The file's head is parsed first, as every load does; the whole text after it.
        seen.append(("head" if len(s) == head else "loads", gc.isenabled()))
        return loads(s, *args, **kwargs)

    def watched_from_dict(doc):
        seen.append(("from_dict", gc.isenabled()))
        return from_dict(doc)

    monkeypatch.setattr(json, "loads", watched_loads)
    monkeypatch.setattr(core, "density_matrix_from_dict", watched_from_dict)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if valid:
            load_density_matrix(path)
        else:
            with pytest.raises(DataFormatError, match="not valid JSON"):
                load_density_matrix(path)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [("head", collecting), ("loads", False), ("from_dict", False)][: 3 if valid else 2]


def test_loader_reads_integer_entries(tmp_path):
    # [[1, 0], [0, 1]] on d_omega = 0.5 has unit trace.
    text = json.dumps({"omega_min": 0.0, "d_omega": 0.5, "n": 2, "rho": [[1, 0], [0, 0], [0, 0], [1, 0]]})
    path = tmp_path / "int.json"
    path.write_text(text)
    assert _streamed(path) is None
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


def test_loader_decodes_a_non_ascii_head_as_read_text_does(tmp_path, grid64):
    text = _saved_text(tmp_path, density_from_pure(gaussian_pure(grid64, 0.0, 1.0)))
    text = text.replace('"units": "SI-rad-per-s"', '"units": "rad/\u00b5s \u2013 \u00e9t\u00e9"', 1)
    path = tmp_path / "non-ascii.json"
    path.write_text(text, encoding="utf-8")
    assert _streamed(path) is not None
    assert load_density_matrix(path).rho.tobytes() == _reference_load(path).rho.tobytes()


@pytest.mark.parametrize("where", ["head", "rho", "tail"])
def test_loader_rejects_undecodable_bytes_as_read_text_does(tmp_path, grid64, where):
    text = _saved_text(tmp_path, density_from_pure(gaussian_pure(grid64, 0.0, 1.0)))
    data = text.encode()
    offset = {"head": data.index(b"SI-rad"), "rho": data.index(b"[[") + 2, "tail": len(data) - 1}[where]
    path = tmp_path / "undecodable.json"
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1 :])
    with pytest.raises(UnicodeDecodeError) as excinfo:
        path.read_text()
    expected = f"{path}: not {excinfo.value.encoding} text ({excinfo.value.reason})"
    assert _outcome(load_density_matrix, path) == ("DataFormatError", expected)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_loader_reports_errors_at_read_text_positions(tmp_path, grid64, newline):
    # The text is decoded with universal newlines, so an error's line,
    # column and character offset are those `json.loads(path.read_text())` gives.
    text = _saved_text(tmp_path, density_from_pure(gaussian_pure(grid64, 0.0, 1.0)))
    text = json.dumps(json.loads(text), indent=1).replace("\n", newline).replace("]\r", "],\r", 1)
    path = tmp_path / "newlines.json"
    path.write_bytes(text.encode())
    kind, message = _outcome(load_density_matrix, path)
    assert (kind, message) == _outcome(_reference_load, path)
    assert "line " in message and "(char " in message


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


# ---------------------------------------------------------------------------
# Read boundaries: the head's 64 kB reads, then blocks of _PARSE_CHARS bytes
# ---------------------------------------------------------------------------

HEAD_READ = 1 << 16
BLOCK = 4096  # _PARSE_CHARS in these tests, so that a 64-point file spans many blocks


def _padded(text, by):
    """`text` with `by` spaces added to its `units`, which moves every byte after them."""
    return text.replace('"units": "SI-rad-per-s"', '"units": "SI-rad-per-s' + " " * by + '"', 1)


def _first_block_read(text):
    """The file offset at which the head's reads of `text` end and the blocks begin."""
    key_end = text.index('"rho": ') + len('"rho": ')
    return -(-key_end // HEAD_READ) * HEAD_READ


def _assert_streams_as_json_does(path):
    assert _streamed(path) is not None
    kind, rho = _outcome(load_density_matrix, path)
    assert kind == "rho"
    assert (kind, rho) == _outcome(_reference_load, path)


@pytest.fixture
def chirped_text(tmp_path, grid64):
    return _saved_text(tmp_path, time_jitter_state(gaussian_pure(grid64, 0.5, 1.0, chirp=0.4), 0.7))


@pytest.mark.parametrize("before", [1, 3, 6])
def test_loader_finds_rho_across_a_head_read(tmp_path, grid64, chirped_text, before):
    # `"rho": ` starts `before` bytes ahead of the end of the first 64 kB read.
    text = _padded(chirped_text, HEAD_READ - before - chirped_text.index('"rho": '))
    assert text.index('"rho": ') == HEAD_READ - before
    path = tmp_path / "long-head.json"
    path.write_text(text)
    _assert_streams_as_json_does(path)
    assert core.read_density_matrix_grid(path) == grid64


@pytest.mark.parametrize("split", [1, 2, 3])
@pytest.mark.parametrize("block", [0, 3])
def test_loader_parses_pairs_across_a_block_read(tmp_path, monkeypatch, chirped_text, block, split):
    # A "], [" with `split` of its bytes before a read boundary: the end of
    # the head's read (block 0) or of a later block.
    monkeypatch.setattr(core, "_PARSE_CHARS", BLOCK)
    boundary = _first_block_read(chirped_text) + block * BLOCK
    at = chirped_text.rindex("], [", 0, boundary - split + 4)
    text = _padded(chirped_text, boundary - split - at)
    assert text[boundary - split : boundary - split + 4] == "], ["
    assert _first_block_read(text) == _first_block_read(chirped_text)
    path = tmp_path / "straddle.json"
    path.write_text(text)
    _assert_streams_as_json_does(path)


@pytest.mark.parametrize("after", ["]}\n", "}\n", "\n", ""], ids=["pair", "list", "object", "file"])
def test_loader_parses_a_body_ending_at_a_read_boundary(tmp_path, monkeypatch, chirped_text, after):
    # The text before `after` ends exactly where a block read ends.
    monkeypatch.setattr(core, "_PARSE_CHARS", BLOCK)
    start = _first_block_read(chirped_text)
    end = len(chirped_text) - len(after)
    text = _padded(chirped_text, (start - end) % BLOCK)
    assert (len(text) - len(after) - start) % BLOCK == 0 and text.endswith(after)
    path = tmp_path / "at-boundary.json"
    path.write_text(text)
    _assert_streams_as_json_does(path)


@pytest.mark.parametrize("junk", ["x", "}", " \f", ', "n": 64}', " ], [0.0, 0.0]"])
def test_loader_rejects_junk_after_the_object_as_json_does(tmp_path, monkeypatch, chirped_text, junk):
    # The junk lies many blocks past the first one, after the pairs before it parsed.
    monkeypatch.setattr(core, "_PARSE_CHARS", BLOCK)
    text = chirped_text.removesuffix("\n") + junk + "\n"
    assert len(text) > _first_block_read(text) + 8 * BLOCK
    path = tmp_path / "junk.json"
    path.write_text(text)
    assert _streamed(path) is None
    kind, message = _outcome(load_density_matrix, path)
    assert (kind, message) == _outcome(_reference_load, path)
    assert kind == "DataFormatError" and "not valid JSON" in message


def test_loader_sizes_no_array_for_more_pairs_than_the_file_holds(tmp_path, capsys):
    # 10**10 pairs of 16 bytes would be 160 GB; the file holds four.
    path = tmp_path / "huge-n.json"
    path.write_text(_grid_text("canonical", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], n="100000"))
    expected = ("DataFormatError", "expected 10000000000 kernel entries, got 4")
    assert _outcome(_reference_load, path) == expected
    tracemalloc.start()
    try:
        assert _outcome(load_density_matrix, path) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert main(["analyze", str(path), str(path)]) == 3
    assert capsys.readouterr().err.strip() == f"error: {expected[1]}"


PIPED = {
    "canonical": lambda text: text,
    "compact": NON_CANONICAL["compact"],  # no `"rho": `: the grid reader parses it all
    "indent-2": NON_CANONICAL["indent-2"],
    "junk": lambda text: text.removesuffix("\n") + "x\n",  # streamed to its end, then rejected
    "no-grid": lambda text: text.replace('"n": 64', '"n": 1'),
    "huge-n": lambda text: _grid_text("canonical", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], n="100000"),
    "crlf-junk": lambda text: text.replace(", ", ",\r\n", 9).replace("]]}", "]] x}"),  # positions as read_text's
    "undecodable": lambda text: text.replace('"units": "', '"units": "\udcff'),
}


def _read_outcome(read, path):
    """What `read(path)` gives: a state's grid and kernel bytes, a grid, or
    the error's message with `path` spelled <path>."""
    try:
        result = read(path)
    except DataFormatError as exc:
        return str(exc).replace(str(path), "<path>")
    return (result.grid, result.rho.tobytes()) if isinstance(result, SpectralDensityMatrix) else result


@pytest.mark.parametrize("layout", sorted(PIPED))
def test_loader_reads_a_pipe_as_the_file(tmp_path, grid64, layout):
    # A pipe is read once into memory, and its bytes take the file's route:
    # the same kernel bits or the same error, named by the pipe's path.
    state = time_jitter_state(gaussian_pure(grid64, 0.5, 1.0, chirp=0.4), 0.7)
    data = PIPED[layout](_saved_text(tmp_path, state)).encode(errors="surrogateescape")
    path = tmp_path / "state.json"
    path.write_bytes(data)
    for read in (load_density_matrix, core.read_density_matrix_grid):
        with piped(tmp_path / f"pipe-{read.__name__}", data) as pipe:
            assert _read_outcome(read, pipe) == _read_outcome(read, path)
    if layout in ("canonical", "compact", "indent-2"):
        assert _read_outcome(load_density_matrix, path) == (grid64, state.rho.tobytes())


OPENED_ONCE = {
    "canonical": PIPED["canonical"],
    "indent-2": PIPED["indent-2"],
    "compact": PIPED["compact"],
    "junk": PIPED["junk"],  # streamed to its end, then read again from its start
    "crlf": lambda text: NON_CANONICAL["indent-2"](text).replace("\n", "\r\n"),
}


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("layout", sorted(OPENED_ONCE))
def test_loader_and_grid_reader_open_the_path_once(tmp_path, grid64, monkeypatch, layout, source):
    # Every route reads the one handle opened first: the `json.loads`
    # fallback goes back to its start instead of opening the path again.
    state = time_jitter_state(gaussian_pure(grid64, 0.5, 1.0, chirp=0.4), 0.7)
    data = OPENED_ONCE[layout](_saved_text(tmp_path, state)).encode()
    path = tmp_path / "state.json"
    path.write_bytes(data)
    expected = {read: _read_outcome(read, path) for read in (load_density_matrix, core.read_density_matrix_grid)}
    real_open, opened = io.open, []

    def spy(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened.append(os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(core, "open", spy, raising=False)
    monkeypatch.setattr(io, "open", spy)  # the one `Path.open` calls
    for read, outcome in expected.items():
        pipe = piped(tmp_path / f"pipe-{read.__name__}", data) if source == "pipe" else contextlib.nullcontext(path)
        with pipe as target:
            opened.clear()
            assert _read_outcome(read, target) == outcome
            assert opened == [str(target)], read.__name__


# ---------------------------------------------------------------------------
# One kernel per load, and the grid read from a file's head
# ---------------------------------------------------------------------------

def test_loader_symmetrizes_the_parsed_array_in_place(tmp_path, monkeypatch, standard_states):
    state = standard_states["time-jitter"]
    path = tmp_path / "state.json"
    save_density_matrix(path, state)
    parse, parsed = core._read_pairs, []
    monkeypatch.setattr(core, "_read_pairs", lambda *args: parsed.append(parse(*args)) or parsed[-1])
    back = load_density_matrix(path)
    assert np.shares_memory(back.rho, parsed[0])
    assert back.rho.tobytes() == _reference_load(path).rho.tobytes()


@pytest.mark.parametrize("layout", sorted(NON_CANONICAL))
def test_loader_holds_the_array_it_made_from_json_lists(tmp_path, grid64, layout):
    state = time_jitter_state(gaussian_pure(grid64, 0.5, 1.0, chirp=0.4), 0.7)
    path = tmp_path / "other.json"
    path.write_text(NON_CANONICAL[layout](_saved_text(tmp_path, state)))
    back = load_density_matrix(path)
    assert back.rho.base.shape == (grid64.n**2, 2) and back.rho.base.dtype == np.float64
    assert back.rho.tobytes() == _reference_load(path).rho.tobytes()


def test_dict_reader_leaves_a_callers_array_as_it_was(tmp_path):
    # Within HERMITIAN_TOL of Hermitian, so symmetrizing changes entry (1, 0).
    path = tmp_path / "near.json"
    path.write_text(_n2_text(0.25, [[2.0, 0.0], [0.5, 0.25], [0.5 + 1e-12, -0.25], [2.0, 0.0]]))
    doc = _streamed(path)
    before = doc["rho"].copy()
    state = density_matrix_from_dict(doc)
    assert not np.shares_memory(state.rho, doc["rho"])
    assert doc["rho"].tobytes() == before.tobytes()
    assert state.rho[1, 0] != complex(*before[2])


@pytest.mark.parametrize("layout", ["canonical"] + sorted(NON_CANONICAL))
def test_grid_reader_gives_the_loaded_grid(tmp_path, grid64, layout):
    text = _saved_text(tmp_path, density_from_pure(gaussian_pure(grid64, 0.0, 1.0)))
    path = tmp_path / "state.json"
    path.write_text(text if layout == "canonical" else NON_CANONICAL[layout](text))
    assert core.read_density_matrix_grid(path) == load_density_matrix(path).grid == grid64


def test_grid_reader_reads_a_saved_file_up_to_rho(tmp_path, monkeypatch):
    # Nothing after `"rho": ` is read: these bytes are neither text nor a kernel.
    path = tmp_path / "head.json"
    path.write_bytes(b'{"omega_min": -1.5, "d_omega": 0.25, "n": 13, "units": "x", "rho": \xff' + b"]" * 300_000)
    lengths, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda text, **kw: lengths.append(len(text)) or loads(text, **kw))
    assert core.read_density_matrix_grid(path) == FrequencyGrid(-1.5, 0.25, 13)
    assert lengths == [len('{"omega_min": -1.5, "d_omega": 0.25, "n": 13, "units": "x", "rho": []}')]


def _with(**fields):
    doc = {"omega_min": 0.0, "d_omega": 0.5, "n": 2, "rho": [[1, 0], [0, 0], [0, 0], [1, 0]]}
    doc.update(fields)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


# Files whose grid fields make no grid, each a single fault: the grid reader
# must raise exactly what the loader raises for them.
NO_GRID = {
    "not-json": "{ not json",
    "not-an-object": "[1, 2]",
    "no-n": _with(n=None),
    "string-d-omega": _with(d_omega="x"),
    "one-point": _with(n=1, d_omega=1.0, rho=[[1.0, 0.0]]),
    "no-points": _with(n=0, rho=[]),
    "negative-d-omega": _with(d_omega=-0.5, rho=[[-1, 0], [0, 0], [0, 0], [-1, 0]]),
    "rho-first-no-n": json.dumps({"rho": [[1, 0]] * 4, "omega_min": 0.0, "d_omega": 0.5}),
}


@pytest.mark.parametrize("case", sorted(NO_GRID))
def test_grid_reader_raises_the_loaders_error(tmp_path, case):
    path = tmp_path / "bad.json"
    path.write_text(NO_GRID[case])

    def outcome(read):
        try:
            read(path)
        except (DataFormatError, OSError) as exc:
            return type(exc).__name__, str(exc)
        return None

    assert outcome(core.read_density_matrix_grid) == outcome(load_density_matrix) is not None


def test_grid_reader_takes_the_last_n_of_a_file(tmp_path):
    # The head's `n` makes no grid; the one repeated after `rho` is the one JSON keeps.
    path = tmp_path / "repeated.json"
    text = _grid_text("canonical", [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]], n='"2"')
    path.write_text(text.removesuffix("}\n") + ', "n": 2}')
    assert core.read_density_matrix_grid(path) == load_density_matrix(path).grid == FrequencyGrid(0.0, 0.5, 2)


def test_grid_reader_raises_the_loaders_error_for_a_missing_file(tmp_path):
    path = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError) as expected:
        load_density_matrix(path)
    with pytest.raises(FileNotFoundError) as excinfo:
        core.read_density_matrix_grid(path)
    assert str(excinfo.value) == str(expected.value)


def test_grid_reader_ignores_the_kernel(tmp_path, grid64):
    doc = density_matrix_to_dict(density_from_pure(gaussian_pure(grid64, 0.0, 1.0)))
    for case in ("non-hermitian", "string-entry", "no-rho"):
        path = tmp_path / f"{case}.json"
        bad = {k: v for k, v in doc.items() if k != "rho"}
        if case != "no-rho":
            bad["rho"] = MALFORMED_RHO[case](doc["rho"])
        path.write_text(json.dumps(bad))
        assert core.read_density_matrix_grid(path) == grid64
        with pytest.raises(DataFormatError):
            load_density_matrix(path)


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_grid_reader_restores_the_gc(tmp_path, grid64, monkeypatch, collecting):
    text = NON_CANONICAL["rho-first"](_saved_text(tmp_path, density_from_pure(gaussian_pure(grid64, 0.0, 1.0))))
    path = tmp_path / "other.json"
    path.write_text(text)
    seen, loads = [], json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **kw: seen.append(gc.isenabled()) or loads(*a, **kw))
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert core.read_density_matrix_grid(path) == grid64
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen[-1] is False
