import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectomo
from spectomo import hs_distance, load_density_matrix, purity
from spectomo.cli import main
from conftest import MALFORMED_RHO

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def _gen(tmp_path, kind="gaussian", name="state.json", extra=()):
    out = tmp_path / name
    code = main(["gen-state", kind, "--out", str(out), *extra])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# gen-state
# ---------------------------------------------------------------------------

def test_gen_state_gaussian(tmp_path, capsys):
    out = _gen(tmp_path)
    state = load_density_matrix(out)
    assert purity(state) == pytest.approx(1.0, abs=1e-10)
    printed = capsys.readouterr().out
    assert "purity" in printed
    manifest = json.loads((tmp_path / "state.json.manifest.json").read_text())
    assert manifest["command"] == "gen-state"
    assert manifest["version"]


def test_gen_state_mixture_purity(tmp_path):
    # separation 4 sigma: purity = (1 + e^{-4}) / 2
    out = _gen(
        tmp_path,
        "mixture",
        extra=["--omega0", "-2", "--omega0-b", "2", "--sigma", "1"],
    )
    state = load_density_matrix(out)
    assert purity(state) == pytest.approx(0.5 * (1 + math.exp(-4.0)), abs=1e-4)


def test_gen_state_freq_jitter_variance(tmp_path):
    out = _gen(
        tmp_path,
        "freq-jitter",
        extra=["--jitter", "2", "--span", "24"],
    )
    state = load_density_matrix(out)
    g = state.grid
    p = state.rho.diagonal().real * g.d_omega
    mean = float(np.sum(g.omegas * p))
    var = float(np.sum((g.omegas - mean) ** 2 * p))
    assert var == pytest.approx(5.0, rel=0.02)


def test_gen_state_rejects_bad_params(tmp_path):
    assert main(["gen-state", "gaussian", "--out", str(tmp_path / "x.json"), "--sigma", "-1"]) == 2
    assert main(["gen-state", "mixture", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["gen-state", "nonsense", "--out", str(tmp_path / "x.json")]) == 2


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_row_count(tmp_path):
    state = _gen(tmp_path, extra=["--n", "8", "--span", "8"])
    csv = tmp_path / "records.csv"
    code = main(
        ["simulate", str(state), "--out", str(csv), "--exact", "--max-delta-index", "7"]
    )
    assert code == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 1 + 2 * 8 * 8 + 2  # header + tomography + calibration


def test_simulate_deterministic_bytes(tmp_path):
    state = _gen(tmp_path, extra=["--n", "16"])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [str(state), "--shots", "500", "--seed", "31", "--max-delta-index", "3"]
    assert main(["simulate", *args, "--out", str(a)]) == 0
    assert main(["simulate", *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_p_delta_table_gaussian_fringe(tmp_path):
    # P_delta(tau, delta=0, theta=0) = e^{-sigma^2 tau^2 / 2} * cos(tau omega0)
    state = _gen(tmp_path, extra=["--omega0", "1.0"])
    csv = tmp_path / "records.csv"
    table = tmp_path / "p_delta.csv"
    code = main(
        [
            "simulate", str(state), "--out", str(csv), "--exact",
            "--max-delta-index", "0", "--p-delta-out", str(table),
        ]
    )
    assert code == 0
    grid = load_density_matrix(state).grid
    rows = table.read_text().splitlines()
    assert rows[0] == "delta_index,tau_index,tau,theta_rad,p_delta,stderr"
    checked = 0
    for line in rows[1:]:
        delta_index, tau_index, tau, theta, p_delta, _ = line.split(",")
        if float(theta) == 0.0 and int(tau_index) < grid.n // 2:
            t = float(tau)
            expected = math.exp(-(t**2) / 2.0) * math.cos(t * 1.0)
            assert float(p_delta) == pytest.approx(expected, abs=1e-6)
            checked += 1
    assert checked == grid.n // 2


def test_simulate_advisory_warning(tmp_path, capsys):
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    code = main(
        ["simulate", str(state), "--out", str(csv), "--exact", "--max-delta", "1.0"]
    )
    assert code == 0
    assert "hardware-advisory" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--exact"]])
def test_simulate_rejects_negative_seed(tmp_path, capsys, mode):
    state = _gen(tmp_path, extra=["--n", "16"])
    argv = ["simulate", str(state), "--out", str(tmp_path / "x.csv"), "--seed", "-1", *mode]
    assert main(argv) == 2
    assert "error: seed must be a nonnegative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("mode", [[], ["--exact"]])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--gamma", "nan", "|gamma| must be <= 1, got nan"),
        ("--max-delta", "nan", "max_delta must be positive, got nan"),
        ("--max-delta", "-1", "max_delta must be positive, got -1.0"),
    ],
    ids=["gamma-nan", "max-delta-nan", "max-delta-negative"],
)
def test_simulate_rejects_bad_hardware_values(tmp_path, capsys, flag, value, message, mode):
    state = _gen(tmp_path, extra=["--n", "16"])
    argv = ["simulate", str(state), "--out", str(tmp_path / "x.csv"), flag, value, *mode]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_simulate_missing_state_file(tmp_path):
    assert main(["simulate", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x.csv")]) == 3


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def _pipeline(tmp_path, kind="gaussian", gen_extra=(), sim_extra=("--exact",), n="32"):
    state = _gen(tmp_path, kind, extra=["--n", n, *gen_extra])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), *sim_extra]) == 0
    out = tmp_path / "rho_hat.json"
    code = main(
        ["reconstruct", str(csv), "--out", str(out), "--truth", str(state), "--json"]
    )
    return state, out, code


def test_reconstruct_round_trip(tmp_path, capsys):
    state, out, code = _pipeline(tmp_path)
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["purity"] == pytest.approx(1.0, abs=1e-8)
    assert doc["hs_distance"] < 1e-8
    truth = load_density_matrix(state)
    estimate = load_density_matrix(out)
    assert hs_distance(estimate.rho, truth.rho, truth.grid) < 1e-8
    report = json.loads((tmp_path / "rho_hat.report.json").read_text())
    assert report["gamma_hat"] == pytest.approx([1.0, 0.0], abs=1e-10)


@pytest.mark.parametrize(
    "kind,extra",
    [
        ("gaussian", ()),
        ("chirped", ("--chirp", "0.5")),
        ("mixture", ("--omega0", "-2", "--omega0-b", "2")),
        ("time-jitter", ("--jitter", "1")),
        ("freq-jitter", ("--jitter", "2", "--span", "24")),
    ],
)
def test_pipeline_composition_all_fixture_kinds(tmp_path, kind, extra):
    state, out, code = _pipeline(tmp_path, kind, gen_extra=extra)
    assert code == 0
    truth = load_density_matrix(state)
    estimate = load_density_matrix(out)
    assert hs_distance(estimate.rho, truth.rho, truth.grid) < 1e-8


def test_reconstruct_missing_rows_exit_code(tmp_path):
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    kept = [
        line
        for line in csv.read_text().splitlines()
        if not line.split(",")[2].startswith("1.57")  # drop every theta=pi/2 row
    ]
    crippled = tmp_path / "crippled.csv"
    crippled.write_text("\n".join(kept) + "\n")
    code = main(
        ["reconstruct", str(crippled), "--out", str(tmp_path / "x.json"), "--n", "16"]
    )
    assert code == 4


def test_reconstruct_grid_from_flags(tmp_path):
    state = _gen(tmp_path, extra=["--n", "16", "--span", "12"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    out = tmp_path / "rho_hat.json"
    code = main(
        ["reconstruct", str(csv), "--out", str(out), "--n", "16", "--span", "12"]
    )
    assert code == 0
    truth = load_density_matrix(state)
    estimate = load_density_matrix(out)
    assert hs_distance(estimate.rho, truth.rho, truth.grid) < 1e-8


def test_reconstruct_heatmap(tmp_path):
    state = _gen(tmp_path, extra=["--n", "16", "--omega0", "0.5"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    heatmap = tmp_path / "heat.csv"
    out = tmp_path / "x.json"
    code = main(
        [
            "reconstruct", str(csv), "--out", str(out),
            "--n", "16", "--heatmap-out", str(heatmap),
        ]
    )
    assert code == 0
    lines = heatmap.read_bytes().decode("ascii").split("\n")
    assert lines[0] == "i,j,omega_i,omega_j,re,im,abs"
    assert lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 16 * 16
    # every cell is a plain decimal, and the values are the saved JSON's
    grid = load_density_matrix(out).grid
    pairs = json.loads(out.read_text())["rho"]
    for k, (i, j, omega_i, omega_j, re, im, mag) in enumerate(rows):
        assert (int(i), int(j)) == divmod(k, 16)
        assert float(omega_i) == grid.omega(int(i))
        assert float(omega_j) == grid.omega(int(j))
        assert [re, im] == [repr(v) for v in pairs[k]]
        assert float(mag) == abs(complex(*pairs[k]))


def test_reconstruct_unwritable_heatmap_leaves_no_output(tmp_path, capsys):
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    out = tmp_path / "x.json"
    heatmap = tmp_path / "missing" / "heat.csv"
    capsys.readouterr()
    assert main(["reconstruct", str(csv), "--out", str(out), "--n", "16", "--heatmap-out", str(heatmap)]) == 3
    assert "heat.csv" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_formats_rho_hat_once(tmp_path, monkeypatch):
    # Re and im are formatted once per upper-triangle entry and shared by the
    # JSON and the heatmap; abs is the only other value formatted, once per
    # upper-triangle entry too. Row i formats its n - i entries i..n-1.
    from spectomo import core

    n = 16
    state = _gen(tmp_path, extra=["--n", str(n)])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    calls = []
    reprs = core._reprs

    def counted(values):
        calls.append(len(values))
        return reprs(values)

    monkeypatch.setattr(core, "_reprs", counted)
    argv = ["reconstruct", str(csv), "--out", str(tmp_path / "x.json"), "--n", str(n)]
    assert main(argv + ["--heatmap-out", str(tmp_path / "heat.csv")]) == 0
    assert calls == [n - i for i in range(n) for _ in range(3)]
    assert sum(calls) == 3 * n * (n + 1) // 2
    calls.clear()
    assert main(argv) == 0
    assert calls == [n - i for i in range(n) for _ in range(2)]
    assert sum(calls) == 2 * n * (n + 1) // 2


@pytest.mark.parametrize("case", sorted(MALFORMED_RHO))
def test_reconstruct_rejects_malformed_truth(tmp_path, capsys, case):
    state = _gen(tmp_path, extra=["--n", "8", "--span", "8"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    out = tmp_path / "x.json"
    assert main(["reconstruct", str(csv), "--out", str(out), "--truth", str(state)]) == 0
    doc = json.loads(state.read_text())
    doc["rho"] = MALFORMED_RHO[case](doc["rho"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["reconstruct", str(csv), "--out", str(out), "--truth", str(bad)]) == 3
    assert "kernel entries" in capsys.readouterr().err


@pytest.mark.parametrize("floor", ["0", "nan", "-1", "1.5"])
def test_reconstruct_rejects_min_visibility_outside_unit_interval(tmp_path, capsys, floor):
    # A --gamma 0 scan calibrates to gamma_hat = 0; only a positive floor
    # keeps the cross-section division away from it.
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--gamma", "0", "--exact"]) == 0
    out = tmp_path / "rho.json"
    capsys.readouterr()
    argv = ["reconstruct", str(csv), "--truth", str(state), "--out", str(out), "--min-visibility", floor]
    assert main(argv) == 2
    assert "error: min_visibility must be in (0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("hello\n")
    assert main(["reconstruct", str(bad), "--out", str(tmp_path / "x.json")]) == 3


def _with_byte_ff(path: Path, offset: int) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:offset] + b"\xff" + data[offset + 1:])


def test_reconstruct_non_utf8_csv_is_a_data_error(tmp_path, capsys):
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    _with_byte_ff(csv, 240)
    capsys.readouterr()
    assert main(["reconstruct", str(csv), "--out", str(tmp_path / "x.json"), "--n", "16"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: not ")
    assert "text" in err


def test_simulate_non_utf8_state_is_a_data_error(tmp_path, capsys):
    state = _gen(tmp_path, extra=["--n", "16"])
    _with_byte_ff(state, 100)
    capsys.readouterr()
    assert main(["simulate", str(state), "--out", str(tmp_path / "c.csv")]) == 3
    assert capsys.readouterr().err.startswith(f"error: {state}: not ")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_single_pure_state(tmp_path, capsys):
    state = _gen(tmp_path)
    capsys.readouterr()
    assert main(["analyze", str(state), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["purity"][0] == pytest.approx(1.0, abs=1e-10)


def test_analyze_overlap_matrix(tmp_path, capsys):
    a = _gen(tmp_path, name="a.json", extra=["--omega0", "0"])
    b = _gen(tmp_path, name="b.json", extra=["--omega0", "2"])
    capsys.readouterr()
    assert main(["analyze", str(a), str(a), str(b), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    overlap = np.array(doc["overlap"])
    assert overlap[0, 1] == pytest.approx(doc["purity"][0], abs=1e-10)
    assert overlap[0, 2] == pytest.approx(math.exp(-1.0), abs=1e-4)
    assert overlap[2, 0] == pytest.approx(overlap[0, 2], abs=1e-12)


@pytest.mark.parametrize(
    "key, value",
    [("omega_min", math.inf), ("omega_min", math.nan), ("d_omega", math.inf)],
    ids=["omega-min-infinity", "omega-min-nan", "d-omega-infinity"],
)
def test_analyze_rejects_non_finite_grid(tmp_path, capsys, key, value):
    state = _gen(tmp_path, extra=["--n", "16"])
    doc = json.loads(state.read_text())
    doc[key] = value
    state.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["analyze", str(state)]) == 3
    err = capsys.readouterr().err
    assert f"file does not hold a physical density matrix: {key} must be finite" in err


def test_gen_state_rejects_nan_center(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["gen-state", "gaussian", "--out", str(out), "--center", "nan"]) == 2
    assert "error: center must be finite, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-state", "reconstruct"])
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--span", "inf", "span must be finite, got inf"),
        ("--span", "nan", "span must be positive, got nan"),
        ("--center", "inf", "center must be finite, got inf"),
        ("--center", "-inf", "center must be finite, got -inf"),
    ],
    ids=["span-inf", "span-nan", "center-inf", "center-minus-inf"],
)
def test_grid_flags_are_named_in_their_errors(tmp_path, capsys, command, flag, value, message):
    out = tmp_path / "x.json"
    if command == "gen-state":
        argv = ["gen-state", "gaussian", "--n", "16"]
    else:
        state = _gen(tmp_path, extra=["--n", "16"])
        csv = tmp_path / "records.csv"
        assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
        argv = ["reconstruct", str(csv), "--n", "16"]
    capsys.readouterr()
    assert main([*argv, "--out", str(out), f"{flag}={value}"]) == 2
    err = capsys.readouterr().err
    assert f"error: {message}" in err and "omega_min" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, flag, value, message",
    [
        ("gaussian", "--omega0", "nan", "omega0 must be finite, got nan"),
        ("gaussian", "--sigma", "inf", "sigma must be positive and finite, got inf"),
        ("chirped", "--chirp", "nan", "chirp must be finite, got nan"),
        ("chirped", "--chirp", "inf", "chirp must be finite, got inf"),
        ("time-jitter", "--jitter", "nan", "jitter_std must be nonnegative and finite, got nan"),
        ("time-jitter", "--jitter", "inf", "jitter_std must be nonnegative and finite, got inf"),
        ("freq-jitter", "--jitter", "nan", "jitter_std must be nonnegative and finite, got nan"),
        ("freq-jitter", "--jitter", "inf", "jitter_std must be nonnegative and finite, got inf"),
        ("mixture", "--omega0-b", "inf", "--omega0-b must be finite, got inf"),
        ("mixture", "--omega0-b", "nan", "--omega0-b must be finite, got nan"),
    ],
    ids=[
        "gaussian-omega0-nan", "gaussian-sigma-inf", "chirped-chirp-nan", "chirped-chirp-inf",
        "time-jitter-nan", "time-jitter-inf", "freq-jitter-nan", "freq-jitter-inf",
        "mixture-omega0-b-inf", "mixture-omega0-b-nan",
    ],
)
def test_gen_state_rejects_non_finite_shape(tmp_path, capsys, kind, flag, value, message):
    out = tmp_path / "x.json"
    assert main(["gen-state", kind, "--n", "16", "--out", str(out), flag, value]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_grid_mismatch(tmp_path):
    a = _gen(tmp_path, name="a.json", extra=["--n", "16"])
    b = _gen(tmp_path, name="b.json", extra=["--n", "32"])
    assert main(["analyze", str(a), str(b)]) == 3


# ---------------------------------------------------------------------------
# idempotency / manifests / subprocess entry point
# ---------------------------------------------------------------------------

def test_pipeline_idempotent_outputs(tmp_path):
    args_gen = ["gen-state", "time-jitter", "--jitter", "0.8", "--n", "16"]
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main([*args_gen, "--out", str(out1)]) == 0
    assert main([*args_gen, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_manifest_written_for_every_output(tmp_path):
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    table = tmp_path / "table.csv"
    assert main(
        ["simulate", str(state), "--out", str(csv), "--exact", "--p-delta-out", str(table)]
    ) == 0
    out = tmp_path / "rho.json"
    report = tmp_path / "rho.report.json"
    assert main(
        ["reconstruct", str(csv), "--out", str(out), "--report-out", str(report), "--n", "16"]
    ) == 0
    for produced in (state, csv, table, out, report):
        manifest_path = produced.parent / (produced.name + ".manifest.json")
        assert manifest_path.exists(), produced
        manifest = json.loads(manifest_path.read_text())
        assert str(produced) in manifest["outputs"]


def test_manifest_records_the_grid_of_the_truth_file(tmp_path):
    state = _gen(tmp_path, extra=["--n", "32", "--span", "12", "--center", "0.5"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    out = tmp_path / "rho.json"
    # --n, --span and --center keep their defaults (64, 16, 0); the truth sets the grid.
    assert main(["reconstruct", str(csv), "--out", str(out), "--truth", str(state)]) == 0
    params = json.loads((tmp_path / "rho.json.manifest.json").read_text())["parameters"]
    assert params["n"] == 32
    assert params["span"] == pytest.approx(12.0, abs=1e-12)
    assert params["center"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize(
    "flags, max_delta_index, max_delta",
    [
        (["--units", "si"], 15, 2 * math.pi * 1e9),  # derived: full coverage, the SI advisory
        ([], 15, None),  # no advisory applies
        (["--max-delta-index", "3", "--max-delta", "5"], 3, 5.0),
    ],
)
def test_simulate_manifest_records_the_values_used(tmp_path, flags, max_delta_index, max_delta):
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact", *flags]) == 0
    params = json.loads((tmp_path / "records.csv.manifest.json").read_text())["parameters"]
    assert params["max_delta_index"] == max_delta_index
    assert params["max_delta"] == max_delta


def test_module_entry_point(tmp_path):
    # The child imports the same package the tests do, however pytest found it.
    env = dict(os.environ)
    package_root = str(Path(spectomo.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    out = tmp_path / "state.json"
    proc = subprocess.run(
        [sys.executable, "-m", "spectomo", "gen-state", "gaussian", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    proc = subprocess.run(
        [sys.executable, "-m", "spectomo", "--version"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "spectomo" in proc.stdout


def test_version_matches_pyproject():
    # Every manifest records `spectomo.__version__`; the installed metadata
    # comes from pyproject.toml, so the two must move together.
    import re

    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert match is not None
    assert spectomo.__version__ == match.group(1)


def test_usage_error_exit_code():
    assert main(["simulate"]) == 2
    assert main([]) == 2


# ---------------------------------------------------------------------------
# outputs that would overwrite each other or an input
# ---------------------------------------------------------------------------

@pytest.fixture
def exact_scan(tmp_path):
    state = _gen(tmp_path, extra=["--n", "16"])
    csv = tmp_path / "records.csv"
    assert main(["simulate", str(state), "--out", str(csv), "--exact"]) == 0
    return state, csv


def _snapshot(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir()) if path.is_file()}


@pytest.mark.parametrize(
    "flags,names",
    [
        (["--out", "x.json", "--heatmap-out", "x.json"], ("--out", "--heatmap-out")),
        (["--report-out", "x.json", "--out", "x.json"], ("--out", "--report-out")),
        (["--out", "x.json", "--report-out", "sub/../r.json", "--heatmap-out", "r.json"],
         ("--report-out", "--heatmap-out")),
        (["--out", "x.json", "--heatmap-out", "x.report.json"], ("the default report path", "--heatmap-out")),
        (["--out", "x.json", "--heatmap-out", "x.json.manifest.json"],
         ("the manifest of --out", "--heatmap-out")),
        (["--out", "records.csv"], ("--out", "the input records")),
        (["--out", "x.json", "--heatmap-out", "state.json"], ("--heatmap-out", "--truth")),
    ],
    ids=["out-heatmap", "report-out", "resolved", "default-report", "manifest", "records", "truth"],
)
def test_reconstruct_refuses_shared_paths(tmp_path, exact_scan, capsys, monkeypatch, flags, names):
    state, csv = exact_scan
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    before = _snapshot(tmp_path)
    capsys.readouterr()
    argv = ["reconstruct", csv.name, "--truth", state.name, *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "flags,names",
    [
        (["--out", "state.json"], ("--out", "the input state")),
        (["--out", "c.csv", "--p-delta-out", "c.csv"], ("--out", "--p-delta-out")),
        (["--out", "c.csv", "--p-delta-out", "state.json"], ("--p-delta-out", "the input state")),
    ],
    ids=["input", "p-delta", "p-delta-input"],
)
def test_simulate_refuses_shared_paths(tmp_path, capsys, monkeypatch, flags, names):
    _gen(tmp_path, extra=["--n", "16"])
    monkeypatch.chdir(tmp_path)
    before = _snapshot(tmp_path)
    capsys.readouterr()
    assert main(["simulate", "state.json", "--exact", *flags]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert _snapshot(tmp_path) == before


def test_outputs_that_are_one_file_by_a_link_are_refused(tmp_path, exact_scan, capsys):
    state, csv = exact_scan
    out = tmp_path / "x.json"
    out.write_text("")
    (tmp_path / "hard.json").hardlink_to(out)
    (tmp_path / "soft.json").symlink_to(csv)
    for flags in (["--out", str(out), "--heatmap-out", str(tmp_path / "hard.json")],
                  ["--out", str(tmp_path / "soft.json")]):
        assert main(["reconstruct", str(csv), "--n", "16", *flags]) == 2
    assert out.read_text() == ""
    assert csv.stat().st_size > 0
