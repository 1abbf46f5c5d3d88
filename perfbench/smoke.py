"""Smoke tests of the benchmark harness at tiny grid sizes.

Run from the repository root with `python3 -m pytest perfbench/smoke.py`.
They check the harness, its result line and its output checks in seconds;
the gated runs themselves are not part of any test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from spectomo import reconstruction  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace):
    proc = _run("--workload", name, "--tiny", "--seed", "5", "--seconds", "0.2", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        rows = result["metrics"]["measurement.rows"]["value"]
        assert rows == workloads.workload(name, tiny=True).rows


def test_benchmark_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_sweep_prints_the_baseline_table():
    proc = _run("--sweep", "--tiny")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| ") and "---" not in line]
    assert len(rows) == 1 + 2 * 2  # header, then sampled and exact per tiny n


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "scan-sampled-n256", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# The output checks catch a broken program
# ---------------------------------------------------------------------------

def _measure(tmp_path, name, trace=False):
    spec = workloads.workload(name, tiny=True)
    paths = workloads.Paths(tmp_path)
    refs = workloads.setup(spec, 3, paths)
    return measure.measure(spec, 3, paths, refs, seconds=0.0, trace=trace, min_reps=1)


def test_ingest_check_catches_pooling_that_keeps_one_row_per_cell(tmp_path, monkeypatch):
    def first_row_per_cell(records):
        cells = {}
        for rec in records:
            cells.setdefault((rec.setting.delta_index, rec.tau_index, rec.setting.theta), rec)
        return [cells[key] for key in sorted(cells)]

    spec = workloads.workload("ingest-multipass-n128", tiny=True)
    paths = workloads.Paths(tmp_path)
    refs = workloads.setup(spec, 3, paths)
    monkeypatch.setattr(reconstruction, "pool_records", first_row_per_cell)
    record = measure.measure(spec, 3, paths, refs, seconds=0.0, trace=False, min_reps=1)
    assert record["succeeded"] == 0
    assert any("unsplit" in p for p in record["problems"])


def test_scan_check_catches_an_inaccurate_estimate(tmp_path, monkeypatch):
    estimate = reconstruction.estimate_p_delta

    def biased(record):
        p, se = estimate(record)
        return p + 0.2, se

    monkeypatch.setattr(reconstruction, "estimate_p_delta", biased)
    record = _measure(tmp_path, "scan-sampled-n256")
    assert record["succeeded"] == 0
    assert any("ceiling" in p for p in record["problems"])


def test_trace_check_catches_a_traced_path_that_differs(tmp_path, monkeypatch):
    wrap = tracing.Tracer.wrap

    def drifting(self, name, fn):
        traced = wrap(self, name, fn)
        if name != "reconstruction.project":
            return traced

        def shifted(*args, **kwargs):
            rho_hat, min_eig = traced(*args, **kwargs)
            return rho_hat, min_eig - 1.0  # changes the report only

        return shifted

    monkeypatch.setattr(tracing.Tracer, "wrap", drifting)
    record = _measure(tmp_path, "dense-exact-n1024", trace=True)
    assert record["attempted"] == 2 and record["succeeded"] == 1
    assert any("traced" in p for p in record["problems"])


def test_round_trip_check_catches_a_damped_band(tmp_path, monkeypatch):
    assert workloads.exact_round_trips(tmp_path) == []
    assemble = reconstruction.assemble

    def damp_first_band(bands, grid):
        return assemble({m: b * (0.999 if m == 1 else 1.0) for m, b in bands.items()}, grid)

    monkeypatch.setattr(reconstruction, "assemble", damp_first_band)
    problems = workloads.exact_round_trips(tmp_path)
    assert len(problems) == len(workloads.STATE_KINDS)


def test_setup_is_deterministic_and_seeded(tmp_path):
    spec = workloads.workload("ingest-multipass-n128", tiny=True)
    first = workloads.setup(spec, 7, workloads.Paths(tmp_path / "a"))
    again = workloads.setup(spec, 7, workloads.Paths(tmp_path / "b"))
    other = workloads.setup(spec, 8, workloads.Paths(tmp_path / "c"))
    assert first == again
    assert first["lab_csv"] != other["lab_csv"]
    lines = (tmp_path / "a" / "lab_scan.csv").read_text().splitlines()
    assert len(lines) == 1 + spec.rows
    assert lines[1:] != sorted(lines[1:])  # shuffled, not in scan order


def test_tiny_workloads_keep_the_code_paths():
    for name, spec in workloads.WORKLOADS.items():
        tiny = workloads.workload(name, tiny=True)
        assert replace(tiny, n=spec.n, max_delta_index=spec.max_delta_index) == spec
