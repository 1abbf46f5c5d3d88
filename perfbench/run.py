#!/usr/bin/env python3
"""Benchmark of the spectomo `gen-state | simulate | reconstruct` chain.

Run from the repository root:

    python3 perfbench/run.py --workload scan-sampled-n256 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --sweep                   # the ROADMAP baseline table
    python3 -m pytest perfbench/smoke.py               # tiny-n run of every workload

One run makes the workload's inputs from the seed in a fresh process five
times, three before measuring and two after, so that they sample two
stretches of the machine's speed (`setup_s` is their median). Measuring is
one process that drives the chain through `spectomo.cli.main` in process
until `--seconds` have passed, checks every repetition's outputs, and runs
an untimed exact round trip of every `gen-state` kind. With `--trace 1` the
measuring process alternates untraced and traced repetitions; the traced
ones record a span around every call the CLI makes into another layer (see
`tracing.py`) and report the median traced repetition's per-layer times.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics of BENCHMARK.json without
tracing, the per-layer ones with it). The full record, with the machine
description and every span, goes to `.perfbench/results/`. The package is
imported from `src/` of the checkout this script sits in; without it the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5  # SETUP_REPS // 2 of them run after measuring
RUN_BUDGET_S = 170.0  # a gated run must end within 180 s
SWEEP_CELL_BUDGET_S = 1800.0
SWEEP_REPS = 5  # traced repetitions per sweep cell; 1 with --tiny
SWEEP_N = (64, 128, 256, 512, 1024)
TINY_SWEEP_N = (16, 32)
# Sweep cells keep at most the settings of a full n=256 scan, so large grids
# measure the n^2 and n^3 stages without millions of per-setting records.
SWEEP_MAX_SETTINGS = 2 + 2 * 256 * 256


def _import_package():
    sys.path.insert(0, str(SRC))
    import spectomo

    if Path(spectomo.__file__).resolve().parent != (SRC / "spectomo").resolve():
        raise SystemExit(f"spectomo imported from {spectomo.__file__}, not from {SRC}")
    return spectomo


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

def role_setup(args) -> dict:
    start = time.perf_counter()
    _import_package()
    import workloads

    refs = workloads.setup(workloads.Spec.from_json(args.spec), args.seed, workloads.Paths(args.workdir))
    return {"setup_s": time.perf_counter() - start, "refs": refs}


def role_measure(args) -> dict:
    import resource

    _import_package()
    import machine
    import measure
    import workloads

    record = measure.measure(
        workloads.Spec.from_json(args.spec),
        args.seed,
        workloads.Paths(args.workdir),
        json.loads(args.refs),
        seconds=args.seconds,
        trace=bool(args.trace),
        min_reps=args.min_reps,
    )
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["machine"] = machine.machine_record(json.loads(args.loadavg))
    return record


def _child(role: str, extra: list[str], deadline: float) -> dict:
    import machine

    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role, *extra]
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            argv, stdout=subprocess.PIPE, env=machine.blas_thread_env(), timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{role} process did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise SystemExit(f"{role} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(
    spec, seed: int, seconds: float, trace: bool, *, min_reps=1, setup_reps=SETUP_REPS, budget=RUN_BUDGET_S
):
    """Set up `setup_reps` times around one measuring process; returns the run record."""
    deadline = time.monotonic() + budget
    loadavg = os.getloadavg()
    workdir = OUT / "work" / f"{spec.name}-{os.getpid()}"
    common = ["--spec", spec.to_json(), "--workdir", str(workdir), "--seed", str(seed)]
    try:
        setups = [_child("setup", common, deadline) for _ in range(setup_reps - setup_reps // 2)]
        refs = setups[0]["refs"]
        record = _child(
            "measure",
            common
            + [
                "--seconds", repr(float(seconds)),
                "--trace", str(int(trace)),
                "--min-reps", str(min_reps),
                "--refs", json.dumps(refs),
                "--loadavg", json.dumps(loadavg),
            ],
            deadline,
        )
        setups += [_child("setup", common, deadline) for _ in range(setup_reps // 2)]
        if any(s["refs"] != refs for s in setups):
            raise SystemExit("set-up is not deterministic: input digests differ between runs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_times"] = [s["setup_s"] for s in setups]
    record["spec"] = json.loads(spec.to_json())
    record["seed"] = seed
    return record


def end_to_end(record, spec) -> dict:
    return {
        "setup_s": (statistics.median(record["setup_times"]), "s"),
        "chain_s": (record["chain_s"], "s"),
        "settings_per_s": (spec.rows / record["chain_s"], "1/s"),
        "hs_distance": (record["hs_distance"], "1"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB"),
        "success_frac": (record["succeeded"] / record["attempted"], "1"),
    }


def _write_result(name: str, record: dict) -> Path:
    path = OUT / "results" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record) + "\n")
    return path


def main_workload(args) -> int:
    import workloads

    spec = workloads.workload(args.workload, tiny=args.tiny)
    record = run_workload(spec, args.seed, args.seconds, bool(args.trace))
    if not record["succeeded"] or (args.trace and "layer_metrics" not in record):
        print(f"no repetition succeeded: {record['problems']}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = record["layer_metrics"]
    else:
        metrics = end_to_end(record, spec)
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    path = _write_result(f"{spec.name}-seed{args.seed}-trace{args.trace}", record)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"machine": record["machine"], "record": str(path.relative_to(ROOT))}))
    print(
        json.dumps(
            {
                "correct": not record["problems"],
                "attempted": record["attempted"],
                "failed": record["attempted"] - record["succeeded"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0


# ---------------------------------------------------------------------------
# Sweep: the ROADMAP baseline table
# ---------------------------------------------------------------------------

# Columns: inclusive wall time of the median traced repetition's spans.
SWEEP_COLUMNS = (
    ("simulate", "measurement.simulate"),
    ("CSV read", "measurement.read"),
    ("reconstruct", "reconstruction.pipeline"),
    ("project", "reconstruction.project"),
    ("JSON save (2 files)", "core.save"),
    ("JSON load (2 files)", "core.load"),
    ("chain", "chain"),
)


def main_sweep(args) -> int:
    import workloads

    header = ["n", "mode", "settings", *(c for c, _ in SWEEP_COLUMNS), "hs_distance", "peak RSS", "checks"]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    reps = 1 if args.tiny else SWEEP_REPS
    cells = []
    for n in TINY_SWEEP_N if args.tiny else SWEEP_N:
        for exact in (False, True):
            spec = workloads.sweep_spec(n, exact, SWEEP_MAX_SETTINGS)
            record = run_workload(
                spec, args.seed, 0.0, True, min_reps=reps, setup_reps=1, budget=SWEEP_CELL_BUDGET_S
            )
            cells.append(record)
            for problem in record["problems"]:
                print(f"{spec.name}: {problem}", file=sys.stderr)
            if "inclusive" not in record:
                continue
            times = record["inclusive"]
            row = [
                str(n),
                "exact" if exact else "sampled",
                f"{spec.settings:,}",
                *(f"{times.get(key, 0.0):.3g} s" for _, key in SWEEP_COLUMNS),
                f"{record['hs_distance']:.3g}" if record["hs_distance"] is not None else "-",
                f"{record['peak_rss_mb']:.0f} MB",
                "pass" if not record["problems"] else "FAIL",
            ]
            lines.append("| " + " | ".join(row) + " |")
            print(lines[-1], file=sys.stderr)
    table = "\n".join(lines)
    path = _write_result("sweep", {"reps": reps, "seed": args.seed, "table": table, "cells": cells})
    print(table)
    print(f"median of {reps} traced repetitions per cell; full record in {path.relative_to(ROOT)}")
    return 0 if all(not r["problems"] for r in cells) else 1


# ---------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="workload name (see workloads.WORKLOADS)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=18.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny grids, for smoke tests")
    p.add_argument("--sweep", action="store_true", help="print the baseline table instead")
    # Used by the child processes this script starts.
    p.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--spec", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--min-reps", type=int, default=1, help=argparse.SUPPRESS)
    p.add_argument("--refs", help=argparse.SUPPRESS)
    p.add_argument("--loadavg", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.role or args.sweep or args.workload):
        p.error("give --workload NAME or --sweep")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectomo" / "__init__.py").is_file():
        print(f"no spectomo package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.role:
        result = role_setup(args) if args.role == "setup" else role_measure(args)
        print(json.dumps(result))
        return 0
    return main_sweep(args) if args.sweep else main_workload(args)


if __name__ == "__main__":
    sys.exit(main())
