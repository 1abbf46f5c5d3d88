"""Batch command-line front end: gen-state | simulate | reconstruct | analyze.

Quantities are plain numbers in conjugate units (frequency * time
dimensionless) by default; `--units si` marks files as SI rad/s and enables
the default AOM advisory limit of 2*pi*1e9 rad/s. Every output file gets a
sibling `<file>.manifest.json` naming the command, inputs, parameters, seed,
version and timestamp. A command whose outputs (manifests included) would
share a file, or overwrite one of its inputs, exits 2 before it reads or
writes anything. Exit codes: 0 success, 2 invalid arguments,
3 data/format error, 4 incomplete scan.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .core import (
    DENSITY_MATRIX_UNITS,
    SpectralDensityMatrix,
    density_from_pure,
    frequency_jitter_state,
    gaussian_pure,
    hs_overlap,
    load_density_matrix,
    make_grid,
    mix,
    purity,
    save_density_matrix,
    time_jitter_state,
    validate,
)
from .diagnostics import capture, dedupe
from .errors import (
    CalibrationMissingError,
    DataFormatError,
    DegenerateInputError,
    GridMismatchError,
    InsufficientDataError,
    MissingSettingsError,
    SpectralTomographyError,
    VisibilityTooLowError,
)
from .interferometer import InterferometerConfig
from .measurement import plan_scan, read_records, simulate_counts, write_p_delta_table, write_records
from .reconstruction import MIN_VISIBILITY, reconstruct_records, report

SI_MAX_DELTA_DEFAULT = 2 * math.pi * 1e9  # current AOMs top out around a GHz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INCOMPLETE = 4

STATE_KINDS = ("gaussian", "chirped", "mixture", "time-jitter", "freq-jitter")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(output: Path, command: str, inputs: dict, outputs: list, params: dict) -> None:
    manifest = {
        "command": command,
        "inputs": {name: str(p) for name, p in inputs.items()},
        "outputs": [str(p) for p in outputs],
        "parameters": params,
        "seed": params.get("seed"),
        "version": __version__,
        "timestamp": _timestamp(),
    }
    Path(str(output) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _same_file(a: Path, b: Path) -> bool:
    if os.path.realpath(a) == os.path.realpath(b):
        return True
    try:
        return os.path.samefile(a, b)  # hard links
    except OSError:  # either file does not exist yet
        return False


def _refuse_shared_paths(outputs: dict, inputs: dict) -> None:
    """Raise ValueError if two outputs, their manifests included, or an output
    and an input are one file; keys are the names the message gives them.

    Run before anything is read or written, so a refused command leaves
    every file as it was.
    """
    written = []
    for name, path in outputs.items():
        written += [(name, Path(path)), (f"the manifest of {name}", Path(str(path) + ".manifest.json"))]
    named = written + [(name, Path(path)) for name, path in inputs.items()]
    for k, (name, path) in enumerate(written):
        for other, other_path in named[k + 1 :]:
            if _same_file(path, other_path):
                raise ValueError(f"{name} and {other} name the same file: {path}")


def _units_label(units: str) -> str:
    return DENSITY_MATRIX_UNITS if units == "si" else "dimensionless"


def _print_warnings(diags) -> None:
    by_code: dict[str, list] = {}
    for diag in dedupe(diags):
        by_code.setdefault(diag.code, []).append(diag)
    for code, group in by_code.items():
        suffix = "" if len(group) == 1 else f" (+{len(group) - 1} similar)"
        print(f"warning [{group[0]}]{suffix}", file=sys.stderr)


# ---------------------------------------------------------------------------
# gen-state
# ---------------------------------------------------------------------------

def _build_state(args) -> SpectralDensityMatrix:
    grid = make_grid(args.center, args.span, args.n)
    if args.kind == "gaussian":
        return density_from_pure(gaussian_pure(grid, args.omega0, args.sigma))
    if args.kind == "chirped":
        return density_from_pure(gaussian_pure(grid, args.omega0, args.sigma, chirp=args.chirp))
    if args.kind == "mixture":
        if args.omega0_b is None:
            raise ValueError("mixture requires --omega0-b for the second component")
        if not math.isfinite(args.omega0_b):
            raise ValueError(f"--omega0-b must be finite, got {args.omega0_b}")
        if not 0.0 <= args.weight <= 1.0:
            raise ValueError(f"--weight must be in [0, 1], got {args.weight}")
        a = density_from_pure(gaussian_pure(grid, args.omega0, args.sigma))
        b = density_from_pure(gaussian_pure(grid, args.omega0_b, args.sigma))
        return mix([(args.weight, a), (1.0 - args.weight, b)])
    if args.kind == "time-jitter":
        return time_jitter_state(gaussian_pure(grid, args.omega0, args.sigma), args.jitter)
    if args.kind == "freq-jitter":
        return frequency_jitter_state(gaussian_pure(grid, args.omega0, args.sigma), args.jitter)
    raise ValueError(f"unknown state kind {args.kind!r}")


def cmd_gen_state(args) -> int:
    with capture() as diags:
        state = _build_state(args)
    out = Path(args.out)
    save_density_matrix(out, state, units=_units_label(args.units))
    _print_warnings(diags)
    check = validate(state)
    if args.json:
        print(json.dumps({"out": str(out), "purity": purity(state), "valid": check.ok}))
    else:
        print(f"wrote {out}")
        print(f"purity {purity(state):.12g}")
        print(check.summary())
    _write_manifest(out, "gen-state", {}, [out], _params(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    written = {"--out": args.out}
    if args.p_delta_out:
        written["--p-delta-out"] = args.p_delta_out
    _refuse_shared_paths(written, {"the input state": args.state})
    state = load_density_matrix(args.state)
    grid = state.grid
    max_delta_index = grid.n - 1 if args.max_delta_index is None else args.max_delta_index
    advisory = args.max_delta
    if advisory is None and args.units == "si":
        advisory = SI_MAX_DELTA_DEFAULT
    config = InterferometerConfig(
        xi=args.xi,
        gamma=complex(args.gamma),
        compensate_loss=True,
        detector_efficiency=args.efficiency,
    )
    with capture() as diags:
        plan = plan_scan(grid, max_delta_index, args.shots, args.seed, max_delta_advisory=advisory)
        records = simulate_counts(state, plan, config, exact=args.exact)
    _print_warnings(diags)
    out = Path(args.out)
    write_records(out, records)
    outputs = [out]
    if args.p_delta_out:
        table = Path(args.p_delta_out)
        write_p_delta_table(table, records, grid)
        outputs.append(table)
    params = _params(args)
    # The values the scan used, not argparse's None for "derive it".
    params.update(max_delta_index=max_delta_index, max_delta=advisory)
    for path in outputs:
        _write_manifest(path, "simulate", {"state": args.state}, outputs, params)
    if args.json:
        print(
            json.dumps(
                {"out": str(out), "settings": len(records), "exact": args.exact}
            )
        )
    else:
        print(f"wrote {out} ({len(records)} settings, exact={args.exact})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def cmd_reconstruct(args) -> int:
    out = Path(args.out)
    report_path = Path(args.report_out) if args.report_out else out.with_suffix(".report.json")
    heatmap = Path(args.heatmap_out) if args.heatmap_out else None
    written = {
        "--out": out,
        "--report-out" if args.report_out else "the default report path": report_path,
    }
    if heatmap:
        written["--heatmap-out"] = heatmap
    read = {"the input records": args.records}
    if args.truth:
        read["--truth"] = args.truth
    _refuse_shared_paths(written, read)
    truth = load_density_matrix(args.truth) if args.truth else None
    grid = truth.grid if truth is not None else make_grid(args.center, args.span, args.n)
    records = read_records(args.records, grid)
    result = reconstruct_records(records, grid, min_visibility=args.min_visibility)
    doc = report(result, truth)
    save_density_matrix(out, result.rho_hat, units=_units_label(args.units), heatmap=heatmap)
    report_path.write_text(json.dumps(doc, indent=2) + "\n")
    outputs = list(written.values())
    params = _params(args)
    inputs = {"records": args.records}
    if args.truth:
        inputs["truth"] = args.truth
        # The truth file's grid, not --n/--span/--center, is the one used.
        params.update(n=grid.n, span=grid.span, center=grid.omega_min + grid.span / 2.0)
    for path in outputs:
        _write_manifest(path, "reconstruct", inputs, outputs, params)
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"wrote {out} and {report_path}")
        print(f"gamma_hat {result.gamma_hat:.12g}")
        print(f"purity {doc['purity']:.12g}")
        if "hs_distance" in doc:
            print(f"hs_distance {doc['hs_distance']:.6e}")
        for line in doc["warnings"]:
            print(f"warning [{line}]", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    states = [load_density_matrix(path) for path in args.files]
    for state in states[1:]:
        states[0].grid.require_compatible(state.grid)
    purities = [purity(state) for state in states]
    overlap = [[hs_overlap(a, b) for b in states] for a in states]
    if args.json:
        print(
            json.dumps(
                {"files": list(args.files), "purity": purities, "overlap": overlap}
            )
        )
        return EXIT_OK
    width = max(len(Path(p).name) for p in args.files)
    print(f"{'file':<{width}}  purity")
    for path, value in zip(args.files, purities):
        print(f"{Path(path).name:<{width}}  {value:.10g}")
    if len(states) > 1:
        print("pairwise overlap tr(rho_a rho_b):")
        for row in overlap:
            print("  " + "  ".join(f"{v:.10g}" for v in row))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / dispatch
# ---------------------------------------------------------------------------

def _params(args) -> dict:
    skip = {"func", "out", "state", "records", "files", "truth", "p_delta_out",
            "report_out", "heatmap_out"}
    params = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or callable(value):
            continue
        params[key] = value
    return params


def _add_grid_args(parser):
    parser.add_argument("--n", type=int, default=64, help="grid points (default 64)")
    parser.add_argument("--span", type=float, default=16.0, help="full grid width (default 16)")
    parser.add_argument("--center", type=float, default=0.0, help="grid center (default 0)")


def _add_units_arg(parser):
    parser.add_argument(
        "--units",
        choices=("dimensionless", "si"),
        default="dimensionless",
        help="interpretation recorded in output files; 'si' also enables the "
        "GHz-scale AOM advisory default",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectomo",
        description="Simulate and reconstruct spectral density matrices of single photons.",
    )
    parser.add_argument("--version", action="version", version=f"spectomo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-state", help="generate a density-matrix file")
    gen.add_argument("kind", choices=STATE_KINDS)
    gen.add_argument("--out", required=True, help="output density-matrix JSON")
    _add_grid_args(gen)
    gen.add_argument("--sigma", type=float, default=1.0, help="spectral width (default 1)")
    gen.add_argument("--omega0", type=float, default=0.0, help="center frequency (default 0)")
    gen.add_argument("--chirp", type=float, default=0.5, help="quadratic phase for 'chirped'")
    gen.add_argument("--omega0-b", type=float, default=None, help="second center for 'mixture'")
    gen.add_argument("--weight", type=float, default=0.5, help="first-component weight")
    gen.add_argument(
        "--jitter", type=float, default=1.0, help="jitter std for 'time-jitter'/'freq-jitter'"
    )
    gen.add_argument("--json", action="store_true", help="machine-readable summary")
    _add_units_arg(gen)
    gen.set_defaults(func=cmd_gen_state)

    sim = sub.add_parser("simulate", help="simulate a tomographic scan of a state file")
    sim.add_argument("state", help="input density-matrix JSON")
    sim.add_argument("--out", required=True, help="output measurement CSV")
    sim.add_argument("--shots", type=int, default=10000, help="shots per setting (default 10000)")
    sim.add_argument("--seed", type=int, default=0, help="master RNG seed (default 0)")
    sim.add_argument(
        "--max-delta-index",
        type=int,
        default=None,
        help="largest frequency-shift index (default n-1: full coverage)",
    )
    sim.add_argument("--exact", action="store_true", help="exact probabilities, no sampling")
    sim.add_argument("--xi", type=float, default=1.0, help="AOM conversion efficiency")
    sim.add_argument("--efficiency", type=float, default=1.0, help="detector efficiency")
    sim.add_argument("--gamma", type=str, default="1", help="mode overlap, e.g. '0.8' or '0.8+0.3j'")
    sim.add_argument(
        "--max-delta", type=float, default=None, help="hardware advisory limit on the shift"
    )
    sim.add_argument("--p-delta-out", default=None, help="also write a P_delta(tau, delta) table")
    sim.add_argument("--json", action="store_true", help="machine-readable summary")
    _add_units_arg(sim)
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="reconstruct a density matrix from a scan CSV")
    rec.add_argument("records", help="input measurement CSV")
    rec.add_argument("--out", required=True, help="output density-matrix JSON")
    rec.add_argument("--report-out", default=None, help="report JSON (default <out>.report.json)")
    _add_grid_args(rec)
    rec.add_argument(
        "--truth",
        default=None,
        help="true state file; adds distance metrics and supplies the grid "
        "(overrides --n/--span/--center)",
    )
    rec.add_argument(
        "--min-visibility", type=float, default=MIN_VISIBILITY, help="|gamma| floor before division"
    )
    rec.add_argument("--heatmap-out", default=None, help="also write |rho| heatmap CSV")
    rec.add_argument("--json", action="store_true", help="print the report JSON to stdout")
    _add_units_arg(rec)
    rec.set_defaults(func=cmd_reconstruct)

    ana = sub.add_parser("analyze", help="purity and pairwise overlap of state files")
    ana.add_argument("files", nargs="+", help="density-matrix JSON files")
    ana.add_argument("--json", action="store_true", help="machine-readable output")
    ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("once")
            return args.func(args)
    except (MissingSettingsError, CalibrationMissingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (
        DataFormatError,
        GridMismatchError,
        VisibilityTooLowError,
        InsufficientDataError,
        DegenerateInputError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, SpectralTomographyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
