"""The measuring process: timed chain repetitions and the checks on them.

A repetition fails if a command raises, exits non-zero, or its outputs fail
a check: missing files, a wrong row count, a `gen-state` output that differs
from set-up's, a multi-pass reconstruction that differs from the unsplit
one, an `hs_distance` above the workload's ceiling, or a `rho_hat` or report
that differs from the run's first repetition (so a traced repetition must
reproduce the untraced one bit for bit).
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import sys
import time
import traceback

import tracing
import workloads


def run_rep(spec, seed, paths, refs, tracer=None) -> dict:
    """One chain repetition; traced when a `tracing.Tracer` is given."""
    argvs = workloads.chain_argvs(spec, seed, paths)
    paths.clear_chain_outputs(spec)
    rep = {"traced": tracer is not None, "problems": [], "facts": {}}
    # Start each repetition without the last one's garbage, so that the
    # process's peak RSS does not depend on when the collector last ran.
    gc.collect()
    with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with tracer.span("chain") if tracer else contextlib.nullcontext():
                codes = []
                for argv in argvs:
                    with tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext():
                        codes.append(workloads.run_cli(argv))
        except Exception as exc:  # a crash is a failed repetition, not a failed run
            traceback.print_exc(file=sys.stderr)
            rep["problems"].append(f"raised {type(exc).__name__}: {exc}")
        rep["seconds"] = time.perf_counter() - start
    if rep["problems"]:
        return rep
    if any(codes):
        rep["problems"].append(f"exit codes {codes}")
        return rep
    rep["problems"], rep["facts"] = workloads.check_outputs(spec, paths, refs)
    if tracer:
        rep["layer"] = tracing.layer_metrics(tracer)
        rep["inclusive"] = tracing.inclusive_times(tracer.spans)
        rep["spans"] = tracer.spans
        total = sum(rep["layer"][name] for name in tracing.TIME_METRICS)
        if abs(total - rep["inclusive"]["chain"]) > 1e-6:
            rep["problems"].append(f"stage self times sum to {total}, chain span is {rep['inclusive']['chain']}")
    return rep


def ok(rep) -> bool:
    return not rep["problems"]


def chain_seconds(reps) -> float:
    """Median untraced chain time over the successful repetitions."""
    untraced = [r for r in reps if not r["traced"]]
    return statistics.median(r["seconds"] for r in ([r for r in untraced if ok(r)] or untraced))


def _check_run(spec, paths, reps) -> None:
    """Checks across repetitions; adds problems to the repetitions at fault."""
    ceiling = workloads.accuracy_ceiling(spec, paths)
    first = next((r for r in reps if ok(r)), None)
    for r in reps:
        if not ok(r):
            continue
        if ceiling is not None and not r["facts"]["hs_distance"] <= ceiling:
            r["problems"].append(
                f"hs_distance {r['facts']['hs_distance']:.6g} above ceiling {ceiling:.6g}"
            )
        for key in ("rho_sha", "report_sha"):
            if r["facts"][key] != first["facts"][key]:
                kind = "traced" if r["traced"] and not first["traced"] else "repeated"
                r["problems"].append(f"{kind} repetition's {key[:-4]} differs from the first")
    traced = [r for r in reps if r["traced"] and ok(r)]
    for r in traced[1:]:
        for name in tracing.COUNTS:
            if r["layer"][name] != traced[0]["layer"][name]:
                r["problems"].append(f"count {name} changed between traced repetitions")


def measure(spec, seed, paths, refs, *, seconds, trace, min_reps) -> dict:
    """Repeat the chain for `seconds` (at least `min_reps` times) and check it."""
    import spectomo.cli  # noqa: F401  (import time is not part of the chain)

    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps * (1 + trace) or time.perf_counter() - start < seconds:
        reps.append(run_rep(spec, seed, paths, refs))
        if trace:
            tracer = tracing.Tracer(spec.name, f"seed{seed}/rep{len(reps)}")
            reps.append(run_rep(spec, seed, paths, refs, tracer))
    _check_run(spec, paths, reps)
    problems = [f"repetition {i}: {p}" for i, r in enumerate(reps) for p in r["problems"]]
    problems += workloads.exact_round_trips(paths.root)
    hs = [r["facts"]["hs_distance"] for r in reps if "hs_distance" in r["facts"]]
    record = {
        "attempted": len(reps),
        "succeeded": sum(ok(r) for r in reps),
        "problems": problems,
        "chain_s": chain_seconds(reps),
        "hs_distance": statistics.median(hs) if hs else None,
    }
    if trace:
        # Repetitions that ran to the end; a failed output check does not void the timing.
        traced = sorted((r for r in reps if "layer" in r), key=lambda r: r["seconds"])
        if traced:
            median = traced[(len(traced) - 1) // 2]
            layer = {
                name: [value, "count" if name in tracing.COUNTS else "s"]
                for name, value in median["layer"].items()
            }
            chain = median["inclusive"]["chain"]
            layer["trace.chain_s"] = [chain, "s"]
            layer["trace.overhead_s"] = [chain - chain_seconds(reps), "s"]
            record["layer_metrics"] = layer
            record["inclusive"] = median["inclusive"]
        record["spans"] = [s for r in reps if r["traced"] for s in r.get("spans", [])]
    for r in reps:
        r.pop("spans", None)
    record["reps"] = reps
    return record
