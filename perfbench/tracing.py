"""Spans around the calls the CLI makes into each spectomo layer.

Nothing here touches the package's source. `instrument` swaps the names the
`cli` and `reconstruction` modules look up at call time for wrappers that
open a span, so the traced run executes the package's own
`reconstruct_records` with a span around each stage it calls. Spans live in
memory (`Tracer.spans`) and are written out by the caller when the run ends.

Stage names are `<module>.<stage>`; a stage's self time (its spans' duration
minus the part covered by child spans) is reported as the per-layer metric
`<module>.<stage>_s`. Work `reconstruct_records` does between its stage
calls (grouping records by band, residual arithmetic) is the self time of
`reconstruction.pipeline`. The command spans `cli.<command>` and the `chain`
root report their self time together as `cli.overhead_s`: argparse,
manifests, report and heatmap writing. Every span maps to exactly one
metric, so the time metrics sum to the traced chain's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter, defaultdict
from unittest import mock

from spectomo import cli, diagnostics, interferometer, reconstruction

STAGES = (
    "core.state",
    "core.validate",
    "core.save",
    "core.load",
    "measurement.plan",
    "measurement.simulate",
    "measurement.write",
    "measurement.read",
    "measurement.pool",
    "interferometer.transform",
    "reconstruction.pipeline",
    "reconstruction.calibrate",
    "reconstruction.estimate",
    "reconstruction.invert",
    "reconstruction.assemble",
    "reconstruction.project",
    "reconstruction.report",
    "diagnostics.dedupe",
)
COUNTS = (
    "measurement.rows",
    "measurement.csv_bytes",
    "interferometer.bands",
    "core.json_bytes",
    "diagnostics.emitted",
    "diagnostics.unique",
)
OVERHEAD = "cli.overhead_s"
TIME_METRICS = tuple(f"{stage}_s" for stage in STAGES) + (OVERHEAD,)

# Names in `spectomo.cli` that are plain calls into another layer.
_CLI_CALLS = {
    "make_grid": "core.state",
    "gaussian_pure": "core.state",
    "density_from_pure": "core.state",
    "mix": "core.state",
    "time_jitter_state": "core.state",
    "frequency_jitter_state": "core.state",
    "validate": "core.validate",
    "purity": "core.validate",
    "save_density_matrix": "core.save",
    "plan_scan": "measurement.plan",
    "write_records": "measurement.write",
    "report": "reconstruction.report",
}
# Names in `spectomo.reconstruction` that `reconstruct_records` calls.
_RECONSTRUCTION_CALLS = {
    "calibrate_gamma": "reconstruction.calibrate",
    "estimate_cross_section": "reconstruction.estimate",
    "invert_cross_section": "reconstruction.invert",
    "assemble": "reconstruction.assemble",
    "project_physical": "reconstruction.project",
    "pool_records": "measurement.pool",
}
_dedupe = diagnostics.dedupe


class Tracer:
    """In-memory span recorder for one traced chain repetition."""

    def __init__(self, workload: str, trace_id: str):
        self.workload = workload
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "trace_id": self.trace_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dedupe(self, diags):
        diags = list(diags)
        with self.span("diagnostics.dedupe"):
            out = _dedupe(diags)
        self.counts["diagnostics.emitted"] += len(diags)
        self.counts["diagnostics.unique"] += len(out)
        return out


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: duration minus direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return dict(out)


def inclusive_times(spans) -> dict[str, float]:
    """Total wall time per span name, children included."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"]
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition: stage self times and counts."""
    metrics = {name: 0.0 for name in TIME_METRICS}
    for name, seconds in self_times(tracer.spans).items():
        if name == "chain" or name.startswith("cli."):
            metrics[OVERHEAD] += seconds
        elif name in STAGES:
            metrics[f"{name}_s"] += seconds
        else:
            raise ValueError(f"span {name!r} maps to no metric")
    metrics.update(tracer.counts)
    return metrics


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route the CLI's calls into the other layers through `tracer`."""
    simulate_counts = cli.simulate_counts
    read_records = cli.read_records
    load_density_matrix = cli.load_density_matrix
    cross_section_transform = reconstruction.cross_section_transform

    def traced_simulate(state, plan, config, *, exact=False):
        # Fill the per-state transform cache for every band up front, so the
        # FFT arithmetic is timed apart from the per-setting work.
        with tracer.span("interferometer.transform"):
            for m in plan.delta_indices:
                interferometer.cross_section_transform(state, m)
        tracer.counts["interferometer.bands"] += len(plan.delta_indices)
        with tracer.span("measurement.simulate"):
            return simulate_counts(state, plan, config, exact=exact)

    def traced_read(path, grid):
        with tracer.span("measurement.read"):
            records = read_records(path, grid)
        tracer.counts["measurement.rows"] += len(records)
        tracer.counts["measurement.csv_bytes"] += os.path.getsize(path)
        return records

    def traced_load(path):
        with tracer.span("core.load"):
            state = load_density_matrix(path)
        tracer.counts["core.json_bytes"] += os.path.getsize(path)
        return state

    def traced_transform(state, delta_index):
        # `reconstruct_records` asks for each band's forward transform once.
        tracer.counts["interferometer.bands"] += 1
        with tracer.span("interferometer.transform"):
            return cross_section_transform(state, delta_index)

    cli_calls = {name: tracer.wrap(stage, getattr(cli, name)) for name, stage in _CLI_CALLS.items()}
    cli_calls.update(
        simulate_counts=traced_simulate,
        read_records=traced_read,
        load_density_matrix=traced_load,
        reconstruct_records=tracer.wrap("reconstruction.pipeline", cli.reconstruct_records),
        dedupe=tracer.dedupe,
    )
    reconstruction_calls = {
        name: tracer.wrap(stage, getattr(reconstruction, name))
        for name, stage in _RECONSTRUCTION_CALLS.items()
    }
    reconstruction_calls["cross_section_transform"] = traced_transform
    with contextlib.ExitStack() as stack:
        for module, calls in ((cli, cli_calls), (reconstruction, reconstruction_calls)):
            for name, fn in calls.items():
                stack.enter_context(mock.patch.object(module, name, fn))
        stack.enter_context(mock.patch.object(diagnostics, "dedupe", tracer.dedupe))
        yield tracer
