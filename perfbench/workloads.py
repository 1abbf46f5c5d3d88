"""Workload definitions: inputs made from the seed, the timed chain, output checks.

A workload is a `Spec`. Scan workloads time `gen-state | simulate |
reconstruct --truth`; their set-up writes the reference state the chain's
`gen-state` must reproduce byte for byte. Ingest workloads (`passes > 0`)
time `reconstruct --truth` alone on a lab-style CSV that set-up writes: a
full scan at `shots` per setting, each row split into `passes` rows with a
multinomial split of its shots and hypergeometric splits of its counts, then
shuffled. Set-up also saves the reconstruction of the unsplit scan, which
the chain's output must equal bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path

STATE_KINDS = {
    "gaussian": [],
    "chirped": [],
    "mixture": ["--omega0", "-2", "--omega0-b", "2"],
    "time-jitter": [],
    "freq-jitter": ["--jitter", "0.5"],
}
# Every workload's state: a Gaussian of width SIGMA on a grid of width SPAN.
SIGMA = 1.0
SPAN = 16.0
ROUND_TRIP_N = 32
ROUND_TRIP_TOL = 1e-8
# hs_distance ceiling for sampled scans, in units of the shot-noise scale
# sqrt(2 n / shots) / |gamma|; measured runs sit near 2 of these units.
SHOT_NOISE_CEILING = 3.0


@dataclass(frozen=True)
class Spec:
    name: str
    n: int
    jitter: float
    shots: int
    gamma: str = "1"
    max_delta_index: int | None = None
    exact: bool = False
    heatmap: bool = False
    passes: int = 0

    @property
    def bands(self) -> int:
        return self.n if self.max_delta_index is None else self.max_delta_index + 1

    @property
    def settings(self) -> int:
        return 2 + 2 * self.n * self.bands

    @property
    def rows(self) -> int:
        """CSV rows the chain processes."""
        return self.settings * max(self.passes, 1)

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "Spec":
        return cls(**json.loads(text))


WORKLOADS = {
    spec.name: spec
    for spec in (
        Spec("scan-sampled-n256", n=256, jitter=1.0, shots=20000, gamma="0.9"),
        Spec(
            "dense-exact-n1024",
            n=1024,
            jitter=8.0,
            shots=20000,
            max_delta_index=31,
            exact=True,
            heatmap=True,
        ),
        Spec("ingest-multipass-n128", n=128, jitter=1.0, shots=160000, gamma="0.9", passes=8),
    )
}

# Same code paths at sizes that run in about a second, for the smoke tests.
TINY = {
    "scan-sampled-n256": {"n": 16},
    "dense-exact-n1024": {"n": 32, "max_delta_index": 3},
    "ingest-multipass-n128": {"n": 16},
}


def workload(name: str, tiny: bool = False) -> Spec:
    spec = WORKLOADS[name]
    return replace(spec, **TINY[name]) if tiny else spec


def sweep_spec(n: int, exact: bool, max_settings: int) -> Spec:
    """Baseline-table cell: jitter state, 20k shots, as many bands as fit."""
    bands = min(n, (max_settings - 2) // (2 * n))
    return Spec(
        f"sweep-n{n}-{'exact' if exact else 'sampled'}",
        n=n,
        jitter=1.0,
        shots=20000,
        gamma="0.9",
        max_delta_index=bands - 1 if bands < n else None,
        exact=exact,
    )


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------

class Paths:
    """File names inside one workload's work directory."""

    def __init__(self, workdir):
        root = Path(workdir)
        self.root = root
        self.ref_state = root / "ref_state.json"
        self.ref_rho = root / "ref_rho_hat.json"
        self.lab_csv = root / "lab_scan.csv"
        self.state = root / "state.json"
        self.counts = root / "counts.csv"
        self.rho = root / "rho_hat.json"
        self.report = root / "rho_hat.report.json"
        self.heatmap = root / "rho_abs.csv"

    def chain_outputs(self, spec: Spec) -> list[Path]:
        outs = [self.rho, self.report] + ([self.heatmap] if spec.heatmap else [])
        if not spec.passes:
            outs = [self.state, self.counts] + outs
        return outs

    def clear_chain_outputs(self, spec: Spec) -> None:
        for path in self.chain_outputs(spec):
            for p in (path, Path(str(path) + ".manifest.json")):
                p.unlink(missing_ok=True)


def gen_state_argv(spec: Spec, out) -> list[str]:
    return [
        "gen-state", "time-jitter",
        "--sigma", repr(SIGMA),
        "--jitter", repr(spec.jitter),
        "--span", repr(SPAN),
        "--n", str(spec.n),
        "--out", str(out),
        "--json",
    ]


def chain_argvs(spec: Spec, seed: int, paths: Paths) -> list[list[str]]:
    """The commands one chain repetition runs, in order."""
    reconstruct = ["reconstruct"]
    if spec.passes:
        reconstruct += [str(paths.lab_csv), "--truth", str(paths.state)]
    else:
        reconstruct += [str(paths.counts), "--truth", str(paths.state)]
    reconstruct += ["--out", str(paths.rho), "--report-out", str(paths.report), "--json"]
    if spec.heatmap:
        reconstruct += ["--heatmap-out", str(paths.heatmap)]
    if spec.passes:
        return [reconstruct]
    simulate = [
        "simulate", str(paths.state),
        "--out", str(paths.counts),
        "--shots", str(spec.shots),
        "--seed", str(seed),
        "--gamma", spec.gamma,
        "--json",
    ]
    if spec.max_delta_index is not None:
        simulate += ["--max-delta-index", str(spec.max_delta_index)]
    if spec.exact:
        simulate.append("--exact")
    return [gen_state_argv(spec, paths.state), simulate, reconstruct]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def run_cli(argv) -> int:
    """`spectomo.cli.main` with its stdout and stderr kept off the terminal."""
    from spectomo.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(argv)


def setup(spec: Spec, seed: int, paths: Paths) -> dict:
    """Write the workload's inputs and references; returns their digests."""
    paths.root.mkdir(parents=True, exist_ok=True)
    if not spec.passes:
        if run_cli(gen_state_argv(spec, paths.ref_state)) != 0:
            raise RuntimeError("gen-state failed during set-up")
        return {"ref_state": sha256(paths.ref_state)}
    if run_cli(gen_state_argv(spec, paths.state)) != 0:
        raise RuntimeError("gen-state failed during set-up")
    _write_multipass_scan(spec, seed, paths)
    return {"lab_csv": sha256(paths.lab_csv), "ref_rho": sha256(paths.ref_rho)}


def _split(rng, good, total, sizes):
    """Split `good` of `total` items into parts of `sizes` without replacement."""
    import numpy as np

    parts = np.empty_like(sizes)
    good = good.copy()
    total = total.copy()
    for k in range(sizes.shape[1] - 1):
        parts[:, k] = rng.hypergeometric(good, total - good, sizes[:, k])
        good -= parts[:, k]
        total -= sizes[:, k]
    parts[:, -1] = good
    return parts


def _write_multipass_scan(spec: Spec, seed: int, paths: Paths) -> None:
    import numpy as np

    from spectomo.core import load_density_matrix, save_density_matrix
    from spectomo.diagnostics import capture
    from spectomo.interferometer import InterferometerConfig
    from spectomo.measurement import RECORD_HEADER, plan_scan, simulate_counts
    from spectomo.reconstruction import reconstruct_records

    state = load_density_matrix(paths.state)
    grid = state.grid
    max_delta_index = grid.n - 1 if spec.max_delta_index is None else spec.max_delta_index
    plan = plan_scan(grid, max_delta_index, spec.shots, seed)
    config = InterferometerConfig(gamma=complex(spec.gamma), compensate_loss=True)
    with capture():
        records = simulate_counts(state, plan, config)
        reference = reconstruct_records(records, grid)
    save_density_matrix(paths.ref_rho, reference.rho_hat, units="dimensionless")

    # Entropy [seed, passes] is disjoint from the package's per-setting streams.
    rng = np.random.default_rng([seed, spec.passes])
    shots = np.array([r.shots_attempted for r in records], dtype=np.int64)
    post = np.array([r.shots_postselected for r in records], dtype=np.int64)
    counts_a = np.array([r.counts_a for r in records], dtype=np.int64)
    p = spec.passes
    shots_k = rng.multinomial(shots, [1.0 / p] * p)
    post_k = _split(rng, post, shots, shots_k)
    a_k = _split(rng, counts_a, post, post_k)
    lines = []
    for i, rec in enumerate(records):
        head = f"{rec.setting.delta_index},{rec.tau_index},{float(rec.setting.theta)!r}"
        for k in range(p):
            lines.append(
                f"{head},{shots_k[i, k]},{post_k[i, k]},{a_k[i, k]},{post_k[i, k] - a_k[i, k]}"
            )
    order = rng.permutation(len(lines))
    paths.lab_csv.write_text(
        "\n".join([RECORD_HEADER] + [lines[j] for j in order]) + "\n", newline="\n"
    )


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def shot_noise_scale(spec: Spec) -> float:
    return math.sqrt(2.0 * spec.n / spec.shots) / abs(complex(spec.gamma))


def truncation_floor(spec: Spec, paths: Paths) -> float:
    """HS norm of the reference state's coherences outside the measured bands."""
    import numpy as np

    from spectomo.core import load_density_matrix

    state = load_density_matrix(paths.ref_state)
    i, j = np.indices(state.rho.shape)
    outside = np.abs(i - j) > spec.bands - 1
    return float(np.linalg.norm(state.rho[outside])) * state.grid.d_omega


def check_outputs(spec: Spec, paths: Paths, refs: dict) -> tuple[list[str], dict]:
    """Problems with one repetition's outputs, and the facts read from them."""
    problems = []
    for path in paths.chain_outputs(spec):
        if not path.is_file():
            problems.append(f"missing output {path.name}")
    if problems:
        return problems, {}
    facts = {"rho_sha": sha256(paths.rho), "report_sha": sha256(paths.report)}
    doc = json.loads(paths.report.read_text())
    hs = doc.get("hs_distance")
    if not isinstance(hs, float) or not math.isfinite(hs):
        return problems + [f"report has no finite hs_distance: {hs!r}"], facts
    facts["hs_distance"] = hs
    if spec.passes:
        if facts["rho_sha"] != refs["ref_rho"]:
            problems.append("multi-pass rho_hat differs from the unsplit scan's reconstruction")
    else:
        if sha256(paths.state) != refs["ref_state"]:
            problems.append("gen-state output differs from the set-up reference state")
        rows = count_lines(paths.counts) - 1
        if rows != spec.rows:
            problems.append(f"counts CSV has {rows} rows, expected {spec.rows}")
    if spec.heatmap and count_lines(paths.heatmap) != spec.n * spec.n + 1:
        problems.append("heatmap does not have n^2 rows plus a header")
    return problems, facts


def accuracy_ceiling(spec: Spec, paths: Paths) -> float | None:
    """Largest acceptable hs_distance for the workload's outputs."""
    if spec.exact:
        # Noiseless data: the band-limited estimate lies `floor` from the
        # truth. The factor 2 is an empirical margin, not a proven bound:
        # `project_physical` is not the nearest-point projection, the
        # dense workload reads about 1.31 floors, and the n=512 exact
        # sweep cell exceeds 2 floors.
        return 2.0 * truncation_floor(spec, paths) + ROUND_TRIP_TOL
    if spec.passes:
        return None  # bit-identity to the unsplit reconstruction is stricter
    return SHOT_NOISE_CEILING * shot_noise_scale(spec)


def exact_round_trips(workdir) -> list[str]:
    """README's promise: every gen-state kind survives an exact scan to 1e-8."""
    problems = []
    root = Path(workdir) / "round_trip"
    root.mkdir(parents=True, exist_ok=True)
    for kind, extra in STATE_KINDS.items():
        state, counts, rho = root / f"{kind}.json", root / f"{kind}.csv", root / f"{kind}.rho.json"
        argvs = [
            ["gen-state", kind, "--n", str(ROUND_TRIP_N), "--out", str(state), *extra],
            ["simulate", str(state), "--out", str(counts), "--exact"],
            ["reconstruct", str(counts), "--truth", str(state), "--out", str(rho)],
        ]
        codes = [run_cli(argv) for argv in argvs]
        if any(codes):
            problems.append(f"round trip of {kind}: exit codes {codes}")
            continue
        hs = json.loads(rho.with_suffix(".report.json").read_text())["hs_distance"]
        if not hs < ROUND_TRIP_TOL:
            problems.append(f"round trip of {kind}: hs_distance {hs:.3e} >= {ROUND_TRIP_TOL}")
    return problems
