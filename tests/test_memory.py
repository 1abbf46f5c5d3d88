"""Memory bounds of the scan's hand-off from `simulate` to `reconstruct`, and
of density-matrix text and kernels.

tracemalloc counts every Python and numpy allocation, so each peak below is
deterministic for a given Python and numpy. The scan is a full-coverage
n=224 one, 100,354 rows, whose table holds 6.4 MB. Bounds, measured on that
scan (sampled / exact counts), with a whole-file text buffer on the left of
each arrow and one block of text on the right:

- `write_records` peak: 28.4 / 37.8 MB -> 4.7 / 6.2 MB; bound 10 MB.
- `read_records` peak above its table: 9.9 / 12.6 MB -> 4.5 / 4.5 MB; bound 7 MB.
- `simulate_counts` peak above its table: 13.8 / 13.0 MB (with a copy of
  every column) -> 3.3 / 2.5 MB; bound 8 MB.

`pool_records` of that scan, whose calibration pair repeats two cells,
peaked at 1.52 tables above its input when it sorted and copied every
column; it now shares the four cell columns and copies the four summed
ones, 0.50 tables (sampled and exact). Bound 0.85 tables.

The same scan in four passes, every row four times and the rows shuffled,
takes the general path: 0.83 tables above its input when its cells were
found by `np.unique`'s sort, 0.49 tables when they are counted
(sampled and exact). Bound 0.65 tables.

With the row check's closeness test computed in one float buffer, the
peaks above the table read 2.9 / 2.0 MB for `simulate_counts` (3.5 / 2.7
before) and 3.8 / 3.8 MB for `read_records` (4.5 / 4.5 before); the bounds
are 4 and 5 MB.

`read_records` parsed into columns sized once from the file and grown in
place peaks 3.6 / 3.8 MB above its table on that scan (2.2 / 2.4 MB when
every block's pieces were kept and joined by `np.concatenate`): the
columns are whole from the first block on, beside one block's text and
fields. tracemalloc does not see what the joins cost in resident memory. A
fresh process reading a full sampled n=512 scan (524,290 rows, a 33.6 MB
table) grew its peak resident memory (`ru_maxrss`) by 1.84 tables with the
joins and by 1.14 tables with columns filled in place; bound 1.3 tables,
measured in a new interpreter so that heap other tests leave cannot set it.

`save_density_matrix` of an n=256 state with a heatmap peaks 13.0 MB above
the state when every formatted entry is held at once, and keeps 8.1 MB of it
as a cache; formatted row by row it peaks at 4.1 MB and keeps nothing; with
the strings that wait below the diagonal packed into one string per column
every 32 rows it peaks at 2.3 MB, and at n=512 at 6.8 MB (16.0 MB unpacked).
Bounds 3 MB and 8 MB, and 0.5 MB kept.

A state built by `from_kernel` at n=512 holds its one 4.2 MB kernel; the
call peaks 1.4 MB above it when the checks and the symmetrization work a
strip of rows at a time, and 8.8 MB above it with whole-matrix temporaries
and a copy in the constructor. LAPACK's own copy inside `eigvalsh` is
allocated outside tracemalloc's view. `density_matrix_from_dict` reads the
same above the document's own array (8.8 MB before). `load_density_matrix`
of the 12.9 MB text of that state peaks at 5.7 MB: the (entries, 2) array
parsed from the file as it is read, one 256 kB block of text at a time.
Holding the file's bytes beside that array it peaked at 17.7 MB; decoded
by `Path.read_text`, which holds the bytes and the str at once, at 25.9 MB;
parsing `rho` in one piece at 38.8 MB, three copies of the text. Bound:
half a kernel above the state's for all three.

`reconstruct_records` of an exact n=512 scan of that state with 16 bands
peaks 12.9 MB above its start when the assembled estimate is handed to
`project_physical`, which frees it before `eigh`, and 18.0 MB when it is
kept beside the Hermitian copy that `eigh` reads. Bound 14.5 MB. LAPACK's
buffers inside `eigh` are allocated outside tracemalloc's view.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spectomo
from spectomo import (
    InterferometerConfig,
    SpectralDensityMatrix,
    density_from_pure,
    gaussian_pure,
    load_density_matrix,
    make_grid,
    plan_scan,
    pool_records,
    read_records,
    reconstruct_records,
    save_density_matrix,
    simulate_counts,
    time_jitter_state,
    validate,
    write_records,
)
from spectomo.core import _streamed_document, density_matrix_from_dict
from spectomo.diagnostics import capture

N = 224
WRITE_MB = 10.0
READ_OVER_TABLE_MB = 5.0
POOL_OVER_INPUT_TABLES = 0.85
POOL_SHUFFLED_OVER_INPUT_TABLES = 0.65
PASSES = 4
SIMULATE_OVER_TABLE_MB = 4.0
SAVE_N = 256
SAVE_OVER_STATE_MB = 3.0
SAVE_512_OVER_STATE_MB = 8.0
SAVE_KEPT_MB = 0.5
KERNEL_N = 512
EXTRA_KERNELS = 0.5  # above the state's own kernel
RECONSTRUCT_BANDS = 16
RECONSTRUCT_MB = 14.5
RSS_N = 512
READ_RSS_TABLES = 1.3  # growth of a fresh process's peak resident memory


def _peak_mb(fn):
    """`fn()`, the most memory it held at once and the memory it left held, in MB."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, (peak - before) / 1e6, (after - before) / 1e6


def _table_mb(table) -> float:
    return sum(col.nbytes for col in table.columns) / 1e6


@pytest.fixture(scope="module")
def scan():
    grid = make_grid(0.0, 16.0, N)
    state = density_from_pure(gaussian_pure(grid, 0.0, 1.0))
    plan = plan_scan(grid, N - 1, 20000, 7)
    config = InterferometerConfig(gamma=0.9)
    with capture():  # support-clipping diagnostics of the outer bands
        tables = {exact: simulate_counts(state, plan, config, exact=exact) for exact in (False, True)}
    assert len(tables[False]) == 2 * N * N + 2
    return grid, state, plan, config, tables


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_simulate_holds_little_beyond_its_table(scan, exact):
    _, state, plan, config, tables = scan
    with capture():
        table, peak, _ = _peak_mb(lambda: simulate_counts(state, plan, config, exact=exact))
    assert table == tables[exact]
    assert peak - _table_mb(table) < SIMULATE_OVER_TABLE_MB


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_write_holds_one_block_of_text(scan, tmp_path, exact):
    *_, tables = scan
    _, peak, _ = _peak_mb(lambda: write_records(tmp_path / "counts.csv", tables[exact]))
    assert peak < WRITE_MB


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_read_holds_little_beyond_its_table(scan, tmp_path, exact):
    grid, *_, tables = scan
    path = tmp_path / "counts.csv"
    write_records(path, tables[exact])
    table, peak, _ = _peak_mb(lambda: read_records(path, grid))
    assert table == tables[exact]
    assert peak - _table_mb(table) < READ_OVER_TABLE_MB


# The peak resident memory of a fresh process across one read, and the table's bytes.
_READ_RSS = """
import json, resource, sys
from spectomo import make_grid, read_records
grid = make_grid(0.0, 16.0, int(sys.argv[2]))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
table = read_records(sys.argv[1], grid)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(json.dumps({"grown": grown, "table": sum(col.nbytes for col in table.columns)}))
"""


def test_a_fresh_process_reads_a_scan_in_little_more_than_its_table(tmp_path):
    pytest.importorskip("resource")
    grid = make_grid(0.0, 16.0, RSS_N)
    state = density_from_pure(gaussian_pure(grid, 0.0, 1.0))
    with capture():
        table = simulate_counts(state, plan_scan(grid, RSS_N - 1, 20000, 7), InterferometerConfig(gamma=0.9))
    path = tmp_path / "counts.csv"
    write_records(path, table)
    del table
    # A new interpreter, so that heap other tests left behind cannot set the
    # peak. Linux carries a process's peak over into the program it execs, so
    # the reader is started by a small interpreter, not by this large one.
    src = str(Path(spectomo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    spawn = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = subprocess.run(
        [sys.executable, "-c", spawn, sys.executable, "-c", _READ_RSS, str(path), str(RSS_N)],
        env=env, capture_output=True, text=True, check=True,
    )
    read = json.loads(done.stdout)
    assert read["table"] == (2 * RSS_N * RSS_N + 2) * 64
    unit = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, KiB elsewhere
    assert read["grown"] * unit < READ_RSS_TABLES * read["table"]


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_pooling_a_simulated_scan_copies_only_the_summed_columns(scan, exact):
    *_, tables = scan
    table = tables[exact]
    pooled, peak, _ = _peak_mb(lambda: pool_records(table))
    assert len(pooled) == len(table) - 2
    for name in ("delta_index", "tau_index", "theta_slot", "tau"):
        assert np.shares_memory(getattr(pooled, name), getattr(table, name)), name
    assert peak < POOL_OVER_INPUT_TABLES * _table_mb(table)


@pytest.mark.parametrize("exact", [False, True], ids=["sampled", "exact"])
def test_pooling_shuffled_passes_counts_cells_in_little_memory(scan, exact):
    *_, tables = scan
    table = tables[exact]
    rows = np.random.default_rng(5).permutation(PASSES * len(table)) % len(table)
    shuffled = table[rows]
    del rows
    pooled, peak, _ = _peak_mb(lambda: pool_records(shuffled))
    assert len(pooled) == len(table) - 2
    assert peak < POOL_SHUFFLED_OVER_INPUT_TABLES * _table_mb(shuffled)


def _chirped_state(n):
    grid = make_grid(0.0, 16.0, n)
    return time_jitter_state(gaussian_pure(grid, 0.3, 1.0, chirp=0.4), 1.0)


def _save_peak_mb(tmp_path, n):
    state = _chirped_state(n)
    _, peak, kept = _peak_mb(
        lambda: save_density_matrix(tmp_path / "rho.json", state, heatmap=tmp_path / "heat.csv")
    )
    assert kept < SAVE_KEPT_MB
    return peak


def test_save_with_heatmap_formats_row_by_row(tmp_path):
    assert _save_peak_mb(tmp_path, SAVE_N) < SAVE_OVER_STATE_MB


def test_save_at_n512_packs_the_strings_that_wait(tmp_path):
    assert _save_peak_mb(tmp_path, 512) < SAVE_512_OVER_STATE_MB


@pytest.fixture(scope="module")
def kernel_state():
    state = _chirped_state(KERNEL_N)
    return state, state.rho.nbytes / 1e6


def test_from_kernel_holds_one_copy_of_the_kernel(kernel_state):
    state, kernel_mb = kernel_state
    kernel = np.array(state.rho)
    built, peak, kept = _peak_mb(lambda: SpectralDensityMatrix.from_kernel(state.grid, kernel, renormalize=False))
    np.testing.assert_array_equal(built.rho, state.rho)
    assert kept == pytest.approx(kernel_mb, rel=0.01)
    assert peak - kernel_mb < EXTRA_KERNELS * kernel_mb


def test_validate_of_a_state_takes_its_deviation_a_strip_at_a_time(kernel_state):
    state, kernel_mb = kernel_state
    report, peak, _ = _peak_mb(lambda: validate(state))
    assert report.ok
    assert peak < EXTRA_KERNELS * kernel_mb


def test_loader_holds_one_copy_of_the_kernel(kernel_state, tmp_path):
    state, kernel_mb = kernel_state
    path = tmp_path / "rho.json"
    save_density_matrix(path, state)
    with open(path, "rb") as f:
        doc = _streamed_document(f)  # the (entries, 2) float64 array parsed from the file
    loaded, peak, _ = _peak_mb(lambda: density_matrix_from_dict(doc))
    np.testing.assert_array_equal(loaded.rho, state.rho)
    assert peak - kernel_mb < EXTRA_KERNELS * kernel_mb
    del doc
    loaded, peak, _ = _peak_mb(lambda: load_density_matrix(path))
    np.testing.assert_array_equal(loaded.rho, state.rho)
    # The (entries, 2) array parsed from the file, one kernel's size, and one block of its text.
    assert peak - kernel_mb < EXTRA_KERNELS * kernel_mb


def test_reconstruct_hands_the_raw_estimate_to_the_projection(kernel_state):
    state, _ = kernel_state
    plan = plan_scan(state.grid, RECONSTRUCT_BANDS - 1, 20000, 7)
    with capture():
        table = simulate_counts(state, plan, InterferometerConfig(gamma=0.9), exact=True)
    result, peak, _ = _peak_mb(lambda: reconstruct_records(table, state.grid))
    assert result.warnings[0].payload == {"max_delta_index": RECONSTRUCT_BANDS - 1}
    assert peak < RECONSTRUCT_MB
