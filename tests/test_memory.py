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

With the row check's closeness test computed in one float buffer, the
peaks above the table read 2.9 / 2.0 MB for `simulate_counts` (3.5 / 2.7
before) and 3.8 / 3.8 MB for `read_records` (4.5 / 4.5 before); the bounds
are 4 and 5 MB.

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
of the 12.9 MB text of that state peaks where `Path.read_text` holds the
bytes and the str at once, 25.9 MB; parsing `rho` in one piece peaked at
38.8 MB, three copies of the text. Bound: half a kernel above the state's
for the first two, half a kernel above two texts for the load.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from spectomo import (
    InterferometerConfig,
    SpectralDensityMatrix,
    density_from_pure,
    gaussian_pure,
    load_density_matrix,
    make_grid,
    plan_scan,
    read_records,
    save_density_matrix,
    simulate_counts,
    time_jitter_state,
    write_records,
)
from spectomo.core import _canonical_document, density_matrix_from_dict
from spectomo.diagnostics import capture

N = 224
WRITE_MB = 10.0
READ_OVER_TABLE_MB = 5.0
SIMULATE_OVER_TABLE_MB = 4.0
SAVE_N = 256
SAVE_OVER_STATE_MB = 3.0
SAVE_512_OVER_STATE_MB = 8.0
SAVE_KEPT_MB = 0.5
KERNEL_N = 512
EXTRA_KERNELS = 0.5  # above the state's own kernel


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


def test_loader_holds_one_copy_of_the_kernel(kernel_state, tmp_path):
    state, kernel_mb = kernel_state
    path = tmp_path / "rho.json"
    save_density_matrix(path, state)
    text = path.read_text()
    text_mb = len(text) / 1e6
    doc = _canonical_document(text)
    del text
    loaded, peak, _ = _peak_mb(lambda: density_matrix_from_dict(doc))
    np.testing.assert_array_equal(loaded.rho, state.rho)
    assert peak - kernel_mb < EXTRA_KERNELS * kernel_mb
    del doc
    loaded, peak, _ = _peak_mb(lambda: load_density_matrix(path))
    np.testing.assert_array_equal(loaded.rho, state.rho)
    assert peak - 2 * text_mb < EXTRA_KERNELS * kernel_mb
