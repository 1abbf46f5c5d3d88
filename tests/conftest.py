"""Shared fixtures: the five standard states, random-state factories, and
reference implementations the package's faster code is checked against."""

import functools
import warnings

import pytest

from spectomo import (
    InterferometerConfig,
    density_from_pure,
    frequency_jitter_state,
    gaussian_pure,
    make_grid,
    mix,
    plan_scan,
    simulate_counts,
    time_jitter_state,
)
from spectomo.core import DENSITY_MATRIX_UNITS

GRID_N = 64
GRID_SPAN = 16.0
FJ_SPAN = 24.0  # wider grid so a jitter_std=2 envelope stays inside


@functools.lru_cache(maxsize=None)
def _grid(center, span, n):
    return make_grid(center, span, n)


@functools.lru_cache(maxsize=None)
def _standard_states():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = _grid(0.0, GRID_SPAN, GRID_N)
        g_wide = _grid(0.0, FJ_SPAN, GRID_N)
        states = {
            "pure-gaussian": density_from_pure(gaussian_pure(g, 0.0, 1.0)),
            "chirped-gaussian": density_from_pure(gaussian_pure(g, 0.0, 1.0, chirp=0.5)),
            "two-gaussian-mixture": mix(
                [
                    (0.5, density_from_pure(gaussian_pure(g, -2.0, 1.0))),
                    (0.5, density_from_pure(gaussian_pure(g, 2.0, 1.0))),
                ]
            ),
            "time-jitter": time_jitter_state(gaussian_pure(g, 0.0, 1.0), 1.0),
            "freq-jitter": frequency_jitter_state(gaussian_pure(g_wide, 0.0, 1.0), 2.0),
        }
    return states


@pytest.fixture
def grid64():
    return _grid(0.0, GRID_SPAN, GRID_N)


@pytest.fixture
def standard_states():
    return dict(_standard_states())


def random_contained_state(rng, grid, max_components=3):
    """Random physical state whose support stays far from the grid edges.

    Mixtures of chirped, time-jittered Gaussians with sigma in [0.8, 1.3]
    and centers in [-1.5, 1.5]: on a span-28 grid the mass within a few bins
    of the edges is < 1e-30, so shifted-kernel clipping is negligible.
    """
    n_comp = int(rng.integers(1, max_components + 1))
    weights = rng.random(n_comp)
    weights /= weights.sum()
    weights[-1] = 1.0 - weights[:-1].sum()
    parts = []
    for w in weights:
        sigma = rng.uniform(0.8, 1.3)
        omega0 = rng.uniform(-1.5, 1.5)
        chirp = rng.uniform(-0.5, 0.5)
        psi = gaussian_pure(grid, omega0, sigma, chirp=chirp)
        jitter = rng.uniform(0.0, 1.0)
        parts.append((w, time_jitter_state(psi, jitter)))
    return mix(parts)


def random_psd_state(rng, grid):
    """Generic random density matrix (dense PSD, no containment guarantee)."""
    from spectomo import SpectralDensityMatrix

    n = grid.n
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    kernel = a @ a.conj().T
    return SpectralDensityMatrix.from_kernel(grid, kernel)


def exact_records(state, config=InterferometerConfig(), max_delta_index=None, shots=1000, seed=0):
    """Noiseless full scan of `state` (every band unless `max_delta_index`)."""
    grid = state.grid
    if max_delta_index is None:
        max_delta_index = grid.n - 1
    plan = plan_scan(grid, max_delta_index, shots, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return simulate_counts(state, plan, config, exact=True)


def density_matrix_to_dict(state, units=DENSITY_MATRIX_UNITS):
    """Reference interchange dict: row-major [re, im] pairs, lower triangle from upper.

    `save_density_matrix` must write exactly `json.dumps` of this plus a newline.
    """
    n = state.grid.n
    m = state.rho
    pairs = []
    for i in range(n):
        for j in range(n):
            v = m[i, j] if i <= j else m[j, i].conjugate()
            pairs.append([float(v.real), float(v.imag)])
    return {
        "omega_min": state.grid.omega_min,
        "d_omega": state.grid.d_omega,
        "n": n,
        "units": units,
        "rho": pairs,
    }


# Corruptions of a density-matrix document's `rho` list that every loader
# must reject with DataFormatError (name -> rho list -> corrupted rho list).
MALFORMED_RHO = {
    "string-entry": lambda rho: [["1", 0]] + rho[1:],
    "null-entry": lambda rho: [[None, 0]] + rho[1:],
    "triple-entry": lambda rho: [[1, 2, 3]] + rho[1:],
    "single-entry": lambda rho: [[1]] + rho[1:],
    "all-triples": lambda rho: [[re, im, 0] for re, im in rho],
    "all-singles": lambda rho: [[re] for re, _ in rho],
    "ragged-nesting": lambda rho: [[[1], 0]] + rho[1:],
    "scalar-entries": lambda rho: [0.0] * len(rho),
    "nan": lambda rho: [[float("nan"), 0.0]] + rho[1:],
    "infinity": lambda rho: rho[:-1] + [[0.0, float("inf")]],
    "minus-infinity": lambda rho: [[float("-inf"), 0.0]] + rho[1:],
}
