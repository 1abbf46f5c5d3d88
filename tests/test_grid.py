import math

import numpy as np
import pytest

from spectomo import make_grid
from spectomo.core import FrequencyGrid


def test_make_grid_arithmetic():
    g = make_grid(0.0, 10.0, 11)
    assert g.omega_min == -5.0
    assert g.d_omega == 1.0
    assert np.array_equal(g.omegas, np.arange(-5.0, 6.0))


def test_make_grid_two_points():
    g = make_grid(5.0, 10.0, 2)
    assert list(g.omegas) == [0.0, 10.0]


def test_conjugacy_identity():
    g = make_grid(0.0, 2 * math.pi, 64)
    assert g.d_tau * g.d_omega * g.n == pytest.approx(2 * math.pi, rel=1e-14)
    assert g.taus[0] == 0.0
    assert g.taus[1] == pytest.approx(g.d_tau)
    assert len(g.taus) == g.n


def test_omega_indexing():
    g = make_grid(1.0, 4.0, 5)
    for i in range(g.n):
        assert g.omega(i) == pytest.approx(g.omegas[i])
    assert g.omega_max == pytest.approx(3.0)
    assert g.span == pytest.approx(4.0)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        make_grid(0.0, -1.0, 8)
    with pytest.raises(ValueError):
        make_grid(0.0, 0.0, 8)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        FrequencyGrid(omega_min=0.0, d_omega=-0.1, n=4)


@pytest.mark.parametrize(
    "omega_min, d_omega, message",
    [
        (math.inf, 0.5, "omega_min must be finite, got inf"),
        (math.nan, 0.5, "omega_min must be finite, got nan"),
        (0.0, math.inf, "d_omega must be finite, got inf"),
        (0.0, math.nan, "d_omega must be positive, got nan"),
    ],
    ids=["omega-min-infinity", "omega-min-nan", "d-omega-infinity", "d-omega-nan"],
)
def test_grid_rejects_non_finite_values(omega_min, d_omega, message):
    with pytest.raises(ValueError, match=message):
        FrequencyGrid(omega_min=omega_min, d_omega=d_omega, n=4)


def test_compatibility():
    a = make_grid(0.0, 16.0, 64)
    b = make_grid(0.0, 16.0, 64)
    c = make_grid(0.0, 16.0, 32)
    assert a.compatible_with(b)
    assert not a.compatible_with(c)
    from spectomo import GridMismatchError

    with pytest.raises(GridMismatchError):
        a.require_compatible(c)


def test_grids_hashable_and_immutable():
    a = make_grid(0.0, 16.0, 64)
    b = make_grid(0.0, 16.0, 64)
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(ValueError):
        a.omegas[0] = 1.0
