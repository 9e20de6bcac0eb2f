import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochlab import capacity
from blochlab.capacity import (DEFAULT_R, CapacityProfile, _profile_rows, annulus_energy,
                               scaled_energy)
from blochlab.grid import make_grid
from blochlab.microstructure import radius_for_gamma


def test_profile_validation():
    with pytest.raises(ValueError, match="0 < r_eps < R"):
        CapacityProfile(0.0, 1.0)
    with pytest.raises(ValueError, match="0 < r_eps < R"):
        CapacityProfile(1.0, 0.5)
    with pytest.raises(ValueError, match="0 < r_eps < R"):
        CapacityProfile(1.0, 4.0)


def test_analytic_energy_closed_forms():
    # ln(R/r) = 1 and 2 give 2 pi and pi
    R = math.pi / 2
    assert_allclose(CapacityProfile(R / math.e, R).analytic_energy, 2 * math.pi)
    assert_allclose(CapacityProfile(R / math.e**2, R).analytic_energy, math.pi)


def _profile(g, r, R):
    # the profile's cell-center samples on the whole grid
    return _profile_rows(g, CapacityProfile(r, R), 0, g.n[0])


def test_profile_values():
    g = make_grid(2, (256, 256))
    r, R = 0.3, math.pi / 2
    v = _profile(g, r, R)
    mesh = g.center_mesh()
    rho = np.sqrt((mesh[0] - math.pi) ** 2 + (mesh[1] - math.pi) ** 2)
    rho = np.broadcast_to(rho, g.n)
    assert np.all(v[rho < r] == 0.0)
    assert np.all(v[rho > R] == 1.0)
    assert np.all((v >= 0.0) & (v <= 1.0))
    # value 1/2 on the logarithmic midpoint circle
    mid = math.sqrt(r * R)
    sel = np.abs(rho - mid) < g.h[0] / 4
    assert np.allclose(v[sel], 0.5, atol=0.02)


def test_profile_resolution_guard():
    with pytest.raises(ValueError, match="need n >="):
        annulus_energy(0.05, DEFAULT_R, make_grid(2, (16, 16)))


def test_profile_needs_two_dimensions():
    with pytest.raises(ValueError, match="two-dimensional"):
        annulus_energy(0.3, DEFAULT_R, make_grid(3, (64, 64, 4)))


def test_annulus_energy_discrete_converges():
    r = 0.28
    analytic, e256 = annulus_energy(r, DEFAULT_R, make_grid(2, (256, 256)))
    _, e512 = annulus_energy(r, DEFAULT_R, make_grid(2, (512, 512)))
    assert abs(e256 - analytic) / analytic < 2e-2
    assert abs(e512 - analytic) / analytic < 1e-2
    # refinement moves the discrete value toward the analytic one
    assert abs(e512 - analytic) < abs(e256 - analytic)


def _full_grid_energy(g, r, R):
    # reference: both face-difference grids of the whole profile at once
    v = _profile(g, r, R)
    energy = 0.0
    for k in range(2):
        dv = (np.roll(v, -1, axis=k) - v) / g.h[k]
        energy += g.cell_volume * float(np.sum(dv * dv))
    return energy


@pytest.mark.parametrize("n, R, block_cells", [
    (156, math.pi / 2, None), (257, math.pi / 2, None), (1024, math.pi / 2, None),
    (257, 1.2, None),
    (257, math.pi / 2, 1),      # one-row blocks
    (257, math.pi / 2, 1000),   # 3-row blocks, the last one short: 257 = 85*3 + 2
])
def test_streamed_energy_matches_full_grid(monkeypatch, n, R, block_cells):
    if block_cells is not None:
        monkeypatch.setattr(capacity, "_BLOCK_CELLS", block_cells)
    g = make_grid(2, (n, n))
    _, energy = annulus_energy(0.28, R, g)
    assert_allclose(energy, _full_grid_energy(g, 0.28, R), rtol=1e-13)


def test_scaled_energy_memory_is_bounded(traced_peak):
    # the eps = 1/6 rung of the capacity sweep: two full 2046^2 grids would
    # take 64 MiB
    r = radius_for_gamma(1 / 6, 2.0)
    g = make_grid(2, (2046, 2046))
    peak = traced_peak(scaled_energy, 1 / 6, r, DEFAULT_R, g)
    assert peak <= 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def analytic_scaled_energy(eps, r, R):
    # the thin-structure density of the closed-form annulus energy
    return CapacityProfile(r, R).analytic_energy / ((2.0 * math.pi) ** 2 * eps**2)


def test_scaled_energy_tracks_gamma_from_below():
    gamma = 1.2
    devs = []
    for eps in (1 / 3, 1 / 4, 1 / 5, 1 / 6):
        r = radius_for_gamma(eps, gamma)
        val = analytic_scaled_energy(eps, r, 1.2)
        assert val < gamma
        devs.append(gamma - val)
    assert all(a > b for a, b in zip(devs, devs[1:]))
    # the deficit is the outer-cutoff share ln R / (ln R + |ln r|)
    r = radius_for_gamma(1 / 6, 1.2)
    expect = gamma * abs(math.log(r)) / (math.log(1.2) + abs(math.log(r)))
    assert_allclose(analytic_scaled_energy(1 / 6, r, 1.2), expect, rtol=1e-12)


def test_scaled_energy_validation():
    g = make_grid(2, (64, 64))
    with pytest.raises(ValueError, match="eps"):
        scaled_energy(0.0, 0.3, DEFAULT_R, g)
    with pytest.raises(ValueError, match="eps"):
        scaled_energy(1.5, 0.3, DEFAULT_R, g)
