import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blochlab.fieldio import write_field_dump
from blochlab.grid import make_grid
from blochlab.microstructure import (
    CoefficientField,
    Constant,
    FiberLattice,
    FromFile,
    TwoPhaseInclusion,
    radius_for_gamma,
    rasterize,
)


def test_constant_rasterize():
    f = rasterize(Constant(2.5), make_grid(2, (4, 4)))
    assert_allclose(f.a, 2.5)
    assert f.a.shape == (16,)
    assert f.a.min() == 2.5


def test_constant_below_background_rejected():
    with pytest.raises(ValueError):
        Constant(0.5)


def test_square_inclusion_exact_fraction():
    # side 2*pi*rho with rho = 1/2: exactly one quarter of the cells
    spec = TwoPhaseInclusion(eps=1.0, beta=7.0, rho=0.5)
    f = rasterize(spec, make_grid(2, (16, 16)))
    assert (f.a == 7.0).mean() == 0.25
    assert set(np.unique(f.a)) == {1.0, 7.0}


def test_disc_inclusion_fraction_approx():
    spec = TwoPhaseInclusion(eps=1.0, beta=3.0, rho=0.5, shape="disc")
    f = rasterize(spec, make_grid(2, (128, 128)))
    # disc of radius pi*rho in the (2 pi)^2 cell
    expect = math.pi * (math.pi * 0.5) ** 2 / (2 * math.pi) ** 2
    assert abs((f.a == 3.0).mean() - expect) < 3e-3


def test_rasterize_divisibility_error():
    spec = TwoPhaseInclusion(eps=1 / 3, beta=2.0, rho=0.5)
    with pytest.raises(ValueError, match="divisible"):
        rasterize(spec, make_grid(2, (16, 16)))


def test_rasterize_resolution_error():
    spec = TwoPhaseInclusion(eps=1 / 4, beta=2.0, rho=0.1)
    with pytest.raises(ValueError, match="need n >="):
        rasterize(spec, make_grid(2, (16, 16)))


def test_tiling_reproduces_unit_pattern():
    spec = TwoPhaseInclusion(eps=1 / 4, beta=9.0, rho=0.5)
    unit = rasterize(replace(spec, eps=1.0), make_grid(2, (8, 8)))
    full = rasterize(spec, make_grid(2, (32, 32)))
    tiled = np.tile(unit.a.reshape(8, 8), (4, 4))
    assert_allclose(full.a.reshape(32, 32), tiled)
    assert full.inv_eps == 4
    assert unit.inv_eps == 1


def test_excess_mass_stays_bounded():
    # in the rho = eps, beta = eps^-2 family the inclusion fraction eps^2
    # balances the contrast: mean(a - 1) = eps^2 (eps^-2 - 1) = 1 - eps^2
    for eps in (1 / 2, 1 / 4, 1 / 8):
        inv = round(1 / eps)
        spec = TwoPhaseInclusion(eps=eps, beta=inv**2, rho=eps)
        m = 8 * inv * inv  # 8 cells across the eps^2-sized inclusions
        f = rasterize(spec, make_grid(2, (m, m)))
        assert_allclose(f.a.mean() - 1.0, 1.0 - eps**2, rtol=1e-12)


def test_fiber_section_and_extrusion():
    spec = FiberLattice(eps=1.0, r_eps=1.0, beta=5.0)
    sec = rasterize(spec, make_grid(2, (32, 32)))
    expect = math.pi * 1.0**2 / (2 * math.pi) ** 2
    assert abs((sec.a == 5.0).mean() - expect) < 5e-3
    vol = rasterize(spec, make_grid(3, (32, 32, 4)))
    slices = vol.a.reshape(32, 32, 4)
    # fibers run along the last axis: every slice equals the section
    for k in range(4):
        assert_allclose(slices[:, :, k], sec.a.reshape(32, 32))


def test_fiber_needs_two_axes():
    spec = FiberLattice(eps=1.0, r_eps=1.0, beta=5.0)
    with pytest.raises(ValueError):
        rasterize(spec, make_grid(1, (32,)))


def test_radius_for_gamma_closed_forms():
    # exponent -1/(2 pi eps^2 gamma)
    assert_allclose(radius_for_gamma(1.0, 1.0 / (2 * math.pi)), math.exp(-1.0))
    assert_allclose(radius_for_gamma(1 / 3, 2.0), math.exp(-9.0 / (4 * math.pi)))
    assert_allclose(radius_for_gamma(1 / 3, 2.0), 0.4886067799803316, rtol=1e-12)
    assert_allclose(radius_for_gamma(1 / 6, 2.0), 0.05699515722886258, rtol=1e-12)
    # the defining identity: 1/(2 pi eps^2 |ln r|) = gamma
    for eps, gamma in [(1 / 3, 2.0), (1 / 5, 0.7)]:
        r = radius_for_gamma(eps, gamma)
        assert_allclose(1.0 / (2 * math.pi * eps**2 * abs(math.log(r))), gamma)


def test_radius_for_gamma_rejects():
    with pytest.raises(ValueError):
        radius_for_gamma(1 / 3, -1.0)
    with pytest.raises(ValueError):
        radius_for_gamma(0.0, 1.0)


def test_coefficient_field_validation():
    g = make_grid(2, (4, 4))
    with pytest.raises(ValueError):
        CoefficientField(grid=g, a=np.zeros(16))  # not positive
    with pytest.raises(ValueError):
        CoefficientField(grid=g, a=np.ones(15))
    with pytest.raises(ValueError, match="incompatible"):
        CoefficientField(grid=g, a=np.ones((16, 2)))  # one value per cell


def test_from_file_roundtrip(tmp_path):
    g = make_grid(2, (4, 4))
    rng = np.random.default_rng(3)
    vals = np.exp(rng.standard_normal(16))
    path = tmp_path / "field.blf"
    write_field_dump(path, vals, g.n)
    f = rasterize(FromFile(str(path)), g)
    assert_allclose(f.a, vals)
    with pytest.raises(ValueError, match="does not match"):
        rasterize(FromFile(str(path)), make_grid(2, (8, 8)))


def test_from_file_rejects_nonpositive(tmp_path):
    path = tmp_path / "bad.blf"
    vals = np.ones(16)
    vals[3] = -1.0
    write_field_dump(path, vals, (4, 4))
    with pytest.raises(ValueError, match="positive"):
        rasterize(FromFile(str(path)), make_grid(2, (4, 4)))
