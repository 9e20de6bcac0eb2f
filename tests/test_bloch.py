"""Shifted-pencil eigenvalue routines, checked against the constant-medium
symbol and the exact gauge/conjugation symmetries of the discretization."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blochlab.bloch import (
    assemble_shifted,
    bloch_lambda1,
    bloch_reduced,
    canonical_momentum,
    expansion_fit,
    fiber_lambda1_2d,
    reference_inverse,
)
from blochlab.experiments import fiber_beta
from blochlab.grid import make_grid
from blochlab.microstructure import (
    CoefficientField,
    Constant,
    FiberLattice,
    TwoPhaseInclusion,
    radius_for_gamma,
    rasterize,
    unit_pattern,
)
from blochlab.sparse_linalg import dense_oracle, is_hermitian


def symbol(eta, n, d=None):
    """Discrete constant-medium symbol: sum of 4 sin^2((eta_k) h_k / 2) / h_k^2."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    n = np.broadcast_to(np.asarray(n), eta.shape)
    h = 2.0 * math.pi / n
    return float(np.sum(4.0 * np.sin(eta * h / 2.0) ** 2 / h**2))


def constant_field(d, n, a0=1.0):
    return rasterize(Constant(a0), make_grid(d, n))


def test_canonical_momentum_oracles():
    assert canonical_momentum(0.5) == 0.5
    assert canonical_momentum(-0.5) == 0.5
    assert canonical_momentum(1.5) == 0.5
    assert_allclose(canonical_momentum(0.7), -0.3)
    assert_allclose(canonical_momentum(-2.3), -0.3)
    assert_allclose(canonical_momentum([0.6, -0.6]), [-0.4, 0.4])


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_canonical_momentum_zone_and_shift(x):
    y = float(canonical_momentum(x))
    assert -0.5 < y <= 0.5
    assert abs((x - y) - round(x - y)) < 1e-9


def test_assemble_real_at_zero_momentum():
    f = constant_field(2, (6, 6))
    B, M = assemble_shifted(f, None)
    assert B.dtype == np.float64
    assert_allclose(np.asarray(B.sum(axis=1)).ravel(), 0.0, atol=1e-12)
    assert_allclose(M, f.grid.cell_volume)


def test_assemble_hermitian_at_nonzero_momentum():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=4.0, rho=0.5), make_grid(2, (8, 8)))
    B, _ = assemble_shifted(f, np.array([0.3, -0.2]))
    assert B.dtype == np.complex128
    assert is_hermitian(B)


def test_symbol_eigenvalues_1d():
    # constant medium: B(eta) is diagonalized by plane waves, with
    # eigenvalues 4 sin^2((eta + m) h / 2) / h^2 across integer shifts m
    n = 8
    f = constant_field(1, n)
    eta = 0.3
    B, M = assemble_shifted(f, np.array([eta]))
    vals = dense_oracle(B, M)
    expect = sorted(symbol(eta + m, n) for m in range(n))
    assert_allclose(vals, expect, atol=1e-10)


def test_bloch_lambda1_matches_symbol():
    f = constant_field(2, (16, 16))
    eta = np.array([0.3, 0.2])
    res = bloch_lambda1(f, eta, tol=1e-12)
    assert_allclose(res.lambda1, symbol(eta, (16, 16)), atol=1e-10)
    assert res.residual <= 1e-10


def test_gauge_invariance_exact():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=6.0, rho=0.5), make_grid(2, (8, 8)))
    eta = np.array([0.21, -0.4])
    a = bloch_lambda1(f, eta, tol=1e-12).lambda1
    b = bloch_lambda1(f, eta + np.array([1.0, 0.0]), tol=1e-12).lambda1
    assert abs(a - b) < 1e-12 * max(abs(a), 1.0)


def test_conjugation_symmetry():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=6.0, rho=0.5), make_grid(2, (8, 8)))
    eta = np.array([0.17, 0.33])
    a = bloch_lambda1(f, eta, tol=1e-12).lambda1
    b = bloch_lambda1(f, -eta, tol=1e-12).lambda1
    assert abs(a - b) < 1e-11 * max(abs(a), 1.0)


def test_coefficient_monotonicity():
    # a <= a' pointwise implies lambda_1(a) <= lambda_1(a') at fixed momentum
    g = make_grid(2, (8, 8))
    lo = rasterize(TwoPhaseInclusion(eps=1.0, beta=2.0, rho=0.5), g)
    hi = rasterize(TwoPhaseInclusion(eps=1.0, beta=5.0, rho=0.5), g)
    eta = np.array([0.25, 0.1])
    assert bloch_lambda1(lo, eta, tol=1e-12).lambda1 <= (
        bloch_lambda1(hi, eta, tol=1e-12).lambda1 + 1e-12
    )


def test_eigvector_normalization():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=3.0, rho=0.5), make_grid(2, (8, 8)))
    res = bloch_lambda1(f, np.array([0.2, 0.1]), tol=1e-12)
    w = f.grid.cell_volume
    assert_allclose(w * np.sum(np.abs(res.phi) ** 2), 1.0, rtol=1e-10)


def test_reduced_equals_full_cell():
    spec = TwoPhaseInclusion(eps=1 / 2, beta=4.0, rho=1 / 2)
    unit = rasterize(unit_pattern(spec), make_grid(2, (16, 16)))
    full = rasterize(spec, make_grid(2, (32, 32)))
    eta = np.array([0.2, -0.1])
    lam_red = bloch_reduced(unit, 1 / 2, eta, tol=1e-12).lambda1
    lam_full = bloch_lambda1(full, eta, tol=1e-12).lambda1
    assert_allclose(lam_red, lam_full, rtol=1e-9)


def test_reduced_validation():
    spec = TwoPhaseInclusion(eps=1 / 2, beta=4.0, rho=1 / 2)
    unit = rasterize(unit_pattern(spec), make_grid(2, (8, 8)))
    scaled = rasterize(spec, make_grid(2, (16, 16)))
    with pytest.raises(ValueError, match="unit-pattern"):
        bloch_reduced(scaled, 1 / 2, np.array([0.1, 0.1]))
    with pytest.raises(ValueError, match="first zone"):
        bloch_reduced(unit, 1 / 2, np.array([0.8, 0.0]))
    with pytest.raises(ValueError, match="eps"):
        bloch_reduced(unit, 2.0, np.array([0.1, 0.0]))


def test_fiber_constant_closed_form():
    # constant cross-section: the axis-3 reduction is exact, so the
    # eigenvalue equals the 2-d symbol at eps*eta' rescaled plus eta3^2
    m = 16
    f = constant_field(2, (m, m))
    eps = 1 / 2
    eta_p = np.array([0.2, 0.1])
    eta3 = 0.3
    lam = fiber_lambda1_2d(f, eps, eta_p, eta3, tol=1e-13).lambda1
    expect = symbol(eps * eta_p, (m, m)) / eps**2 + eta3**2
    assert abs(lam - expect) <= 1e-10


def test_fiber_validation():
    f3 = constant_field(3, (4, 4, 4))
    with pytest.raises(ValueError, match="2-dimensional"):
        fiber_lambda1_2d(f3, 1 / 2, np.array([0.1, 0.1]), 0.1)
    f2 = constant_field(2, (8, 8))
    with pytest.raises(ValueError, match="two components"):
        fiber_lambda1_2d(f2, 1 / 2, np.array([0.1, 0.1, 0.1]), 0.1)
    aniso = rasterize(Constant(1.0), make_grid(2, (8, 8)))
    aniso = type(aniso)(grid=aniso.grid, a=np.ones((64, 2)))
    with pytest.raises(ValueError, match="isotropic"):
        fiber_lambda1_2d(aniso, 1 / 2, np.array([0.1, 0.1]), 0.1)


def test_fiber_section_scaling_consistency():
    # at eta3 = 0 the reduction is a plain 2-d reduced solve
    spec = FiberLattice(eps=1 / 2, r_eps=0.8, beta=5.0)
    unit = rasterize(unit_pattern(spec), make_grid(2, (16, 16)))
    eta_p = np.array([0.15, 0.1])
    lam_fiber = fiber_lambda1_2d(unit, 1 / 2, eta_p, 0.0, tol=1e-12).lambda1
    lam_red = bloch_reduced(unit, 1 / 2, eta_p, tol=1e-12).lambda1
    assert_allclose(lam_fiber, lam_red, rtol=1e-10)


def test_expansion_fit_validation():
    f = constant_field(1, 16)
    with pytest.raises(ValueError, match="four t samples"):
        expansion_fit(f, np.array([1.0]), np.array([0.05, 0.1, 0.15]))
    with pytest.raises(ValueError, match=r"\(0, 0.2\]"):
        expansion_fit(f, np.array([1.0]), np.array([0.1, 0.2, 0.3, 0.4]))


def test_expansion_fit_identity_medium():
    # 1-d constant medium: lam(t) = 4 sin^2(t h / 2) / h^2
    #                              = t^2 - h^2 t^4 / 12 + O(t^6)
    n = 256
    f = constant_field(1, n)
    fit = expansion_fit(f, np.array([1.0]), np.linspace(0.05, 0.2, 6), tol=1e-13)
    c2, c4, resid = fit
    h = 2.0 * math.pi / n
    assert_allclose(c2, 1.0, rtol=1e-6)
    assert_allclose(c4, -h**2 / 12.0, rtol=1e-2)
    assert resid < 1e-8


# ---------------------------------------------------------------------------
# reference-medium preconditioner


@pytest.mark.parametrize("d, n", [(1, 8), (2, (6, 10)), (2, (2, 7)), (3, (4, 5, 2))])
def test_reference_inverse_exact_on_constant_medium(d, n):
    f = constant_field(d, n, a0=2.5)
    rng = np.random.default_rng(3)
    N = f.grid.num_cells
    eta = 0.3 * (np.arange(d) + 1) / d
    B, _ = assemble_shifted(f, eta)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    assert np.abs(reference_inverse(f, eta)(B @ x) - x).max() <= 1e-12
    # zero momentum: the constants are the kernel, projected out
    B0, _ = assemble_shifted(f, None)
    x0 = rng.standard_normal(N)
    z = reference_inverse(f)(B0 @ x0)
    assert z.dtype == np.float64
    assert np.abs(z - (x0 - x0.mean())).max() <= 1e-12


def _below_pencil(B, apply, rng, trials=5):
    # P <= B tested through z = P^{-1} x, for which z^H P z = z^H x
    for _ in range(trials):
        x = rng.standard_normal(B.shape[0]) + 1j * rng.standard_normal(B.shape[0])
        z = apply(x)
        pz = np.vdot(z, x).real
        bz = np.vdot(z, B @ z).real
        assert pz <= bz * (1.0 + 1e-12)


def test_reference_inverse_below_fiber_pencil():
    eps, eta_p, eta3 = 1 / 3, np.array([0.2, 0.2]), 0.3
    r = radius_for_gamma(eps, 2.0)
    spec = FiberLattice(eps=1.0, r_eps=r, beta=fiber_beta(eps, r))
    f = rasterize(spec, make_grid(2, (52, 52)))
    B2, _ = assemble_shifted(f, eps * eta_p)
    w = f.grid.cell_volume
    B = B2 / eps**2 + sp.diags(eta3**2 * w * f.a)
    apply = reference_inverse(f, eps * eta_p, scale=1 / eps**2, shift=eta3**2)
    _below_pencil(B.tocsr(), apply, np.random.default_rng(5))


def test_reference_inverse_below_anisotropic_pencil():
    g = make_grid(2, (12, 9))
    rng = np.random.default_rng(7)
    f = CoefficientField(grid=g, a=np.exp(2.0 * rng.standard_normal((g.num_cells, 2))))
    eta = np.array([0.35, -0.15])
    B, _ = assemble_shifted(f, eta)
    _below_pencil(B, reference_inverse(f, eta), rng)


def test_results_carry_solver_meta():
    # the eigensolver's error estimate and inner-CG work reach every result
    tol = 1e-10
    spec = TwoPhaseInclusion(eps=1 / 2, beta=16.0, rho=1 / 2)
    unit = rasterize(unit_pattern(spec), make_grid(2, (16, 16)))
    section = rasterize(FiberLattice(eps=1.0, r_eps=0.8, beta=50.0), make_grid(2, (16, 16)))
    eta = np.array([0.2, -0.1])
    results = [
        bloch_lambda1(rasterize(spec, make_grid(2, (32, 32))), eta, tol=tol),
        bloch_reduced(unit, 1 / 2, eta, tol=tol),
        fiber_lambda1_2d(section, 1 / 2, eta, 0.3, tol=tol),
    ]
    for res in results:
        est = res.meta["error_estimate"]
        assert math.isfinite(est) and est <= tol
        assert res.meta["inner_cg_steps"] > 0


def test_bloch_lambda1_zero_momentum():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=4.0, rho=0.5), make_grid(2, (16, 16)))
    res = bloch_lambda1(f, np.zeros(2), tol=1e-10)
    assert abs(res.lambda1) <= 1e-10


# Shift-invert references (scipy eigsh, sigma=0, tol=1e-13) on the same
# discrete pencils, copied from perfbench/oracle_cache.json: the thm31
# eps = 1/5 rung (main, control, doubled mesh) and the gap_map eps = 1/5
# rows at t = 1/16 and t = 1/64.  At contrast 1.7e5 a residual rule scaled
# by the pencil norm admits errors up to 3.5e-3 on these rows.
FIBER_REFERENCES = [
    (184, (0.2, 0.2), 0.3, 1.6238291282377961),
    (184, (0.2, 0.2), 0.0, 0.08024691750728463),
    (368, (0.2, 0.2), 0.3, 1.624954700122577),
    (184, (0.0125, 0.0125), 0.01875, 0.08602135533074198),
    (184, (0.003125, 0.003125), 0.0046875, 0.005659334970421973),
]


@pytest.mark.parametrize("m, eta_p, eta3, reference", FIBER_REFERENCES)
def test_fiber_lambda1_matches_shift_invert_reference(m, eta_p, eta3, reference):
    eps = 1 / 5
    r = radius_for_gamma(eps, 2.0)
    spec = FiberLattice(eps=1.0, r_eps=r, beta=fiber_beta(eps, r))
    section = rasterize(spec, make_grid(2, (m, m)))
    lam = fiber_lambda1_2d(section, eps, np.array(eta_p), eta3, tol=1e-9).lambda1
    assert abs(lam - reference) <= 1e-6 * reference
