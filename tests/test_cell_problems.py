"""Cell-problem solves: correctors, effective tensors, dispersive
coefficients, and the weighted Poincare constant.

The 1-d oracles are exact.  For the half-half two-phase laminate the first
corrector is a triangular wave with slopes +-f, f = q/a1 - 1, and the
second-corrector identity a chi2' = -a chi1 collapses the quartic
coefficient to the closed form

    D = -q^2 <chi1^2 / a> = -q f^2 L^2 / 48.
"""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blochlab import sparse_linalg
from blochlab.bloch import face_gram, shifted_pencil
from blochlab.cell_problems import dispersion, homogenized, pw_constant
from blochlab.experiments import fiber_beta
from blochlab.grid import make_grid
from blochlab.microstructure import (
    CoefficientField,
    Constant,
    FiberLattice,
    TwoPhaseInclusion,
    radius_for_gamma,
    rasterize,
)
from blochlab.plan import plan_sweep
from blochlab.sparse_linalg import ConvergenceError, largest_geneig

from closed_forms import half_half_1d
from jacobi_oracle import dense_oracle


def laminate_2d(n, a1=1.0, a2=4.0):
    g = make_grid(2, (n, n))
    stripe = np.where(np.arange(n) < n // 2, a1, a2).astype(float)
    vals = np.repeat(stripe, n)  # varies along axis 0 only
    return CoefficientField(grid=g, a=vals)


def test_corrector_constant_is_zero():
    f = rasterize(Constant(3.0), make_grid(2, (8, 8)))
    X = homogenized(f).correctors
    assert_allclose(X[:, 0], 0.0, atol=1e-13)


def test_corrector_along_layers_is_zero():
    f = laminate_2d(8)
    X = homogenized(f).correctors
    assert_allclose(X[:, 1], 0.0, atol=1e-12)


def test_momentum_shape_validation():
    f = half_half_1d(8)
    with pytest.raises(ValueError, match="eta"):
        dispersion(f, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="lam"):
        pw_constant(f, np.array([1.0, 0.0]))


def test_harmonic_mean_1d():
    hom = homogenized(half_half_1d(16))
    assert_allclose(hom.q[0, 0], 1.6, atol=1e-12)
    assert hom.defect <= 1e-12
    assert_allclose(hom.voigt[0, 0], 2.5, atol=1e-13)


def test_laminate_2d_tensor():
    hom = homogenized(laminate_2d(16))
    assert_allclose(hom.q, np.diag([1.6, 2.5]), atol=1e-10)


def test_energy_and_flux_forms_agree():
    spec = TwoPhaseInclusion(eps=1.0, beta=7.0, rho=0.5, shape="disc")
    hom = homogenized(rasterize(spec, make_grid(2, (32, 32))))
    assert hom.defect <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_harmonic_and_voigt_bounds(seed):
    rng = np.random.default_rng(seed)
    n = 8
    vals = np.exp(rng.standard_normal(n * n))
    f = CoefficientField(grid=make_grid(2, (n, n)), a=vals)
    hom = homogenized(f)
    harmonic = 1.0 / np.mean(1.0 / vals)
    evals = np.linalg.eigvalsh(hom.q)
    assert evals.min() >= harmonic - 1e-8
    assert evals.max() <= np.mean(vals) + 1e-8
    # symmetry comes out of the energy form
    assert_allclose(hom.q, hom.q.T, atol=1e-13)


def test_chi_corrections_vanish_for_constant():
    f = rasterize(Constant(2.0), make_grid(2, (8, 8)))
    eta = np.array([0.3, 0.1])
    s = dispersion(f, eta)
    assert_allclose(s.chi1, 0.0, atol=1e-13)
    assert_allclose(s.chi2, 0.0, atol=1e-13)


def test_dispersion_constant_is_zero():
    f = rasterize(Constant(1.0), make_grid(2, (8, 8)))
    s = dispersion(f, np.array([0.25, 0.0]))
    assert abs(s.value) <= 1e-12
    assert s.compat <= 1e-10
    assert_allclose(s.q_eta_eta, 0.0625, atol=1e-12)


def test_dispersion_1d_closed_form():
    # half-half {1, 4}: q = 1.6, f = 0.6, L = 2 pi
    # D = -q f^2 L^2 / 48 = -0.048 pi^2
    exact = -0.048 * math.pi**2
    values = {}
    for n in (256, 512):
        s = dispersion(half_half_1d(n), np.array([1.0]))
        values[n] = s.value
        assert_allclose(s.q_eta_eta, 1.6, atol=1e-11)
        assert s.compat <= 1e-10
    assert_allclose(values[512], exact, rtol=5e-4)
    # second-order stencil: halving h shrinks the defect about fourfold
    ratio = abs(values[256] - exact) / abs(values[512] - exact)
    assert ratio > 3.0


def test_dispersion_nonpositive():
    rng = np.random.default_rng(49)
    vals = np.exp(rng.standard_normal(64))
    f = CoefficientField(grid=make_grid(2, (8, 8)), a=vals)
    s = dispersion(f, np.array([0.2, 0.1]))
    assert s.value <= 1e-14


def test_dispersion_axis_symmetry():
    # square inclusion is invariant under swapping the axes
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=5.0, rho=0.5), make_grid(2, (16, 16)))
    a = dispersion(f, np.array([0.25, 0.0]))
    b = dispersion(f, np.array([0.0, 0.25]))
    assert_allclose(a.value, b.value, rtol=1e-9)
    assert_allclose(a.q_eta_eta, b.q_eta_eta, rtol=1e-11)


def test_chi1_tiles_from_unit_cell():
    spec = TwoPhaseInclusion(eps=1 / 4, beta=5.0, rho=0.5)
    unit = rasterize(replace(spec, eps=1.0), make_grid(2, (8, 8)))
    fine = rasterize(spec, make_grid(2, (32, 32)))
    eta = np.array([1.0, 0.0])
    u = dispersion(unit, eta).chi1
    f = dispersion(fine, eta).chi1
    tiled = 0.25 * np.tile(u.reshape(8, 8), (4, 4)).ravel()
    assert np.abs(f - tiled).max() <= 1e-12


# ---------------------------------------------------------------------------
# weighted Poincare constant


def test_pw_identity_medium_1d():
    n = 16
    f = rasterize(Constant(1.0), make_grid(1, n))
    h = 2 * math.pi / n
    expect = h**2 / (4 * math.sin(h / 2) ** 2)
    got = pw_constant(f, np.array([1.0]))
    assert_allclose(got, expect, rtol=1e-8)


def test_pw_quadratic_in_lam():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=3.0, rho=0.5), make_grid(2, (8, 8)))
    lam = np.array([0.2, 0.1])
    c1 = pw_constant(f, lam)
    c2 = pw_constant(f, 2 * lam)
    assert_allclose(c2, 4 * c1, rtol=1e-7)


def test_pw_scale_invariant_in_a():
    g = make_grid(2, (8, 8))
    rng = np.random.default_rng(53)
    vals = np.exp(rng.standard_normal(64))
    f1 = CoefficientField(grid=g, a=vals)
    f2 = CoefficientField(grid=g, a=7.0 * vals)
    lam = np.array([1.0, 0.0])
    assert_allclose(pw_constant(f1, lam),
                    pw_constant(f2, lam), rtol=1e-7)


def test_pw_zero_lam():
    f = rasterize(Constant(1.0), make_grid(2, (4, 4)))
    assert pw_constant(f, np.zeros(2)) == 0.0


def _lognormal_32():
    rng = np.random.default_rng(61)
    return CoefficientField(grid=make_grid(2, (32, 32)), a=np.exp(rng.standard_normal(1024)))


def _readme_two_phase():
    spec = TwoPhaseInclusion(eps=1 / 4, beta=16.0, rho=1 / 4)
    return rasterize(spec, make_grid(2, (128, 128)))


@pytest.mark.parametrize("make_field", [_lognormal_32, _readme_two_phase],
                         ids=["lognormal_32", "readme_128"])
def test_pw_many_faces_keep_the_plain_bound(make_field):
    # F^2 > N on both media: the solves run on the FFT bound, bit for bit
    f = make_field()
    lam = np.array([0.25, 0.0])
    K, _, bound = shifted_pencil(f)
    # the corrected inverse undoes K to 1e-12; the plain bound misses by far
    # more, so the comparison below is with the plain bound
    x = np.random.default_rng(5).standard_normal(f.grid.num_cells)
    x -= x.mean()
    assert np.abs(bound(K @ x) - x).max() > 1e-3 * np.abs(x).max()
    weight = f.grid.cell_volume * (f.a * float(lam @ lam))
    plain = largest_geneig(weight, K, precond=bound, gram=partial(face_gram, f))
    assert pw_constant(f, lam) == plain


def test_pw_corrected_inverse_matches_dense_oracle():
    # a 2x2 inclusion has 12 faces above a_ref; 12^2 <= 12 * 14 cells
    g = make_grid(2, (12, 14))
    a = np.ones(g.n)
    a[5:7, 6:8] = 50.0
    f = CoefficientField(grid=g, a=a.ravel())
    x = np.random.default_rng(67).standard_normal(g.num_cells)
    x -= x.mean()
    # scale 9 is a fiber section's pencil eps^-2 K at eta' = 0, eta3 = 0:
    # the correction's weights carry the scale, so the inverse stays exact
    for scale in (1.0, 9.0):
        B, _, inverse = shifted_pencil(f, np.zeros(2), scale=scale)
        assert np.abs(inverse(B @ x) - x).max() <= 1e-12 * np.abs(x).max()
    K, _, _ = shifted_pencil(f)
    lam = np.array([0.3, 0.1])
    mu = dense_oracle(K, g.cell_volume * f.a * float(lam @ lam))
    assert_allclose(pw_constant(f, lam), 1.0 / mu[1], rtol=1e-9)


def _pw_thm22_coarsest():
    # experiment:pw_thm22's eps = 1/2 rung: one beta = 4 inclusion of
    # side pi on its 16 x 16 unit cell, weight direction (1/4, 0)
    _, _, m, cell = plan_sweep("pw_thm22", [0.5])[0]
    return rasterize(cell, make_grid(2, m)), np.array([0.25, 0.0])


def test_pw_thm22_coarsest_rung_matches_dense_oracle(monkeypatch):
    # the slowest Poincare cell to settle: the inverse power iteration that
    # preceded LOBPCG stopped 9.2e-9 off after 36 solves under the same stop rule
    solves = []
    cg = sparse_linalg.cg_solve

    def counted(*args, **kwargs):
        solves.append(1)
        return cg(*args, **kwargs)

    monkeypatch.setattr(sparse_linalg, "cg_solve", counted)
    f, lam = _pw_thm22_coarsest()
    K, _, _ = shifted_pencil(f)
    mu = dense_oracle(K, f.grid.cell_volume * f.a * float(lam @ lam))
    assert_allclose(pw_constant(f, lam), 1.0 / mu[1], rtol=1e-9)
    assert len(solves) <= 15


def test_pw_out_of_budget_error_carries_each_steps_change(monkeypatch):
    monkeypatch.setattr(sparse_linalg, "_GENEIG_MAXIT", 3)
    f, lam = _pw_thm22_coarsest()
    with pytest.raises(ConvergenceError, match="LOBPCG iteration") as exc:
        pw_constant(f, lam)
    history = exc.value.residual_history
    assert len(history) == 3
    assert all(change > sparse_linalg._GENEIG_TOL for change in history)
    assert exc.value.relative_residual is None and exc.value.error_estimate is None


def _face_quotient(f, weight, x):
    # sum weight (x - c)^2 / sum_k sum w a_f (D_k x)^2 in extended
    # precision, c the weighted mean of x: the exact Poincare quotient of x
    ld = np.longdouble
    g = f.grid
    wt, x, a = weight.astype(ld), x.astype(ld), f.a.astype(ld)
    x = x - (wt @ x) / wt.sum()
    energy = ld(0.0)
    for k in range(g.d):
        def nxt(u):
            return np.roll(u.reshape(g.n), -1, axis=k).ravel()
        a_f = 2 * a * nxt(a) / (a + nxt(a))
        dx = (nxt(x) - x) / ld(g.h[k])
        energy += (ld(g.cell_volume) * a_f) @ (dx * dx)
    return (wt @ (x * x)) / energy


@pytest.mark.parametrize("eps, gamma, bound", [(1 / 5, 2, 1e-12), (1 / 6, 2, 1e-12),
                                               (1 / 7, 3, 1e-11)],
                         ids=["g2_eps5", "g2_eps6", "g3_eps7"])
def test_pw_is_the_exact_quotient_of_its_ritz_vector(monkeypatch, eps, gamma, bound):
    # the constant is a maximum, so the exact quotient of any vector is a
    # lower bound on it; the returned value must be that of its own Ritz
    # vector at fiber contrast (beta 1.7e5 to 3.0e6)
    ritz = sparse_linalg._ritz_max
    last = []

    def captured(basis, *args):
        mu, coef = ritz(basis, *args)
        last[:] = [mu, sum(c * v for c, v in zip(coef, basis))]
        return mu, coef

    monkeypatch.setattr(sparse_linalg, "_ritz_max", captured)
    _, _, m, cell = plan_sweep("pw_fiber", [eps], gamma=gamma)[0]
    f = rasterize(cell, make_grid(2, m))
    lam = np.array([0.25, 0.0])
    got = pw_constant(f, lam)
    assert got == last[0]
    exact = _face_quotient(f, f.grid.cell_volume * f.a * float(lam @ lam), last[1])
    assert abs(got - float(exact)) <= bound * got


def test_pw_fiber_finest_rung_at_default_tolerances(monkeypatch):
    # eps = 1/6 section, beta = 2.4e6: every stiffness solve of the LOBPCG
    # iteration ends in a few CG steps on the corrected inverse
    steps = []
    pcg = sparse_linalg._pcg

    def counted(*args, **kwargs):
        out = pcg(*args, **kwargs)
        steps.append(len(out[1]) - 1)
        return out

    monkeypatch.setattr(sparse_linalg, "_pcg", counted)
    eps = 1 / 6
    r = radius_for_gamma(eps, 2.0)
    f = rasterize(FiberLattice(eps=1.0, r_eps=r, beta=fiber_beta(eps, r)),
                  make_grid(2, (341, 341)))
    got = pw_constant(f, np.array([0.25, 0.0]))
    assert steps and max(steps) <= 3
    # the value published at tol = cg_tol = 1e-7 on the plain FFT bound
    assert_allclose(got, 1.3429807164408329, rtol=1e-8)
