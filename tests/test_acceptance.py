"""Acceptance suite: one test per numbered criterion, at desk scale.

Each test is a single pass/fail line under ``pytest -v``.  Closed-form
oracles and cross-route comparisons carry the load where the underlying
statements are asymptotic; the stated tolerances are the contract.  Runs
are ordered cheap-to-expensive; the whole file stays within a coffee
break on one core.
"""

import math
from dataclasses import replace

import numpy as np
from numpy.testing import assert_allclose

from blochlab.bloch import (
    bloch_reduced,
    fiber_lambda1_2d,
    shifted_pencil,
)
from blochlab.capacity import DEFAULT_R, CapacityProfile, annulus_energy, scaled_energy
from blochlab.cell_problems import dispersion, homogenized
from blochlab.cli import run_and_emit
from blochlab.config import parse_config
from blochlab.experiments import run_gap_map, run_pw, run_thm22, run_thm31
from blochlab.grid import make_grid
from blochlab.microstructure import (
    CoefficientField,
    Constant,
    FiberLattice,
    TwoPhaseInclusion,
    radius_for_gamma,
    rasterize,
)
from blochlab.sparse_linalg import smallest_eigpair

from closed_forms import half_half_1d, lowest_pair, symbol
from jacobi_oracle import dense_oracle


def test_criterion_01_constant_medium_exactness():
    n = 64
    eta = np.array([0.3, 0.2])
    field = rasterize(Constant(1.0), make_grid(2, (n, n)))
    lam = lowest_pair(field, eta, 1e-12).lambda1
    sym = symbol(eta, (n, n))
    assert abs(lam - sym) <= 1e-10, f"solver vs symbol: {abs(lam - sym):.3e}"
    assert abs(sym - 0.13) <= 1e-3, f"symbol vs |eta|^2: {abs(sym - 0.13):.3e}"


def test_criterion_02_homogenization_closed_forms():
    q1 = homogenized(half_half_1d(16)).q[0, 0]
    assert abs(q1 - 1.6) <= 1e-12, f"1d harmonic mean: {abs(q1 - 1.6):.3e}"

    g = make_grid(2, (16, 16))
    stripe = np.where(np.arange(16) < 8, 1.0, 4.0)
    lam_field = CoefficientField(grid=g, a=np.repeat(stripe, 16))
    q2 = homogenized(lam_field).q
    assert np.abs(q2 - np.diag([1.6, 2.5])).max() <= 1e-10, f"laminate: {q2}"


def test_criterion_03_iterative_matches_dense_oracle():
    g = make_grid(2, (8, 8))
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        field = CoefficientField(grid=g, a=np.exp(rng.standard_normal(64)))
        for eta in (None, np.array([0.3, 0.2])):
            B, w, bound = shifted_pencil(field, eta)
            lam_iter = smallest_eigpair(B, w, tol=1e-12, precond=bound).lambda1
            lam_dense = dense_oracle(B, np.full(g.num_cells, w))[0]
            worst = max(worst, abs(lam_iter - lam_dense))
    assert worst <= 1e-8, f"worst oracle gap {worst:.3e}"


def test_criterion_04_expansion_consistency():
    # lam(t) = c2 t^2 + c4 t^4 + O(t^6): regress lam / t^2 linearly on t^2
    field = half_half_1d(256)
    t = np.linspace(0.012, 0.03, 5)
    lam = [lowest_pair(field, np.array([s]), 1e-13).lambda1 for s in t]
    A = np.column_stack([np.ones_like(t), t**2])
    (c2, c4), *_ = np.linalg.lstsq(A, lam / t**2, rcond=None)
    assert abs(c2 - 1.6) / 1.6 <= 1e-4, f"c2 rel err {abs(c2 - 1.6) / 1.6:.3e}"
    d_val = dispersion(field, np.array([1.0])).value
    rel = abs(c4 - d_val) / abs(d_val)
    assert rel <= 1e-2, f"c4 {c4:.6f} vs dispersion {d_val:.6f}: rel {rel:.3e}"
    assert c4 <= 1e-6, f"quartic coefficient not nonpositive: {c4:.3e}"


def test_criterion_05_shrinking_inclusion_trend():
    table = run_thm22()
    gaps = [r["gap"] for r in table.rows]
    disp = [r["dispersion_value"] for r in table.rows]
    lam = [r["lambda1"] for r in table.rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), f"gaps {gaps}"
    assert gaps[-1] <= 0.05 * lam[-1], f"final gap {gaps[-1]:.3e} vs 5% of {lam[-1]:.4f}"
    mags = [abs(v) for v in disp]
    assert all(a > b for a, b in zip(mags, mags[1:])), f"|dispersion| {mags}"


def test_criterion_06_fiber_gap_emerges():
    # two pool workers for speed; the rows do not depend on the pool size
    table = run_thm31(workers=2)
    excess = [r["excess"] for r in table.rows]
    control = [r["control_excess"] for r in table.rows]
    gamma = 2.0
    assert all(a < b for a, b in zip(excess, excess[1:])), f"excess {excess}"
    assert 0.5 * gamma <= excess[-1] <= 1.5 * gamma, f"final excess {excess[-1]:.4f}"
    assert max(control) <= 0.25 * gamma, f"control excesses {control}"
    ratio = excess[-1] / control[-1]
    assert ratio >= 5.0, f"activation ratio {ratio:.1f}"


def test_criterion_07_discontinuity_at_zero_momentum():
    table = run_gap_map(workers=2)
    by_eps = {}
    for row in table.rows:
        by_eps.setdefault(row["eps"], {})[row["t"]] = row["lambda1"]
    for eps, vals in by_eps.items():
        assert vals[1 / 64] <= 0.05 * vals[1.0], (
            f"eps={eps}: lambda1(t=1/64)={vals[1 / 64]:.4e} "
            f"vs t=1 {vals[1.0]:.4f}")
        if eps <= 1 / 4:
            assert vals[1.0] >= 1.0, f"eps={eps}: t=1 floor {vals[1.0]:.4f}"


def test_criterion_08_reduction_cross_checks():
    for eps, m in ((1 / 2, 16), (1 / 4, 16)):
        inv = round(1 / eps)
        spec = TwoPhaseInclusion(eps=eps, beta=float(inv**2), rho=eps)
        unit = rasterize(replace(spec, eps=1.0), make_grid(2, (m, m)))
        full = rasterize(spec, make_grid(2, (m * inv, m * inv)))
        eta = np.array([0.2, -0.1])
        lam_r = bloch_reduced(unit, eps, eta).lambda1
        lam_f = lowest_pair(full, eta, 1e-12).lambda1
        rel = abs(lam_r - lam_f) / lam_f
        assert rel <= 1e-8, f"eps={eps}: reduced vs full rel {rel:.3e}"

    eps = 1 / 3
    r = radius_for_gamma(eps, 2.0)
    spec = FiberLattice(eps=eps, r_eps=r, beta=r**-2 / eps)
    unit = replace(spec, eps=1.0)
    section = rasterize(unit, make_grid(2, (64, 64)))
    volume = rasterize(unit, make_grid(3, (64, 64, 16)))
    lam_2d = fiber_lambda1_2d(section, eps, np.array([0.1, 0.1]), 0.1).lambda1
    lam_3d = bloch_reduced(volume, eps, np.array([0.1, 0.1, 0.1])).lambda1
    assert abs(lam_2d - lam_3d) <= 1e-6, (
        f"fiber 2d {lam_2d:.8f} vs 3d {lam_3d:.8f}")


def test_criterion_09_poincare_constants():
    t22 = run_pw(family="thm22")
    vals = [r["eps2_C"] for r in t22.rows]
    assert all(a > b for a, b in zip(vals, vals[1:])), f"eps^2 C {vals}"

    fib = run_pw(family="fiber")
    ratios = [r["ratio"] for r in fib.rows]
    assert all(0.0 < r <= 10.0 for r in ratios), f"fiber ratios {ratios}"


def test_criterion_10_capacity_identities():
    analytic, discrete = annulus_energy(0.28, DEFAULT_R, make_grid(2, (512, 512)))
    rel = abs(discrete - analytic) / analytic
    assert rel <= 0.02, f"annulus discrete vs analytic rel {rel:.4f}"

    gamma, R = 1.2, 1.2
    devs = []
    for eps in (1 / 3, 1 / 4, 1 / 5, 1 / 6):
        r = radius_for_gamma(eps, gamma)
        val = CapacityProfile(r, R).analytic_energy / ((2.0 * math.pi) ** 2 * eps**2)
        devs.append(abs(val - gamma) / gamma)
    assert all(a > b for a, b in zip(devs, devs[1:])), f"deviations {devs}"
    assert devs[-1] <= 0.10, f"deviation at eps=1/6: {devs[-1]:.4f}"
    # grid evaluation stays inside the same band where the disc is resolved
    r5 = radius_for_gamma(1 / 5, gamma)
    val5 = scaled_energy(1 / 5, r5, R, make_grid(2, (512, 512)))
    assert abs(val5 - gamma) / gamma <= 0.10


def test_criterion_11_structural_invariants(tmp_path):
    g = make_grid(2, (8, 8))
    field = rasterize(TwoPhaseInclusion(eps=1.0, beta=6.0, rho=0.5), g)
    eta = np.array([0.21, -0.4])

    runs = []
    base = lowest_pair(field, eta, 1e-12)
    shifted = lowest_pair(field, eta + np.array([1.0, 0.0]), 1e-12)
    mirrored = lowest_pair(field, -eta, 1e-12)
    runs += [base, shifted, mirrored]
    assert abs(base.lambda1 - shifted.lambda1) <= 1e-12 * max(base.lambda1, 1.0)
    assert abs(base.lambda1 - mirrored.lambda1) <= 1e-11 * max(base.lambda1, 1.0)

    richer = rasterize(TwoPhaseInclusion(eps=1.0, beta=9.0, rho=0.5), g)
    upper = lowest_pair(richer, eta, 1e-12)
    runs.append(upper)
    assert base.lambda1 <= upper.lambda1 + 1e-12

    flat = dispersion(rasterize(Constant(1.0), g), np.array([0.25, 0.0]))
    assert abs(flat.value) <= 1e-12

    for res in runs:
        assert res.residual <= 1e-8, f"residual {res.residual:.3e}"

    text = "command = experiment:thm22\neps = 1/2\nn = 32\n"
    _, pa = run_and_emit(parse_config(text), out_dir=tmp_path / "a")
    _, pb = run_and_emit(parse_config(text), out_dir=tmp_path / "b")
    assert pa[0].read_bytes() == pb[0].read_bytes()
