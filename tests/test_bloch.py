"""Shifted-pencil eigenvalue routines, checked against the constant-medium
symbol and the exact gauge/conjugation symmetries of the discretization."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blochlab.bloch import (
    _fft_bound,
    assemble_shifted,
    bloch_lambda1,
    bloch_reduced,
    canonical_momentum,
    face_gram,
    fiber_lambda1_2d,
    shifted_pencil,
)
from blochlab.cell_problems import pw_constant
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

from closed_forms import lowest_pair, symbol
from jacobi_oracle import dense_oracle


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
    B, w = assemble_shifted(f, None)
    assert B.dtype == np.float64
    assert_allclose(np.asarray(B.sum(axis=1)).ravel(), 0.0, atol=1e-12)
    assert isinstance(w, float) and w == f.grid.cell_volume


def test_assemble_hermitian_at_nonzero_momentum():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=4.0, rho=0.5), make_grid(2, (8, 8)))
    B, _ = assemble_shifted(f, np.array([0.3, -0.2]))
    assert B.dtype == np.complex128
    assert abs(B - B.getH()).max() <= 1e-12 * abs(B).max()


def _coo_stiffness(field, eta):
    """The stiffness through int64 index lists and a COO matrix whose
    duplicate entries (the two faces of a 2-cell axis) sum in ``tocsr``."""
    g = field.grid
    d, h, w, N = g.d, g.h, g.cell_volume, g.num_cells
    eta = np.zeros(d) if eta is None else np.asarray(eta, dtype=float)
    is_complex = bool(np.any(eta != 0.0))
    idx = np.arange(N)
    diag = np.zeros(N)
    rows, cols, vals = [], [], []
    a = field.a
    for k in range(d):
        jdx = np.roll(idx.reshape(g.n), -1, axis=k).ravel()
        coeff = w * (2.0 * a[idx] * a[jdx] / (a[idx] + a[jdx])) / h[k] ** 2
        diag[idx] += coeff
        diag[jdx] += coeff
        off = -coeff * np.exp(1j * eta[k] * h[k]) if is_complex else -coeff
        rows += [idx, jdx]
        cols += [jdx, idx]
        vals += [off, np.conj(off) if is_complex else -coeff]
    rows.append(idx)
    cols.append(idx)
    vals.append(diag.astype(np.complex128) if is_complex else diag)
    coo = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    )
    return coo.tocsr()


@pytest.mark.parametrize("shape", [(16,), (6, 5), (4, 2, 3)], ids=["1d", "2d", "3d"])
def test_face_gram_is_the_stiffness_gram(shape):
    # the face form on low-contrast media, against V^T K V of the assembled
    # zero-momentum stiffness (the 3-d grid has a 2-cell axis)
    rng = np.random.default_rng(71)
    g = make_grid(len(shape), shape)
    f = CoefficientField(grid=g, a=np.exp(0.5 * rng.standard_normal(g.num_cells)))
    V = [rng.standard_normal(g.num_cells) for _ in range(3)]
    K = shifted_pencil(f)[0]
    ref = np.array([[u @ (K @ v) for v in V] for u in V])
    G = face_gram(f, V)
    assert np.array_equal(G, G.T)
    assert np.abs(G - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize(
    "shape", [(2,), (7,), (2, 5), (6, 6), (2, 2), (3, 2, 4), (4, 4, 4)]
)
@pytest.mark.parametrize("two_phase", [False, True])
@pytest.mark.parametrize("momentum", ["zero", "complex", "mixed"])
def test_assemble_matches_coo_bytes(shape, two_phase, momentum):
    # a lognormal field, or a two-phase field at fiber contrast, where
    # neighbors tie and harmonic means span five decades
    g = make_grid(len(shape), shape)
    rng = np.random.default_rng(11)
    if two_phase:
        a = np.where(rng.random(g.num_cells) < 0.5, 1.7e5, 1.0)
    else:
        a = np.exp(rng.standard_normal(g.num_cells))
    f = CoefficientField(grid=g, a=a)
    eta = {
        "zero": None,
        "complex": 0.3 * (np.arange(g.d) + 1) / g.d - 0.05,
        # a zero phase on one axis (the zone edge in 1-d)
        "mixed": np.r_[0.0, np.full(g.d - 1, 0.2)] if g.d > 1 else np.array([0.5]),
    }[momentum]
    B, _ = assemble_shifted(f, eta)
    ref = _coo_stiffness(f, eta)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(B, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_assembly_memory_is_bounded(traced_peak):
    # CSR written directly: the result holds about 6.5 complex N-vectors
    # (5 entries per row, int32 indices; the mass is the scalar w); the
    # traced peak stays within 10 (23.6 through index lists and a COO matrix)
    eps, m = 1 / 4, 90
    r = radius_for_gamma(eps, 2.0)
    spec = FiberLattice(eps=1.0, r_eps=r, beta=fiber_beta(eps, r))
    section = rasterize(spec, make_grid(2, (m, m)))
    peak = traced_peak(assemble_shifted, section, eps * np.array([0.2, 0.2]))
    assert peak <= 10 * m * m * 16


def test_symbol_eigenvalues_1d():
    # constant medium: B(eta) is diagonalized by plane waves, with
    # eigenvalues 4 sin^2((eta + m) h / 2) / h^2 across integer shifts m
    n = 8
    f = constant_field(1, n)
    eta = 0.3
    B, w = assemble_shifted(f, np.array([eta]))
    vals = dense_oracle(B, np.full(n, w))
    expect = sorted(symbol(eta + m, n) for m in range(n))
    assert_allclose(vals, expect, atol=1e-10)


def test_bloch_lambda1_matches_symbol():
    f = constant_field(2, (16, 16))
    eta = np.array([0.3, 0.2])
    res = lowest_pair(f, eta, 1e-12)
    assert_allclose(res.lambda1, symbol(eta, (16, 16)), atol=1e-10)
    assert res.residual <= 1e-10


def test_gauge_invariance_exact():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=6.0, rho=0.5), make_grid(2, (8, 8)))
    eta = np.array([0.21, -0.4])
    a = lowest_pair(f, eta, 1e-12).lambda1
    b = lowest_pair(f, eta + np.array([1.0, 0.0]), 1e-12).lambda1
    assert abs(a - b) < 1e-12 * max(abs(a), 1.0)


def test_conjugation_symmetry():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=6.0, rho=0.5), make_grid(2, (8, 8)))
    eta = np.array([0.17, 0.33])
    a = lowest_pair(f, eta, 1e-12).lambda1
    b = lowest_pair(f, -eta, 1e-12).lambda1
    assert abs(a - b) < 1e-11 * max(abs(a), 1.0)


def test_coefficient_monotonicity():
    # a <= a' pointwise implies lambda_1(a) <= lambda_1(a') at fixed momentum
    g = make_grid(2, (8, 8))
    lo = rasterize(TwoPhaseInclusion(eps=1.0, beta=2.0, rho=0.5), g)
    hi = rasterize(TwoPhaseInclusion(eps=1.0, beta=5.0, rho=0.5), g)
    eta = np.array([0.25, 0.1])
    assert lowest_pair(lo, eta, 1e-12).lambda1 <= (
        lowest_pair(hi, eta, 1e-12).lambda1 + 1e-12
    )


def test_eigvector_normalization():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=3.0, rho=0.5), make_grid(2, (8, 8)))
    res = lowest_pair(f, np.array([0.2, 0.1]), 1e-12)
    w = f.grid.cell_volume
    assert_allclose(w * np.sum(np.abs(res.vector) ** 2), 1.0, rtol=1e-10)


def test_reduced_equals_full_cell():
    spec = TwoPhaseInclusion(eps=1 / 2, beta=4.0, rho=1 / 2)
    unit = rasterize(replace(spec, eps=1.0), make_grid(2, (16, 16)))
    full = rasterize(spec, make_grid(2, (32, 32)))
    eta = np.array([0.2, -0.1])
    lam_red = bloch_reduced(unit, 1 / 2, eta).lambda1
    lam_full = lowest_pair(full, eta, 1e-12).lambda1
    assert_allclose(lam_red, lam_full, rtol=1e-9)


def _reduced_pair(eps):
    unit = rasterize(TwoPhaseInclusion(eps=1.0, beta=16.0, rho=0.5), make_grid(2, (16, 16)))
    eta = np.array([0.2, -0.1])
    return unit, eta, bloch_reduced(unit, eps, eta)


@pytest.mark.parametrize("eps", [1 / 2, 1 / 4, 1 / 8])
def test_reduced_is_the_scaled_unit_pencil(eps):
    # one reduction: the unit pencil scaled by eps^-2, whose report is in
    # the eps-periodic problem's units, residual included.  eps^-2 is a
    # power of two, so the scaling is exact and so is every comparison
    unit, eta, red = _reduced_pair(eps)
    scaled = lowest_pair(unit, eps * eta, 1e-11, scale=eps**-2)
    plain = lowest_pair(unit, eps * eta, 1e-11)
    assert red.lambda1 == scaled.lambda1 == plain.lambda1 / eps**2
    assert red.vector.tobytes() == scaled.vector.tobytes() == plain.vector.tobytes()
    assert red.iterations == scaled.iterations == plain.iterations
    assert red.residual == scaled.residual == plain.residual / eps**2


def test_reduced_matches_the_unit_spectrum_off_powers_of_two():
    # eps^-2 = 9 rounds the scaled pencil's entries: the same eigenvalue to
    # the solve's accuracy, not to the bit
    eps = 1 / 3
    unit, eta, red = _reduced_pair(eps)
    plain = lowest_pair(unit, eps * eta, 1e-11)
    assert_allclose(red.lambda1, plain.lambda1 / eps**2, rtol=1e-10)


def test_reduced_validation():
    spec = TwoPhaseInclusion(eps=1 / 2, beta=4.0, rho=1 / 2)
    unit = rasterize(replace(spec, eps=1.0), make_grid(2, (8, 8)))
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
    lam = fiber_lambda1_2d(f, eps, eta_p, eta3).lambda1
    expect = symbol(eps * eta_p, (m, m)) / eps**2 + eta3**2
    assert abs(lam - expect) <= 1e-10


def test_fiber_validation():
    f3 = constant_field(3, (4, 4, 4))
    with pytest.raises(ValueError, match="2-dimensional"):
        fiber_lambda1_2d(f3, 1 / 2, np.array([0.1, 0.1]), 0.1)
    f2 = constant_field(2, (8, 8))
    with pytest.raises(ValueError, match="two components"):
        fiber_lambda1_2d(f2, 1 / 2, np.array([0.1, 0.1, 0.1]), 0.1)


def test_fiber_section_scaling_consistency():
    # at eta3 = 0 the reduction is a plain 2-d reduced solve
    spec = FiberLattice(eps=1 / 2, r_eps=0.8, beta=5.0)
    unit = rasterize(replace(spec, eps=1.0), make_grid(2, (16, 16)))
    eta_p = np.array([0.15, 0.1])
    lam_fiber = fiber_lambda1_2d(unit, 1 / 2, eta_p, 0.0).lambda1
    lam_red = bloch_reduced(unit, 1 / 2, eta_p).lambda1
    assert_allclose(lam_fiber, lam_red, rtol=1e-10)


# ---------------------------------------------------------------------------
# the pencil builder and its reference-medium bound


@pytest.mark.parametrize("d, n", [(1, 8), (2, (6, 10)), (2, (2, 7)), (3, (4, 5, 2))])
def test_reference_inverse_exact_on_constant_medium(d, n):
    f = constant_field(d, n, a0=2.5)
    rng = np.random.default_rng(3)
    N = f.grid.num_cells
    eta = 0.3 * (np.arange(d) + 1) / d
    B, _, bound = shifted_pencil(f, eta)
    x = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    assert np.abs(bound(B @ x) - x).max() <= 1e-12
    # zero momentum: the constants are the kernel, projected out
    B0, _, bound0 = shifted_pencil(f)
    x0 = rng.standard_normal(N)
    z = bound0(B0 @ x0)
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


FIBER_PENCIL = (1 / 3, 52, np.array([0.2, 0.2]), 0.3)  # eps, m, eta', eta3


def _fiber_section(eps, m):
    r = radius_for_gamma(eps, 2.0)
    return rasterize(FiberLattice(eps=1.0, r_eps=r, beta=fiber_beta(eps, r)),
                     make_grid(2, (m, m)))


def _fiber_pencil():
    eps, m, eta_p, eta3 = FIBER_PENCIL
    f = _fiber_section(eps, m)
    return f, shifted_pencil(f, eps * eta_p, scale=1 / eps**2, shift=eta3**2)


def test_shifted_pencil_below_fiber_pencil():
    # the exact pair fiber_lambda1_2d solves with
    _, (B, _, bound) = _fiber_pencil()
    _below_pencil(B, bound, np.random.default_rng(5))


def test_shifted_pencil_fiber_matches_probe_form():
    # perfbench's kernel probe times (B2 * eps^-2 + diags(eta3^2 w a)); the
    # solver's in-place scale and shift must give that matrix to the bit
    eps, _, eta_p, eta3 = FIBER_PENCIL
    f, (B, mass, _) = _fiber_pencil()
    B2, _ = assemble_shifted(f, eps * eta_p)
    w = f.grid.cell_volume
    probe = (B2 * (1.0 / eps**2) + sp.diags(eta3**2 * w * f.a)).tocsr()
    for attr in ("data", "indices", "indptr"):
        assert getattr(B, attr).tobytes() == getattr(probe, attr).tobytes(), attr
    assert mass == w


def test_shifted_pencil_below_rough_pencil():
    g = make_grid(2, (12, 9))
    rng = np.random.default_rng(7)
    f = CoefficientField(grid=g, a=np.exp(2.0 * rng.standard_normal(g.num_cells)))
    B, _, bound = shifted_pencil(f, np.array([0.35, -0.15]))
    _below_pencil(B, bound, rng)


def test_periodic_stiffness_inverse_is_exact_on_fiber_section():
    # eps = 1/5 section: 120 faces above a_ref on 184^2 cells, so the
    # capacitance correction applies and the inverse is K's own
    f = _fiber_section(1 / 5, 184)
    K, _, inverse = shifted_pencil(f)
    rng = np.random.default_rng(19)
    x = rng.standard_normal(K.shape[0])
    x -= x.mean()
    assert np.linalg.norm(inverse(K @ x) - x) <= 1e-8 * np.linalg.norm(x)
    X = rng.standard_normal((K.shape[0], 3))
    columns = np.column_stack([inverse(X[:, j].copy()) for j in range(3)])
    assert_allclose(inverse(X), columns, rtol=0, atol=1e-13 * np.abs(columns).max())


def test_zero_momentum_fiber_solve_takes_the_exact_inverse():
    # the same section at eta = 0: the pencil is K, so the inner CG runs on
    # its exact inverse (27 steps on the plain bound)
    res = lowest_pair(_fiber_section(1 / 5, 184), np.zeros(2), 1e-9)
    assert res.meta["inner_cg_steps"] <= 5
    assert abs(res.lambda1) <= 1e-10


@pytest.mark.parametrize("shape", [(8,), (2,), (6, 5), (4, 2), (2, 6), (4, 3, 5), (3, 2, 4)])
@pytest.mark.parametrize("momentum", [0.0, 0.3])
def test_fft_bound_matches_out_of_place_forms(shape, momentum):
    # the in-place transforms against numpy's out-of-place forms, bit for
    # bit, each bound built from the one multiplier it holds: the half
    # spectrum for a real pencil, the full one for a complex pencil; the
    # 3-D grids check the order of the inverse half-spectrum passes
    d = len(shape)
    xi = np.meshgrid(*(2 * np.pi * np.fft.fftfreq(n) + momentum for n in shape),
                     indexing="ij")
    sigma = sum(4 * np.sin(x / 2) ** 2 for x in xi)
    inv_sigma = np.where(sigma == 0.0, 0.0, 1.0 / np.where(sigma == 0.0, 1.0, sigma))
    real = momentum == 0.0
    if real:
        inv_sigma = inv_sigma[..., : shape[-1] // 2 + 1].copy()
    bound = _fft_bound(inv_sigma, shape, real)
    axes = tuple(range(d))
    N = math.prod(shape)
    rng = np.random.default_rng(29)
    complex_data = rng.standard_normal(N) + 1j * rng.standard_normal(N)
    if real:  # a real pencil's bound takes real data only
        with pytest.raises(TypeError):
            bound(complex_data)
    for r in (rng.standard_normal(N), rng.standard_normal((N, 3)),
              *(() if real else (complex_data,))):
        v = r.reshape(shape + r.shape[1:])
        spectrum = (np.fft.rfftn if real else np.fft.fftn)(v, axes=axes)
        spectrum *= inv_sigma.reshape(inv_sigma.shape + (1,) * (r.ndim - 1))
        ref = (np.fft.irfftn(spectrum, s=shape, axes=axes) if real
               else np.fft.ifftn(spectrum, axes=axes))
        z = bound(r)
        assert z.shape == r.shape and z.dtype == ref.dtype
        assert z.tobytes() == ref.tobytes()
        # into out=: a fresh array, and the input itself where the dtypes agree
        out = np.empty(r.shape, dtype=ref.dtype)
        assert np.shares_memory(bound(r, out=out), out)
        assert out.tobytes() == ref.tobytes()
        if ref.dtype == r.dtype:
            s = r.copy()
            bound(s, out=s)
            assert s.tobytes() == ref.tobytes()


def _plain_fft_bound(field, r):
    # P^+ r for the reference medium a_ref = min a at zero momentum, written
    # out from its symbol, independent of the library's transforms
    g = field.grid
    xi = np.meshgrid(*(2 * np.pi * np.fft.fftfreq(n) for n in g.n), indexing="ij")
    sigma = sum(4 * np.sin(x / 2) ** 2 / h**2 for x, h in zip(xi, g.h))
    sigma *= g.cell_volume * field.a.min()
    sigma[(0,) * g.d] = np.inf
    return np.fft.ifftn(np.fft.fftn(r.reshape(g.n)) / sigma).real.ravel()


@pytest.mark.parametrize("make_field", [
    lambda: _fiber_section(1 / 3, 52),
    lambda: rasterize(TwoPhaseInclusion(eps=1.0, beta=4.0, rho=0.5), make_grid(2, (32, 32))),
], ids=["fiber_third_52", "two_phase_32"])
def test_zero_momentum_many_faces_keep_the_plain_bound(make_field):
    # F^2 > N: the inverse bloch_lambda1 takes at eta = 0 is the FFT bound
    f = make_field()
    _, _, inverse = shifted_pencil(f, np.zeros(2))
    r = np.random.default_rng(23).standard_normal(f.grid.num_cells)
    ref = _plain_fft_bound(f, r)
    assert_allclose(inverse(r), ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def _closure(fn):
    return dict(zip(fn.__code__.co_freevars, (c.cell_contents for c in fn.__closure__)))


def _held_arrays(fn):
    # every array an inverse keeps alive through its closures, the bases
    # of views included
    for value in _closure(fn).values():
        if callable(value) and getattr(value, "__closure__", None):
            yield from _held_arrays(value)
        while isinstance(value, np.ndarray):
            yield value
            value = value.base


@pytest.mark.parametrize("field, eta, shift", [
    (lambda: _fiber_section(1 / 5, 184), None, 0.0),  # the corrected inverse
    (lambda: _fiber_section(1 / 3, 52), np.zeros(2), 0.0),
    (lambda: constant_field(2, (12, 9)), None, 0.5),
    (lambda: constant_field(3, (4, 6, 2)), None, 0.0),
], ids=["corrected_184", "plain_52", "shifted_12x9", "two_cell_axis"])
def test_real_pencil_bound_holds_only_the_half_spectrum(field, eta, shift):
    # a real pencil's inverse keeps one multiplier, on rfftn's half spectrum
    # n[:-1] + (n[-1] // 2 + 1,), and no array of the grid's full size
    f = field()
    n = f.grid.n
    B, _, inverse = shifted_pencil(f, eta, shift=shift)
    assert not np.iscomplexobj(B.data)
    bound = _closure(inverse).get("bound", inverse)
    assert _closure(bound)["inv_sigma"].shape == n[:-1] + (n[-1] // 2 + 1,)
    if n[-1] > 2:  # two cells: the half spectrum is the full one
        held = [a.shape for a in _held_arrays(inverse)]
        assert all(math.prod(s) < f.grid.num_cells for s in held), held


def test_results_carry_solver_meta():
    # the eigensolver's error estimate and inner-CG work reach every result
    tol = 1e-10
    spec = TwoPhaseInclusion(eps=1 / 2, beta=16.0, rho=1 / 2)
    unit = rasterize(replace(spec, eps=1.0), make_grid(2, (16, 16)))
    section = rasterize(FiberLattice(eps=1.0, r_eps=0.8, beta=50.0), make_grid(2, (16, 16)))
    eta = np.array([0.2, -0.1])
    results = [
        bloch_lambda1(rasterize(spec, make_grid(2, (32, 32))), eta),
        bloch_reduced(unit, 1 / 2, eta),
        fiber_lambda1_2d(section, 1 / 2, eta, 0.3),
    ]
    for res in results:
        est = res.meta["error_estimate"]
        assert math.isfinite(est) and est <= tol
        assert res.meta["inner_cg_steps"] > 0


def test_fiber_solve_working_set(traced_peak):
    # the block eigensolver keeps a few length-N blocks alive, not dozens of
    # vectors: traced peak of a warm solve, assembly included, in complex
    # N-vectors.  It reads about 25.1 (the mass is the scalar w, not a
    # length-N diagonal), so one stray N-vector fails the bound
    eps, m = 1 / 4, 90
    r = radius_for_gamma(eps, 2.0)
    spec = FiberLattice(eps=1.0, r_eps=r, beta=fiber_beta(eps, r))
    section = rasterize(spec, make_grid(2, (m, m)))
    args = (section, eps, np.array([0.2, 0.2]), 0.3)
    fiber_lambda1_2d(*args)  # warm: first-call allocations are not the solve's
    peak = traced_peak(fiber_lambda1_2d, *args)
    assert peak <= 25.4 * m * m * 16, f"{peak / (m * m * 16):.2f} complex N-vectors"


@pytest.mark.parametrize("eps, m", [(1 / 4, 90), (1 / 6, 341)], ids=["eps4_m90", "eps6_m341"])
def test_pw_constant_working_set(traced_peak, eps, m):
    # the LOBPCG iteration and its CG solves keep only the vectors they read
    # again: traced peak of a warm call in real N-vectors, about 17.7 on both
    # sections, so half an N-vector more fails the bound.  A full-spectrum
    # multiplier held by the zero-momentum bound made it 18.2; a CG work
    # buffer and a second spectrum buffer in each apply of the bound made it
    # 22 at m=90; at m=341, CG's copy of its first direction and a fresh
    # output for the corrected inverse's second apply made it 20.1
    section = _fiber_section(eps, m)
    eta = np.array([0.25, 0.0])
    pw_constant(section, eta)  # warm: first-call allocations are not the solve's
    peak = traced_peak(pw_constant, section, eta)
    assert peak <= 18.0 * m * m * 8, f"{peak / (m * m * 8):.2f} real N-vectors"


def test_bloch_lambda1_zero_momentum():
    f = rasterize(TwoPhaseInclusion(eps=1.0, beta=4.0, rho=0.5), make_grid(2, (16, 16)))
    res = bloch_lambda1(f, np.zeros(2))
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
    lam = fiber_lambda1_2d(section, eps, np.array(eta_p), eta3).lambda1
    assert abs(lam - reference) <= 1e-6 * reference
