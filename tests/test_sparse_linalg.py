import ast
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from blochlab.bloch import shifted_pencil
from blochlab.grid import make_grid
from blochlab.microstructure import CoefficientField
from blochlab.sparse_linalg import (
    _RESTART_EVERY,
    ConvergenceError,
    _adjoint_product,
    _pencil_scale,
    _svqb,
    cg_solve,
    largest_geneig,
    smallest_eigpair,
)

import jacobi_oracle
from jacobi_oracle import dense_oracle


def periodic_laplacian(n, h=1.0):
    main = np.full(n, 2.0)
    off = np.full(n - 1, -1.0)
    A = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    A[0, -1] = -1.0
    A[-1, 0] = -1.0
    return (A / h**2).tocsr()


def random_spd(n, seed):
    rng = np.random.default_rng(seed)
    Q = rng.standard_normal((n, n))
    A = Q @ Q.T + n * np.eye(n)
    return sp.csr_matrix(A)


# Every solver takes a bound P^{-1} with P <= A.  For Q Q^T + n I and for a
# diagonal matrix, P = c I with c at most the smallest eigenvalue; for a
# periodic Laplacian, P = lam2 I on the mean-free vectors, lam2 its smallest
# nonzero eigenvalue; a ring of conductances d lies above min(d) times it.


def scalar_bound(c):
    return lambda r: r / c


def mean_free_bound(lam2):
    return lambda r: (r - r.mean(axis=0)) / lam2


def laplacian_lam2(n):
    return 4.0 * math.sin(math.pi / n) ** 2


def ring_stiffness(d):
    # the periodic stiffness of a ring of conductances d_i between cells i
    # and i + 1: a 1-D cell problem of the random medium d
    n = len(d)
    A = sp.lil_matrix((n, n))
    for i in range(n):
        j = (i + 1) % n
        A[i, i] += d[i]
        A[j, j] += d[i]
        A[i, j] -= d[i]
        A[j, i] -= d[i]
    return A.tocsr()


def ring_gram(d):
    # the face form of ring_stiffness(d): G[i, j] = sum_f d_f (D v_i)_f (D v_j)_f
    def gram(basis):
        D = np.array([np.roll(v, -1) - v for v in basis])
        return D @ (d * D).T
    return gram


def random_ring(n, seed):
    """A ring of lognormal conductances, its bound and a mean-free
    right-hand side."""
    rng = np.random.default_rng(seed)
    d = np.exp(rng.standard_normal(n))
    b = rng.standard_normal(n)
    return ring_stiffness(d), mean_free_bound(d.min() * laplacian_lam2(n)), b - b.mean()


def mean_free_solve(K, b):
    # the dense solution on the mean-free space: the pseudo-inverse's
    return np.linalg.pinv(K.toarray()) @ b


def test_cg_matches_direct_solve():
    K, bound, b = random_ring(20, seed=1)
    x = cg_solve(K, b, tol=1e-13, precond=bound)
    assert_allclose(x, mean_free_solve(K, b), rtol=1e-10, atol=1e-12)


def test_cg_complex_hermitian():
    K, bound, b = random_ring(12, seed=5)
    K = K.astype(np.complex128)  # a complex pencil: a real one takes real data only
    b = b + 1j * random_ring(12, seed=6)[2]
    x = cg_solve(K, b, tol=1e-13, precond=bound)
    assert_allclose(K @ x, b, atol=1e-9)


@pytest.mark.parametrize("rhs, x0", [(1j, None), (1.0, 1j)], ids=["b", "x0"])
def test_cg_refuses_complex_data_on_a_real_matrix(rhs, x0):
    # a real pencil's FFT bound applies real data only: the solve refuses a
    # complex right-hand side or warm start at its entry, by name
    K, bound, b = random_ring(12, seed=5)
    start = None if x0 is None else x0 * np.ones(12) / 12
    with pytest.raises(ValueError, match="a real matrix takes a real right-hand side"):
        cg_solve(K, rhs * b, tol=1e-12, x0=start, precond=bound)


def test_cg_deflated_laplacian():
    A = periodic_laplacian(16)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(16)
    b -= b.mean()
    x = cg_solve(A, b, tol=1e-12, precond=mean_free_bound(laplacian_lam2(16)))
    assert abs(x.mean()) < 1e-12
    r = b - A @ x
    assert np.linalg.norm(r - r.mean()) < 1e-10


def test_cg_incompatible_rhs():
    A = periodic_laplacian(8)
    with pytest.raises(ValueError, match="incompatible right-hand side"):
        cg_solve(A, np.ones(8), precond=mean_free_bound(laplacian_lam2(8)))


def test_cg_budget_error_has_history():
    K, bound, b = random_ring(30, seed=7)
    with pytest.raises(ConvergenceError) as exc:
        cg_solve(K, b, tol=0.0, precond=bound)  # tol 0 runs out the budget
    assert len(exc.value.residual_history) > 0
    assert all(r >= 0 for r in exc.value.residual_history)


def test_cg_takes_a_preconditioner_that_returns_its_argument():
    # the first direction is a copy when the preconditioner hands back r
    # itself, so the iterates match those of a fresh array bit for bit
    K, _, b = random_ring(20, seed=13)
    x = cg_solve(K, b, tol=1e-12, precond=lambda r: r)
    assert x.tobytes() == cg_solve(K, b, tol=1e-12, precond=lambda r: r / 1.0).tobytes()


def test_pencil_scale_matches_scipy_row_sums():
    # the reduction of abs(B).sum(axis=1), bit for bit; an empty row reads 0
    f = CoefficientField(grid=make_grid(2, (6, 5)), a=np.random.default_rng(17).lognormal(size=30))
    B, _, _ = shifted_pencil(f, np.array([0.2, -0.1]))
    for A in (B, sp.csr_matrix(np.diag([0.0, 2.0, 0.0, -3.0]))):
        ref = float((np.asarray(abs(A).sum(axis=1)).ravel() / 0.7).max())
        assert _pencil_scale(A, 0.7) == ref
    assert _pencil_scale(sp.csr_matrix((3, 3)), 1.0) == 0.0


def test_cg_warm_start_exact():
    K, bound, b = random_ring(10, seed=11)
    x = mean_free_solve(K, b)
    out = cg_solve(K, b, tol=1e-12, x0=x, precond=bound)
    assert_allclose(out, x, rtol=1e-12)


def test_cg_real_warm_start_of_a_complex_solve():
    # the solve runs in the result type of A, b and x0: a real zero warm
    # start of a complex right-hand side is the cold solve, bit for bit
    K, bound, b = random_ring(20, seed=1)
    K = K.astype(np.complex128)
    b = b + 1j * random_ring(20, seed=2)[2]
    cold = cg_solve(K, b, tol=1e-12, precond=bound)
    warm = cg_solve(K, b, tol=1e-12, x0=np.zeros(20), precond=bound)
    assert warm.dtype == np.complex128 and warm.tobytes() == cold.tobytes()


def out_of_place_pcg(A, b, precond, tol, x0=None):
    """Deflated PCG written out of place, step for step as cg_solve's loop
    runs it; returns the iterate and its step count."""
    def project(v):
        return v - v.mean()

    r = project(b.copy())
    bnorm = np.linalg.norm(r)
    x = np.zeros_like(b) if x0 is None else project(x0.copy())
    if x0 is not None:
        r = project(b - A @ x)
    z = precond(r)
    p = z.copy()
    rz = np.vdot(r, z).real
    for it in range(1, 10 * len(b)):
        Ap = project(A @ p)
        alpha = rz / np.vdot(p, Ap).real
        x = x + alpha * p
        r = b - A @ x if it % _RESTART_EVERY == 0 else r - alpha * Ap
        r = project(r)
        if np.linalg.norm(r) / bnorm <= tol:
            return project(x), it
        z = precond(r)
        rz_new = np.vdot(r, z).real
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise AssertionError("reference PCG did not converge")


@pytest.mark.parametrize("complex_rhs", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_cg_in_place_updates_bitwise(complex_rhs, warm):
    # a weak preconditioner (a scaled identity on the mean-free vectors)
    # takes the solve past several true-residual restarts
    n = 200
    rng = np.random.default_rng(13)
    d = np.exp(rng.standard_normal(n))
    K, precond = ring_stiffness(d), mean_free_bound(4.0 * d.max())
    b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if complex_rhs else 0.0)
    b -= b.mean()
    K = K.astype(b.dtype)  # a real matrix takes real data only
    x0 = rng.standard_normal(n).astype(b.dtype) if warm else None
    ref, steps = out_of_place_pcg(K, b, precond, 1e-12, x0)
    assert steps > 2 * _RESTART_EVERY
    x = cg_solve(K, b, tol=1e-12, x0=x0, precond=precond)
    assert x.dtype == ref.dtype and x.tobytes() == ref.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6))
def test_cg_random_spd_property(n, seed):
    K, bound, b = random_ring(n, seed=seed)
    x = cg_solve(K, b, tol=1e-12, precond=bound)
    assert np.linalg.norm(K @ x - b) <= 1e-8 * max(np.linalg.norm(b), 1.0)


# ---------------------------------------------------------------------------
# eigenvalue solves


def test_smallest_eigpair_diagonal():
    B = sp.diags([3.0, 1.0, 2.0]).tocsr()
    rep = smallest_eigpair(B, 1.0, tol=1e-12, precond=scalar_bound(1.0))
    assert_allclose(rep.lambda1, 1.0, atol=1e-10)
    # M-normalized vector
    assert_allclose(rep.vector @ rep.vector, 1.0, atol=1e-10)


def test_smallest_eigpair_scalar_mass():
    """With ``M = mass I`` every eigenvalue is ``B``'s over ``mass``, and the
    vector is M-normalized: ``mass x.x = 1``."""
    B = sp.diags([0.5, 1.5, 2.0, 4.0]).tocsr()
    rep = smallest_eigpair(B, 2.0, tol=1e-12, precond=scalar_bound(0.5))
    assert_allclose(rep.lambda1, 0.25, atol=1e-10)
    assert_allclose(2.0 * (rep.vector @ rep.vector), 1.0, atol=1e-10)


def test_smallest_eigpair_vs_dense_oracle():
    A = random_spd(24, seed=17)
    mass = 0.7
    rep = smallest_eigpair(A, mass, tol=1e-11, precond=scalar_bound(24))
    assert_allclose(rep.lambda1, dense_oracle(A, np.full(24, mass))[0], rtol=1e-8)


def test_smallest_eigpair_deterministic():
    A = random_spd(16, seed=23)
    r1 = smallest_eigpair(A, 1.0, tol=1e-11, precond=scalar_bound(16))
    r2 = smallest_eigpair(A, 1.0, tol=1e-11, precond=scalar_bound(16))
    assert r1.lambda1 == r2.lambda1
    assert np.array_equal(r1.vector, r2.vector)
    assert r1.iterations == r2.iterations


def test_smallest_eigpair_bad_start_recovers():
    # the built-in constant start column is an exact excited eigenvector
    # (lam = 1), so only the settled second pair keeps the iteration going
    # down to lam_1 = 1/2 along v = (e_0 - e_1) / sqrt(2)
    n = 12
    v = np.zeros(n)
    v[:2] = [1.0, -1.0]
    v /= math.sqrt(2.0)
    B = 10.0 * np.eye(n) - 9.0 * np.ones((n, n)) / n - 9.5 * np.outer(v, v)
    rep = smallest_eigpair(sp.csr_matrix(B), 1.0, tol=1e-12,
                           precond=scalar_bound(0.5))
    assert_allclose(rep.lambda1, 0.5, atol=1e-10)


@pytest.mark.parametrize("d, n", [(1, 2), (1, 3), (1, 9), (2, 2), (2, 3)])
@pytest.mark.parametrize("periodic", [False, True], ids=["bloch", "periodic"])
def test_smallest_eigpair_tiny_pencils(d, n, periodic):
    # N <= 9 cells: the block of 3 columns and its search directions
    # span the whole space, and dependent columns are dropped.  At zero
    # momentum the pencil is singular and the constant start column is
    # already the lowest eigenvector (lam_1 = 0)
    g = make_grid(d, (n,) * d)
    rng = np.random.default_rng(31)
    f = CoefficientField(grid=g, a=np.exp(rng.standard_normal(g.num_cells)))
    B, w, bound = shifted_pencil(f, None if periodic else np.array([0.3, -0.2][:d]))
    rep = smallest_eigpair(B, w, precond=bound)
    spectrum = dense_oracle(B, np.full(g.num_cells, w))
    if periodic:
        assert abs(rep.lambda1) <= 1e-12 * spectrum[1]
        assert_allclose(rep.vector, rep.vector[0], rtol=1e-12)
    else:
        assert_allclose(rep.lambda1, spectrum[0], rtol=1e-12)


@pytest.mark.parametrize("mass", [0.0, -1.0, math.inf, math.nan, 1, np.ones(4)],
                         ids=["zero", "negative", "inf", "nan", "int", "vector"])
def test_smallest_eigpair_validation(mass):
    # the mass is M = mass I: only a positive finite float is taken
    B = sp.eye(4, format="csr")
    with pytest.raises(ValueError, match="positive finite float"):
        smallest_eigpair(B, mass, precond=scalar_bound(1.0))


def test_smallest_eigpair_singular_pencil():
    # graph Laplacian: lambda_1 = 0 with the constant vector
    A = periodic_laplacian(12)
    rep = smallest_eigpair(A, 1.0, tol=1e-10,
                           precond=mean_free_bound(laplacian_lam2(12)))
    assert abs(rep.lambda1) < 1e-10


def test_smallest_eigpair_budget_error_reports_lowest_ritz_pair():
    # tol=1e-18 is out of reach, so all 500 iterations run; the in-loop
    # residual of the lowest Ritz pair stays at 2e-17 to 4e-17, and the
    # error must report that pair, not a column rotated after the last step.
    # The history and the final relative residual share one denominator.
    g = make_grid(1, (16,))
    f = CoefficientField(grid=g, a=np.exp(np.random.default_rng(3).standard_normal(16)))
    B, w, bound = shifted_pencil(f, np.array([0.3]))
    with pytest.raises(ConvergenceError) as exc:
        smallest_eigpair(B, w, tol=1e-18, precond=bound)
    err = exc.value
    assert len(err.residual_history) == 500
    last = err.residual_history[-1]
    assert last / 10 <= err.relative_residual <= 10 * last
    assert err.error_estimate < 1e-20


def test_smallest_eigpair_residual_report():
    # A = Q Q^T + 12 I, so P = 12 I satisfies P <= A
    A = random_spd(12, seed=29)
    rep = smallest_eigpair(A, 1.0, tol=1e-12, precond=scalar_bound(12.0))
    x = rep.vector
    lam = rep.lambda1
    res = A @ x - lam * x
    assert_allclose(rep.residual, np.linalg.norm(res), rtol=1e-6, atol=1e-12)
    est = np.vdot(res, res).real / 12.0 / (abs(lam) * np.vdot(x, x).real)
    assert_allclose(rep.meta["error_estimate"], est, rtol=1e-6, atol=1e-30)
    assert rep.meta["error_estimate"] <= 1e-12
    assert rep.meta["inner_cg_steps"] > 0


@pytest.mark.parametrize("dtype", [np.complex128, np.float64])
def test_adjoint_product_bitwise(dtype):
    # the eigensolver's Gram products conjugate the block in place instead
    # of copying it; product and block must match the plain form bit for bit
    rng = np.random.default_rng(11)
    n, cols = 400, 9
    S = rng.standard_normal((n, cols)).astype(dtype)
    B = sp.random(n, n, density=0.02, random_state=12, format="csr").astype(dtype)
    if dtype == np.complex128:
        S += 1j * rng.standard_normal((n, cols))
        B = B + 1j * sp.random(n, n, density=0.02, random_state=13, format="csr")
        S[0, 0], S[1, 1] = complex(0.0, -0.0), complex(-0.0, 0.0)  # signed zeros
    before = S.copy()
    BS = B @ S
    G = _adjoint_product(S, BS)
    assert G.tobytes() == (before.conj().T @ BS).tobytes()
    assert S.tobytes() == before.tobytes()


def test_svqb_keeps_the_independent_directions():
    # rank 2 in 3 columns: the third is the sum of the first two
    V = np.random.default_rng(5).standard_normal((6, 2))
    V = np.column_stack([V, V.sum(axis=1)])
    G = V.T @ V
    T = _svqb(G)
    assert T.shape == (3, 2)
    assert_allclose(T.T @ G @ T, np.eye(2), atol=1e-12)
    with pytest.raises(ConvergenceError):
        _svqb(np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# dense oracle


def test_dense_oracle_diagonal_sorted():
    vals = dense_oracle(np.diag([3.0, -1.0, 2.0]))
    assert_allclose(vals, [-1.0, 2.0, 3.0], atol=1e-13)


def test_dense_oracle_two_by_two():
    vals = dense_oracle(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert_allclose(vals, [1.0, 3.0], atol=1e-13)


def test_dense_oracle_matches_lapack():
    rng = np.random.default_rng(31)
    Q = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    A = Q + Q.conj().T
    vals = dense_oracle(A)
    assert_allclose(vals, np.linalg.eigvalsh(A), atol=1e-10)
    assert_allclose(vals.sum(), np.trace(A).real, atol=1e-10)


def test_dense_oracle_pencil():
    rng = np.random.default_rng(37)
    Q = rng.standard_normal((10, 10))
    A = Q + Q.T + 10 * np.eye(10)
    m = np.exp(rng.standard_normal(10))
    vals = dense_oracle(A, m)
    s = 1.0 / np.sqrt(m)
    ref = np.linalg.eigvalsh(A * s[:, None] * s[None, :])
    assert_allclose(vals, ref, atol=1e-10)


def test_dense_oracle_rejects():
    with pytest.raises(ValueError, match="not Hermitian"):
        dense_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        dense_oracle(np.ones((2, 3)))
    with pytest.raises(ValueError, match="positive"):
        dense_oracle(np.eye(2), np.array([1.0, 0.0]))


def test_dense_oracle_shares_no_code_with_the_solvers():
    # the oracle checks the eigensolver only while it is independent of it:
    # no blochlab or scipy import, and no LAPACK eigen or SVD routine
    tree = ast.parse(Path(jacobi_oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." if node.level else node.module.split(".")[0])
    assert imported == {"math", "numpy"}
    lapack = {"eig", "eigh", "eigvals", "eigvalsh", "svd"}
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not named & lapack


# ---------------------------------------------------------------------------
# largest generalized eigenvalue on the mean-free subspace


def test_largest_geneig_circulant_oracle():
    # max x*Wx / x*Kx over mean-free x, W = I, K the periodic second
    # difference: the optimum is 1 / (4 sin^2(pi/n)); at n = 12 that is
    # 1 / (2 - sqrt(3)) = 2 + sqrt(3)
    n = 12
    K = periodic_laplacian(n)
    val = largest_geneig(np.ones(n), K, precond=mean_free_bound(laplacian_lam2(n)),
                         gram=ring_gram(np.ones(n)))
    assert_allclose(val, 2.0 + math.sqrt(3.0), rtol=1e-8)


def test_largest_geneig_matches_pencil_route():
    n = 20
    rng = np.random.default_rng(41)
    d = np.exp(rng.standard_normal(n))
    K = ring_stiffness(d)
    w = np.exp(rng.standard_normal(n))
    # the ring of conductances d lies above min(d) times the unit ring
    bound = mean_free_bound(d.min() * laplacian_lam2(n))
    val = largest_geneig(w, K, precond=bound, gram=ring_gram(d))
    mu = dense_oracle(K, w)[1]
    assert_allclose(val, 1.0 / mu, rtol=1e-7)


def test_largest_geneig_stalled_solve_raises():
    # a preconditioner that is not positive stops the first CG solve, so
    # the iteration must raise with the stalled solve's history
    n = 40
    rng = np.random.default_rng(41)
    d = np.exp(2.0 * rng.standard_normal(n))
    w = np.exp(rng.standard_normal(n))
    with pytest.raises(ConvergenceError) as exc:
        largest_geneig(w, ring_stiffness(d), precond=lambda r: -r, gram=ring_gram(d))
    assert len(exc.value.residual_history) > 0
    assert exc.value.relative_residual is None and exc.value.error_estimate is None


def test_largest_geneig_zero_weight():
    K = periodic_laplacian(8)
    assert largest_geneig(np.zeros(8), K, precond=mean_free_bound(laplacian_lam2(8)),
                          gram=ring_gram(np.ones(8))) == 0.0


def test_largest_geneig_negative_weight_rejected():
    K = periodic_laplacian(8)
    with pytest.raises(ValueError, match="nonnegative"):
        largest_geneig(-np.ones(8), K, precond=mean_free_bound(laplacian_lam2(8)),
                       gram=ring_gram(np.ones(8)))
