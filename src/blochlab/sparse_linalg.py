"""Sparse Hermitian solver kernels: the mean-zero solve of a periodic
stiffness by preconditioned conjugate gradients (:func:`cg_solve`), the
block eigensolver for the lowest pair of a pencil whose mass is a scalar
multiple of the identity (:func:`smallest_eigpair`) and a locally optimal
iteration of one vector over stiffness solves, at fixed tolerances, for the
largest generalized eigenvalue (:func:`largest_geneig`).

Matrices are carried as ``scipy.sparse`` CSR (dimension, row-compressed
index/value arrays, real or complex scalar kind).  Deterministic behavior is
part of the contract: every randomized start is drawn from a fixed-seed
generator, and single-threaded runs reproduce bit-identical iterates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

_DEFAULT_SEED = 24389
_MACHEPS = np.finfo(np.float64).eps
#: step budget of the capped inner CG that preconditions the eigensolver
_INNER_CG_STEPS = 40
#: CG recomputes the true residual ``b - A x`` every this many steps
_RESTART_EVERY = 50
#: outer iteration budget of the block eigensolver
_EIG_MAXIT = 500
#: step budget of the iteration in :func:`largest_geneig`, the relative
#: change of its value that ends it, and its CG solves' tolerance
_GENEIG_MAXIT = 300
_GENEIG_TOL = 1e-8
_GENEIG_CG_TOL = 1e-11

#: an approximate inverse ``r -> P^{-1} r`` of a vector or an ``(N, cols)``
#: block; its caller may overwrite the array it returns
Preconditioner = Callable[[np.ndarray], np.ndarray]
#: the stiffness Gram matrix ``G[i, j] = v_i^T K v_j`` of a list of vectors
Gram = Callable[[list[np.ndarray]], np.ndarray]


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the residual history and, from
    :func:`smallest_eigpair`, the final ``relative_residual`` and
    ``error_estimate`` of the lowest pair (``None`` from CG and
    :func:`largest_geneig`)."""

    def __init__(self, message: str, history: list[float] | None = None, *,
                 relative_residual: float | None = None,
                 error_estimate: float | None = None):
        super().__init__(message)
        self.residual_history = list(history) if history is not None else []
        self.relative_residual = relative_residual
        self.error_estimate = error_estimate


@dataclass
class EigSolveReport:
    """The lowest eigenpair of a (generalized) Hermitian pencil."""

    lambda1: float
    vector: np.ndarray           # M-normalized, shape (n,)
    residual: float              # ||B x - lam M x||_2 / ||M x||_2
    iterations: int
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# conjugate gradients


def cg_solve(
    A: sp.spmatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-12,
    x0: np.ndarray | None = None,
    precond: Preconditioner,
) -> np.ndarray:
    """Mean-zero solution of ``A x = b`` for a periodic stiffness ``A``
    (Hermitian positive semidefinite, constants its kernel) by
    preconditioned conjugate gradients; raises :class:`ConvergenceError`
    with the residual history when the solve fails.

    ``b`` must have zero mean.  The constants are projected out of the
    start vector and of every residual; ``precond`` applies an approximate
    inverse of ``A``.  The budget is ``max(1000, 2 N)`` steps.  The solve
    runs in the result type of ``A``, ``b`` and ``x0``, but a real ``A``
    (whose bound applies real data) refuses a complex ``b`` or ``x0``.
    """
    b = np.asarray(b)
    if A.dtype.kind != "c" and (np.iscomplexobj(b) or np.iscomplexobj(x0)):
        raise ValueError("a real matrix takes a real right-hand side and warm start; "
                         "solve the real and imaginary parts apart")
    drift = abs(b.sum()) / max(np.abs(b).sum(), np.finfo(float).tiny)
    if drift > 1e-10:
        raise ValueError(
            "incompatible right-hand side: nonzero mean "
            f"(relative drift {drift:.3e}) under constant deflation"
        )
    x, history, failure = _pcg(
        A, b, precond, tol=tol, maxit=max(1000, 2 * b.shape[0]), deflate=True, x0=x0
    )
    if failure is not None:
        raise ConvergenceError(failure, history)
    return x


def _pcg(
    A: sp.spmatrix,
    b: np.ndarray,
    precond: Preconditioner,
    *,
    tol: float,
    maxit: int,
    deflate: bool,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, list[float], str | None]:
    """The preconditioned CG loop behind :func:`cg_solve` and the
    eigensolver's inner solves; never raises.

    Stops when ``||r|| <= tol * ||b||`` (``b`` with its mean removed under
    ``deflate``), after ``maxit`` steps, or when ``p^H A p`` or
    ``r^H P^{-1} r`` is no longer positive.  The true residual is
    recomputed every ``_RESTART_EVERY`` steps.  Returns the iterate, the
    relative residual history (the start, then one entry per completed
    step) and the reason for failure, ``None`` on success.

    ``x``, ``r`` and ``p`` are updated in place, with no work buffer: the
    buffer of ``A p`` takes ``alpha A p`` for the ``r`` update and then
    ``alpha p`` for the ``x`` update (on a restart step the ``x`` update
    comes first, since ``b - A x`` reads it).  The first direction ``p``
    is the first preconditioned residual's own array, copied only when it
    shares memory with ``r``.  Every update evaluates the same operations
    as its out-of-place form, so the iterates are bit-identical to it.
    """
    def project(v: np.ndarray) -> np.ndarray:
        # in place: v is always an array this loop owns
        if deflate:
            v -= v.mean()
        return v

    # one dtype throughout, so that a real warm start takes a complex
    # solve's dtype; the eigensolver passes strided block columns, and
    # reductions over a contiguous copy round the same whatever the
    # caller's layout
    dtype = np.result_type(A.dtype, b.dtype, *(() if x0 is None else (np.asarray(x0).dtype,)))
    b = np.ascontiguousarray(b, dtype=dtype)
    r = project(b.copy())
    bnorm = float(np.linalg.norm(r))
    if bnorm == 0.0:
        return np.zeros_like(b), [0.0], None
    if x0 is None:
        x = np.zeros_like(b)
    else:
        x = project(np.array(x0, dtype=dtype, copy=True))
        np.subtract(b, A @ x, out=r)
        project(r)
    history = [float(np.linalg.norm(r)) / bnorm]
    if history[-1] <= tol:
        return x, history, None
    z = precond(r)
    p = z.copy() if np.may_share_memory(z, r) else z
    rz = np.vdot(r, z).real
    for it in range(1, maxit + 1):
        Ap = project(A @ p)
        pAp = np.vdot(p, Ap).real
        if pAp <= 0:
            return project(x), history, (
                f"indefinite curvature encountered at iteration {it}"
            )
        alpha = rz / pAp
        if it % _RESTART_EVERY == 0:
            x += np.multiply(alpha, p, out=Ap)
            np.subtract(b, A @ x, out=r)  # restart: discard accumulated roundoff
        else:
            r -= np.multiply(alpha, Ap, out=Ap)
            x += np.multiply(alpha, p, out=Ap)
        project(r)
        del Ap
        history.append(float(np.linalg.norm(r)) / bnorm)
        if history[-1] <= tol:
            return project(x), history, None
        z = precond(r)
        rz_new = np.vdot(r, z).real
        if rz_new <= 0:
            return project(x), history, (
                f"preconditioned residual not positive at iteration {it}"
            )
        np.add(z, np.multiply(rz_new / rz, p, out=p), out=p)
        del z
        rz = rz_new
    return project(x), history, (
        f"CG did not reach tol={tol:.1e} in {maxit} iterations "
        f"(last residual {history[-1]:.3e})"
    )


# ---------------------------------------------------------------------------
# lowest eigenpair: LOBPCG-type block iteration, inner-CG preconditioned


def _adjoint_product(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``V^H W`` without a conjugated copy of ``V``.

    ``V`` (contiguous, sharing no memory with ``W``) is conjugated in
    place for the product and conjugated back; sign flips are exact, so
    ``V`` is restored bit for bit and the product equals
    ``V.conj().T @ W`` bit for bit.
    """
    if not np.iscomplexobj(V):
        return V.T @ W
    np.conjugate(V, out=V)
    try:
        return V.T @ W
    finally:
        np.conjugate(V, out=V)


def _svqb(G: np.ndarray) -> np.ndarray:
    """``T`` with ``T^H G T = I`` for the Gram matrix ``G`` (symmetrized
    first): its eigenvectors over the square roots of their eigenvalues,
    dropping those whose eigenvalue falls below 1e-14 of the largest, the
    near-dependent directions.  Raises :class:`ConvergenceError` when none
    is left."""
    G = (G + G.conj().T) / 2.0
    w, Q = np.linalg.eigh(G)
    keep = w > max(w.max(), 0.0) * 1e-14
    if not np.any(keep):
        raise ConvergenceError("SVQB collapsed: no independent direction")
    return Q[:, keep] / np.sqrt(w[keep])


def _m_orthonormalize(V: np.ndarray, mass: float) -> np.ndarray:
    """SVQB-style M-orthonormalization, dropping near-dependent columns."""
    return V @ _svqb(_adjoint_product(V, mass * V))


def _project_out(V: np.ndarray, W: np.ndarray, mass: float) -> np.ndarray:
    """Remove the M-orthogonal projection of W onto orthonormal V."""
    return W - V @ _adjoint_product(V, mass * W)


def _pencil_scale(B: sp.spmatrix, mass: float) -> float:
    # infinity-norm bound on M^{-1/2} B M^{-1/2}; cheap and rigorous.  The
    # row sums of |B| reduce over the non-empty rows as scipy's
    # abs(B).sum(axis=1) does, with no copy of the pencil's index arrays
    rows = np.flatnonzero(np.diff(B.indptr))
    row_sums = np.zeros(B.shape[0])
    row_sums[rows] = np.add.reduceat(np.abs(B.data), B.indptr[rows])
    return float((row_sums / mass).max())


def _error_estimates(
    R: np.ndarray,
    X: np.ndarray,
    lam: np.ndarray,
    mass: float,
    precond: Preconditioner,
    lam_floor: float,
) -> np.ndarray:
    """``r_j^H P^{-1} r_j / (|lam_j| x_j^H M x_j)`` per column.

    With ``P <= B`` the numerator bounds the ``B^{-1}``-norm of the
    residual, which bounds the relative eigenvalue error however large the
    coefficient contrast.  ``lam_floor`` stands in for eigenvalues that are
    zero to rounding.
    """
    num = np.einsum("ij,ij->j", R.conj(), precond(R)).real
    xmx = np.einsum("ij,ij->j", X.conj(), mass * X).real
    return num / (np.maximum(np.abs(lam), lam_floor) * xmx)


def smallest_eigpair(
    B: sp.spmatrix,
    mass: float,
    *,
    tol: float = 1e-10,
    precond: Preconditioner,
) -> EigSolveReport:
    """Lowest eigenpair of ``B x = lam M x`` with ``M = mass * I``, the
    mass of every pencil of :mod:`blochlab.bloch` (``mass`` is the cell
    volume).  ``mass`` must be a positive finite float; anything else
    raises ``ValueError``.

    Block iteration of LOBPCG type over span([X, preconditioned residuals,
    previous directions]), with a block of three columns: the sought pair
    and two guard columns (fewer when ``n < 3``).  Each residual is
    preconditioned by a capped CG solve with ``B`` itself (an approximate
    inverse; essential once the coefficient contrast is large), and that
    inner CG is in turn preconditioned by ``precond``.  The start block is the constant vector
    plus fixed-seed Gaussian columns, so runs are reproducible.

    Convergence is declared when the lowest vector satisfies
    ``||B x - lam M x||_2 <= tol * scale * mass * ||x||_2`` where ``scale``
    bounds the pencil norm, and the next one satisfies it at ``sqrt(tol)``.
    At high contrast ``scale`` is huge and that rule alone admits inaccurate
    eigenvalues, so the lowest vector must also satisfy
    ``est = r^H P^{-1} r / (|lam| x^H M x) <= tol``.  ``precond`` must
    satisfy ``P <= B``, which makes ``est`` a bound on the relative
    eigenvalue error.  The report carries the mass-normalized residual
    ``||B x - lam M x|| / ||M x||`` used by distributional-form checks, and
    ``meta`` holds the final ``error_estimate`` (``est``) and the total
    ``inner_cg_steps``.  When the final pair misses ``tol``, because the
    budget ran out or the residual block vanished first,
    :class:`ConvergenceError` says which, at which iteration, and carries the
    lowest pair's ``||B x - lam M x||_2 / (scale mass ||x||_2)`` of every
    iteration as its history, and that relative residual and ``est`` of the
    final pair.  The inner solves are deflated only for a real pencil whose
    kernel holds the constants.

    The working set is a few blocks: each length-``n`` block is released
    as soon as the iteration no longer reads it, no conjugated copy of a
    block is made (see :func:`_adjoint_product`), and the mass is the one
    scalar, not a length-``n`` diagonal.  This changes no
    floating-point operation, so the iterates are bit-identical to those
    of the plain out-of-place form.
    """
    n = B.shape[0]
    if not (isinstance(mass, float) and math.isfinite(mass) and mass > 0):
        raise ValueError(f"mass must be a positive finite float, got {mass!r}")

    block = min(3, n)

    dtype = np.complex128 if np.iscomplexobj(B.data) else np.float64
    rng = np.random.default_rng(_DEFAULT_SEED)
    X = np.empty((n, block), dtype=dtype)
    X[:, 0] = 1.0
    rand_cols = rng.standard_normal((n, block - 1))
    if dtype == np.complex128:
        rand_cols = rand_cols + 1j * rng.standard_normal((n, block - 1))
    X[:, 1:] = rand_cols
    del rand_cols

    scale = _pencil_scale(B, mass)
    lam_floor = _MACHEPS * scale
    # capped-CG preconditioning needs to know whether constants are in the
    # kernel (shift-free assembly): then the inner systems must be deflated.
    # Only a real pencil can have them there: a complex one carries a
    # nonzero momentum, and near zero momentum ||B 1|| alone would read small
    deflate_inner = dtype == np.float64 and (
        float(np.linalg.norm(B @ np.ones(n))) <= 1e-8 * scale * mass * math.sqrt(n)
    )
    inner_steps = 0

    def _precondition(R: np.ndarray) -> np.ndarray:
        # overwrites each residual column with its inner solve: _pcg works
        # on a copy of the column, and the residuals are not read again
        nonlocal inner_steps
        for j in range(R.shape[1]):
            R[:, j], inner_history, _ = _pcg(
                B, R[:, j], precond, tol=1e-2, maxit=_INNER_CG_STEPS, deflate=deflate_inner
            )
            inner_steps += len(inner_history) - 1
        return R

    X = _m_orthonormalize(X, mass)
    P = None
    lam = None
    history: list[float] = []
    stopped = f" in {_EIG_MAXIT} iterations"  # how a failed solve ended

    for it in range(1, _EIG_MAXIT + 1):
        BX = B @ X
        # Rayleigh-Ritz inside the current block
        H = _adjoint_product(X, BX)
        H = (H + H.conj().T) / 2.0
        theta, C = np.linalg.eigh(H)
        X = X @ C
        BX = BX @ C
        lam = theta
        R = BX - (mass * X) * lam
        del BX
        resnorms = np.linalg.norm(R, axis=0)
        floor = scale * mass * np.linalg.norm(X, axis=0)
        history.append(float(resnorms[0] / floor[0]))
        # insist on a settled second pair as well: a start vector that is an
        # exact eigenvector of a higher band must not end the search early.
        # The guard only locks the subspace, so sqrt(tol) is enough for it.
        settled = resnorms[0] <= tol * floor[0]
        guard_ok = X.shape[1] < 2 or resnorms[1] <= np.sqrt(tol) * floor[1]
        # the budget's last step ends here too: after an update, SVQB
        # rotates the columns, and the polish would read a mixed one
        if settled and guard_ok and (
            _error_estimates(R[:, :1], X[:, :1], lam[:1], mass, precond, lam_floor)[0]
            <= tol
        ):
            stopped = f": its block met the stop rule at iteration {it} of {_EIG_MAXIT}"
            break
        if it == _EIG_MAXIT:
            break

        W = _project_out(X, _precondition(R), mass)
        del R
        try:
            W = _m_orthonormalize(W, mass)
        except ConvergenceError:
            # residual block vanished: converged to working precision, or
            # stalled there short of tol
            stopped = f": its residual block vanished at iteration {it} of {_EIG_MAXIT}"
            break
        basis = [X, W]
        if P is not None:
            P = _project_out(X, P, mass)
            P = _project_out(W, P, mass)
            try:
                P = _m_orthonormalize(P, mass)
                basis.append(P)
            except ConvergenceError:
                P = None
        S = np.hstack(basis)
        del basis, X, W, P
        G = _adjoint_product(S, B @ S)
        G = (G + G.conj().T) / 2.0
        theta, C = np.linalg.eigh(G)
        Xnew = S @ C[:, :block]
        P = S[:, block:] @ C[block:, :block]
        del S
        X = _m_orthonormalize(Xnew, mass)
        del Xnew
        block = X.shape[1]

    # final polish: exact Rayleigh quotient on the first column, kept a 2-D
    # slice so that it rounds as the block operations above do
    X1 = X[:, :1]
    BX1 = B @ X1
    MX1 = mass * X1
    lam1 = np.einsum("ij,ij->j", X1.conj(), BX1).real / np.einsum(
        "ij,ij->j", X1.conj(), MX1
    ).real
    R = BX1 - MX1 * lam1
    rnorm = np.linalg.norm(R, axis=0)
    resid = rnorm / np.linalg.norm(MX1, axis=0)
    rel = float((rnorm / (scale * mass * np.linalg.norm(X1, axis=0)))[0])
    est = float(_error_estimates(R, X1, lam1, mass, precond, lam_floor)[0])
    if not (rel <= tol and est <= tol):
        raise ConvergenceError(
            f"eigensolver did not reach tol={tol:.1e}{stopped} "
            f"(relative residual {rel}, error estimate {est})",
            history, relative_residual=rel, error_estimate=est,
        )
    return EigSolveReport(
        lambda1=float(lam1[0]),
        vector=X1[:, 0].copy(),  # not a view, so the block is released
        residual=float(resid[0]),
        iterations=it,
        meta={"error_estimate": est, "inner_cg_steps": inner_steps},
    )


# ---------------------------------------------------------------------------
# largest generalized eigenvalue (weighted mass vs stiffness)


def largest_geneig(
    weight_diag: np.ndarray,
    K: sp.spmatrix,
    *,
    precond: Preconditioner,
    gram: Gram,
) -> float:
    """Maximum of ``x* W x`` subject to ``x* K x = 1`` over the subspace of
    weighted-mean-zero vectors, ``W = diag(weight_diag)``.  ``gram`` forms
    the stiffness energy ``v_i^T K v_j`` of the Rayleigh-Ritz steps; ``K``
    itself enters only the CG solves.

    Locally optimal (LOBPCG-type, block size one) iteration for the largest
    pair of ``(W~, K)``, ``W~ = W - w w^T / sum(w)`` the weight shifted to
    annihilate constants (Knyazev 2001).  Each step makes one CG solve
    ``u = K^+ W~ x`` under constant deflation, preconditioned by
    ``precond`` and warm-started from ``mu x``, the best multiple of ``x``
    in the ``K`` norm.  The next value and iterate are the Rayleigh-Ritz
    maximum over span{x, u, p}, ``p`` the previous step's direction (see
    :func:`_ritz_max`).  The iteration stops when the value changes by at
    most ``_GENEIG_TOL`` relative.  A solve that misses ``_GENEIG_CG_TOL``
    raises :class:`ConvergenceError` with the solve's history; a run out
    of ``_GENEIG_MAXIT`` steps raises it with each step's relative change.

    Besides the solve, the working set is ``x``, ``u`` and ``p``; ``u``
    is reused for the new direction and ``x`` for the warm start.
    """
    w = np.asarray(weight_diag, dtype=np.float64)
    n = w.shape[0]
    if w.min() < 0:
        raise ValueError("weights must be nonnegative")
    wsum = w.sum()
    if wsum == 0.0:
        return 0.0

    def shifted_weight(v: np.ndarray) -> np.ndarray:
        # W~ v: the weight times v less its weighted mean (the optimal
        # constant shift)
        return w * (v - np.dot(w, v) / wsum)

    rng = np.random.default_rng(_DEFAULT_SEED)
    x = rng.standard_normal(n)
    x -= np.dot(w, x) / wsum
    x /= np.linalg.norm(x)
    mu, coef = _ritz_max([x], gram, shifted_weight)
    x *= coef[0]
    p = None
    history: list[float] = []
    for _ in range(_GENEIG_MAXIT):
        y = shifted_weight(x)
        y -= y.mean()  # exact zero up to roundoff; keeps CG consistent
        if np.linalg.norm(y) == 0.0:
            return 0.0
        x *= mu  # the warm start, and the basis vector along x
        u = cg_solve(K, y, tol=_GENEIG_CG_TOL, x0=x, precond=precond)
        del y
        u -= x  # the preconditioned residual: the same span, better conditioned
        mu_new, coef = _ritz_max([x, u] if p is None else [x, u, p], gram, shifted_weight)
        # the new direction is the Ritz vector's part outside x, in u's buffer
        u *= coef[1]
        if p is not None:
            p *= coef[2]
            u += p
        p = u
        del u
        x *= coef[0]
        x += p
        history.append(abs(mu_new - mu) / max(abs(mu_new), 1e-300))
        mu = mu_new
        if history[-1] <= _GENEIG_TOL:
            return mu
    raise ConvergenceError(
        f"LOBPCG iteration did not settle to rel {_GENEIG_TOL:.1e} in {_GENEIG_MAXIT} "
        f"steps (last value {mu})",
        history,
    )


def _ritz_max(
    basis: list[np.ndarray],
    gram: Gram,
    shifted_weight: Callable[[np.ndarray], np.ndarray],
) -> tuple[float, np.ndarray]:
    """Largest Ritz pair of ``(W~, K)`` on span(basis): the value and the
    coefficients of its ``K``-normalized vector.

    The ``K``-Gram matrix comes from ``gram``, the weight's from one
    ``W~ v`` at a time.  Directions of the ``K``-Gram matrix are dropped
    by :func:`_svqb`'s rule: near convergence the residual and the
    previous direction shrink towards rounding.
    """
    k = len(basis)
    GK = gram(basis)
    GW = np.empty((k, k))
    for i, v in enumerate(basis):
        Wv = shifted_weight(v)
        for j in range(i, k):
            GW[i, j] = GW[j, i] = np.dot(basis[j], Wv)
        del Wv
    T = _svqb(GK)
    theta, C = np.linalg.eigh(T.T @ GW @ T)
    return float(theta[-1]), T @ C[:, -1]
