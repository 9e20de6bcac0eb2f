"""Sparse Hermitian solver kernels.

Matrices are carried as ``scipy.sparse`` CSR (dimension, row-compressed
index/value arrays, real or complex scalar kind).  Deterministic behavior is
part of the contract: every randomized start is drawn from a fixed-seed
generator, and single-threaded runs reproduce bit-identical iterates.

Two independent eigenvalue routes live here on purpose: the iterative block
solver (:func:`smallest_eigpair`) and a dense cyclic-Jacobi sweep
(:func:`dense_oracle`) that shares no code with it.  Tests compare the two;
neither may be redirected through the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

_DEFAULT_SEED = 24389
_MACHEPS = np.finfo(np.float64).eps
#: step budget of the capped inner CG that preconditions the eigensolver
_INNER_CG_STEPS = 40
#: CG recomputes the true residual ``b - A x`` every this many steps
_RESTART_EVERY = 50
#: outer iteration budget of the block eigensolver
_EIG_MAXIT = 500
#: step budget of the power iteration in :func:`largest_geneig`
_POWER_MAXIT = 300

Preconditioner = Callable[[np.ndarray], np.ndarray]


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the residual history."""

    def __init__(self, message: str, history: list[float] | None = None):
        super().__init__(message)
        self.residual_history = list(history) if history is not None else []


@dataclass
class EigSolveReport:
    """Result of a (generalized) Hermitian eigenvalue solve."""

    eigenvalues: np.ndarray      # ascending, shape (k,)
    vectors: np.ndarray          # M-orthonormal columns, shape (n, k)
    residuals: np.ndarray        # ||B x - lam M x||_2 / ||M x||_2 per vector
    rel_residuals: np.ndarray    # residuals normalized by the pencil scale
    iterations: int
    converged: bool
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# conjugate gradients


def cg_solve(
    A: sp.spmatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-12,
    maxit: int | None = None,
    deflate_constants: bool = False,
    x0: np.ndarray | None = None,
    precond: Preconditioner | None = None,
) -> np.ndarray:
    """Preconditioned conjugate gradients for Hermitian positive
    (semi-)definite systems; raises :class:`ConvergenceError` with the
    residual history when the solve fails.

    ``precond`` applies an approximate inverse of ``A`` (Jacobi when
    ``None``).  With ``deflate_constants`` the constant kernel is projected
    out of the right-hand side check, the start vector, and the residual at
    every iteration; the returned solution has zero mean.
    """
    b = np.asarray(b)
    if maxit is None:
        maxit = max(1000, 2 * b.shape[0])
    if deflate_constants:
        drift = abs(b.sum()) / max(np.abs(b).sum(), np.finfo(float).tiny)
        if drift > 1e-10:
            raise ValueError(
                "incompatible right-hand side: nonzero mean "
                f"(relative drift {drift:.3e}) under constant deflation"
            )
    x, history, failure = _pcg(
        A, b, _jacobi(A) if precond is None else precond,
        tol=tol, maxit=maxit, deflate=deflate_constants, x0=x0,
    )
    if failure is not None:
        raise ConvergenceError(failure, history)
    return x


def _jacobi(A: sp.spmatrix) -> Preconditioner:
    diag = A.diagonal().real
    if diag.min() <= 0:
        raise ValueError("Jacobi preconditioner needs a positive diagonal")
    inv_diag = 1.0 / diag
    return lambda r: inv_diag * r


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

    ``x``, ``r`` and ``p`` are updated in place through one work buffer;
    every update evaluates the same operations, in the same order, as its
    out-of-place form, so the iterates are bit-identical to it.
    """
    def project(v: np.ndarray) -> np.ndarray:
        # in place: v is always an array this loop owns
        if deflate:
            v -= v.mean()
        return v

    # the eigensolver passes strided block columns; reductions over a
    # contiguous copy round the same whatever the caller's layout
    b = np.ascontiguousarray(b)
    r = project(b.copy())
    bnorm = float(np.linalg.norm(r))
    if bnorm == 0.0:
        return np.zeros_like(b), [0.0], None
    if x0 is None:
        x = np.zeros_like(b)
    else:
        x = project(np.array(x0, copy=True))
        np.subtract(b, A @ x, out=r)
        project(r)
    history = [float(np.linalg.norm(r)) / bnorm]
    if history[-1] <= tol:
        return x, history, None
    z = precond(r)
    p = z.copy()
    rz = np.vdot(r, z).real
    work = np.empty_like(p)
    for it in range(1, maxit + 1):
        Ap = project(A @ p)
        pAp = np.vdot(p, Ap).real
        if pAp <= 0:
            return project(x), history, (
                f"indefinite curvature encountered at iteration {it}"
            )
        alpha = rz / pAp
        x += np.multiply(alpha, p, out=work)
        if it % _RESTART_EVERY == 0:
            np.subtract(b, A @ x, out=r)  # restart: discard accumulated roundoff
        else:
            r -= np.multiply(alpha, Ap, out=work)
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
# smallest eigenpairs: LOBPCG-type block iteration, inner-CG preconditioned


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


def _m_orthonormalize(V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """SVQB-style M-orthonormalization, dropping near-dependent columns."""
    G = _adjoint_product(V, M[:, None] * V)
    G = (G + G.conj().T) / 2.0
    w, Q = np.linalg.eigh(G)
    keep = w > max(w.max(), 0.0) * 1e-14
    if not np.any(keep):
        raise ConvergenceError("orthonormalization collapsed: zero block")
    return V @ (Q[:, keep] / np.sqrt(w[keep]))


def _project_out(V: np.ndarray, W: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Remove the M-orthogonal projection of W onto orthonormal V."""
    return W - V @ _adjoint_product(V, M[:, None] * W)


def _pencil_scale(B: sp.spmatrix, M: np.ndarray) -> float:
    # infinity-norm bound on M^{-1/2} B M^{-1/2}; cheap and rigorous
    row_sums = np.asarray(abs(B).sum(axis=1)).ravel()
    return float((row_sums / M).max())


def _error_estimates(
    R: np.ndarray,
    X: np.ndarray,
    lam: np.ndarray,
    M: np.ndarray,
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
    mass = np.einsum("ij,ij->j", X.conj(), M[:, None] * X).real
    return num / (np.maximum(np.abs(lam), lam_floor) * mass)


def _final_residuals(
    BX: np.ndarray,
    X: np.ndarray,
    lam: np.ndarray,
    M: np.ndarray,
    scale: float,
    precond: Preconditioner | None,
) -> tuple[np.ndarray, np.ndarray, float | None]:
    """Report figures of returned pairs: the mass-normalized residuals
    ``||B x - lam M x|| / ||M x||``, the same norms relative to the pencil
    scale, and the largest error estimate (``None`` without ``precond``).
    """
    MX = M[:, None] * X
    R = BX - MX * lam
    rnorm = np.linalg.norm(R, axis=0)
    resid = rnorm / np.linalg.norm(MX, axis=0)
    rel = rnorm / (scale * M.mean() * np.linalg.norm(X, axis=0))
    est = None
    if precond is not None:
        est = float(_error_estimates(R, X, lam, M, precond, _MACHEPS * scale).max())
    return resid, rel, est


def smallest_eigpair(
    B: sp.spmatrix,
    M_diag: np.ndarray,
    k: int = 1,
    *,
    tol: float = 1e-10,
    X0: np.ndarray | None = None,
    precond: Preconditioner | None = None,
) -> EigSolveReport:
    """Smallest ``k`` eigenpairs of ``B x = lam M x`` with diagonal ``M``.

    Block iteration of LOBPCG type over span([X, preconditioned residuals,
    previous directions]).  Each residual is preconditioned by a capped CG
    solve with ``B`` itself (an approximate inverse; essential once the
    coefficient contrast is large), and that inner CG is in turn
    preconditioned by ``precond`` (Jacobi when ``None``).  The start block
    is the constant vector plus fixed-seed Gaussian columns, so runs are
    reproducible; ``X0`` columns, when given, replace the random part
    (warm starts stay deterministic).

    Convergence is declared when every requested vector satisfies
    ``||B x - lam M x||_2 <= tol * scale * ||x||_2`` where ``scale`` bounds
    the pencil norm.  At high contrast ``scale`` is huge and that rule
    alone admits inaccurate eigenvalues, so when ``precond`` is given (it
    must satisfy ``P <= B``) every vector must also satisfy
    ``est = r^H P^{-1} r / (|lam| x^H M x) <= tol``, a bound on the relative
    eigenvalue error.  The report carries the mass-normalized residual
    ``||B x - lam M x|| / ||M x||`` used by distributional-form checks, and
    ``meta`` holds the final ``error_estimate`` (largest ``est``; ``None``
    without ``precond``) and the total ``inner_cg_steps``.

    The working set is a few blocks: each length-``n`` block is released
    as soon as the iteration no longer reads it, and no conjugated copy of
    a block is made (see :func:`_adjoint_product`).  This changes no
    floating-point operation, so the iterates are bit-identical to those
    of the plain out-of-place form.
    """
    n = B.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    M = np.asarray(M_diag, dtype=np.float64)
    if M.shape != (n,) or M.min() <= 0:
        raise ValueError("M_diag must be a positive vector matching B")

    block = min(max(k + 2, 2), n)
    if 3 * block >= n:  # subspace would span nearly everything; go dense
        return _dense_smallest(B, M, k, precond)

    dtype = np.complex128 if np.iscomplexobj(B.data) else np.float64
    rng = np.random.default_rng(_DEFAULT_SEED)
    X = np.empty((n, block), dtype=dtype)
    X[:, 0] = 1.0
    rand_cols = rng.standard_normal((n, block - 1))
    if dtype == np.complex128:
        rand_cols = rand_cols + 1j * rng.standard_normal((n, block - 1))
    X[:, 1:] = rand_cols
    if X0 is not None:
        X0 = np.atleast_2d(np.asarray(X0, dtype=dtype))
        if X0.shape[0] != n:
            X0 = X0.T
        m = min(X0.shape[1], block)
        X[:, :m] = X0[:, :m]

    inner = _jacobi(B) if precond is None else precond
    scale = _pencil_scale(B, M)
    lam_floor = _MACHEPS * scale
    # capped-CG preconditioning needs to know whether constants are in the
    # kernel (shift-free assembly): then the inner systems must be deflated
    kernel_norm = float(np.linalg.norm(B @ np.ones(n)))
    deflate_inner = kernel_norm <= 1e-8 * scale * M.mean() * math.sqrt(n)
    inner_steps = 0

    def _precondition(R: np.ndarray) -> np.ndarray:
        # overwrites each residual column with its inner solve: _pcg works
        # on a copy of the column, and the residuals are not read again
        nonlocal inner_steps
        for j in range(R.shape[1]):
            R[:, j], inner_history, _ = _pcg(
                B, R[:, j], inner, tol=1e-2, maxit=_INNER_CG_STEPS, deflate=deflate_inner
            )
            inner_steps += len(inner_history) - 1
        return R

    X = _m_orthonormalize(X, M)
    P = None
    lam = None
    history: list[float] = []

    for it in range(1, _EIG_MAXIT + 1):
        BX = B @ X
        # Rayleigh-Ritz inside the current block
        H = _adjoint_product(X, BX)
        H = (H + H.conj().T) / 2.0
        theta, C = np.linalg.eigh(H)
        X = X @ C
        BX = BX @ C
        lam = theta
        R = BX - (M[:, None] * X) * lam
        del BX
        resnorms = np.linalg.norm(R, axis=0)
        xnorms = np.linalg.norm(X, axis=0)
        rel = resnorms / (scale * M.mean() * xnorms + np.abs(lam) * xnorms)
        history.append(float(rel[:k].max()))
        # insist on a settled k+1-st pair as well: a start vector that is an
        # exact eigenvector of a higher band must not end the search early.
        # The guard only locks the subspace, so sqrt(tol) is enough for it.
        floor = scale * M.mean() * xnorms
        settled = resnorms[:k] <= tol * floor[:k]
        if k < X.shape[1]:
            guard_ok = resnorms[k] <= np.sqrt(tol) * floor[k]
        else:
            guard_ok = True
        if np.all(settled) and guard_ok and (
            precond is None
            or _error_estimates(R[:, :k], X[:, :k], lam[:k], M, precond, lam_floor).max()
            <= tol
        ):
            break

        W = _project_out(X, _precondition(R), M)
        del R
        try:
            W = _m_orthonormalize(W, M)
        except ConvergenceError:
            break  # residual block vanished: converged to working precision
        basis = [X, W]
        if P is not None:
            P = _project_out(X, P, M)
            P = _project_out(W, P, M)
            try:
                P = _m_orthonormalize(P, M)
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
        X = _m_orthonormalize(Xnew, M)
        del Xnew
        if X.shape[1] < block:
            block = X.shape[1]
            if block < k:
                raise ConvergenceError("eigenbasis collapsed below k", history)

    # final polish: exact Rayleigh quotients on the returned columns
    Xk = X[:, :k]
    BXk = B @ Xk
    lam_k = np.einsum("ij,ij->j", Xk.conj(), BXk).real / np.einsum(
        "ij,ij->j", Xk.conj(), M[:, None] * Xk
    ).real
    resid, rel, est = _final_residuals(BXk, Xk, lam_k, M, scale, precond)
    converged = bool(np.all(rel <= tol)) and (est is None or est <= tol)
    if not converged:
        raise ConvergenceError(
            f"eigensolver did not reach tol={tol:.1e} in {_EIG_MAXIT} iterations "
            f"(relative residuals {rel}, error estimate {est})",
            history,
        )
    order = np.argsort(lam_k)
    return EigSolveReport(
        eigenvalues=lam_k[order],
        vectors=Xk[:, order],
        residuals=resid[order],
        rel_residuals=rel[order],
        iterations=it,
        converged=converged,
        meta={"error_estimate": est, "inner_cg_steps": inner_steps},
    )


def _dense_smallest(
    B: sp.spmatrix,
    M: np.ndarray,
    k: int,
    precond: Preconditioner | None,
) -> EigSolveReport:
    # tiny systems only: the blocked subspace would exhaust the space
    s = 1.0 / np.sqrt(M)
    A = B.toarray() * s[:, None] * s[None, :]
    A = (A + A.conj().T) / 2.0
    w, V = np.linalg.eigh(A)
    vecs = s[:, None] * V[:, :k]
    lam = w[:k]
    resid, rel, est = _final_residuals(
        B @ vecs, vecs, lam, M, _pencil_scale(B, M), precond
    )
    return EigSolveReport(
        eigenvalues=lam,
        vectors=vecs,
        residuals=resid,
        rel_residuals=rel,
        iterations=0,
        converged=True,
        meta={"error_estimate": est, "inner_cg_steps": 0},
    )


# ---------------------------------------------------------------------------
# largest generalized eigenvalue (weighted mass vs stiffness)


def largest_geneig(
    weight_diag: np.ndarray,
    K: sp.spmatrix,
    *,
    tol: float = 1e-8,
    cg_tol: float = 1e-10,
    precond: Preconditioner | None = None,
) -> float:
    """Maximum of ``x* W x`` subject to ``x* K x = 1`` over the subspace of
    weighted-mean-zero vectors, ``W = diag(weight_diag)``.

    Inverse-operator power iteration: each step applies the shifted weight
    (which is exactly orthogonal to constants) and solves with ``K`` under
    constant deflation, preconditioned by ``precond`` (Jacobi when
    ``None``).  Warm-started CG keeps later steps cheap.  A solve that
    misses ``cg_tol`` raises :class:`ConvergenceError`.
    """
    w = np.asarray(weight_diag, dtype=np.float64)
    n = w.shape[0]
    if w.min() < 0:
        raise ValueError("weights must be nonnegative")
    wsum = w.sum()
    if wsum == 0.0 or w.max() == 0.0:
        return 0.0

    def shift(v: np.ndarray) -> np.ndarray:
        # subtract the weighted mean: the optimal constant shift
        return v - np.dot(w, v) / wsum

    rng = np.random.default_rng(_DEFAULT_SEED)
    x = shift(rng.standard_normal(n))
    x /= np.linalg.norm(x)
    mu_prev = None
    warm = None
    for it in range(1, _POWER_MAXIT + 1):
        y = w * shift(x)
        y -= y.mean()  # exact zero up to roundoff; keeps CG consistent
        if np.linalg.norm(y) == 0.0:
            return 0.0
        u = cg_solve(K, y, tol=cg_tol, deflate_constants=True, x0=warm, precond=precond)
        warm = u
        us = shift(u)
        Ku = K @ u
        num = float(np.dot(us, w * us))
        den = float(np.dot(u, Ku))
        if den <= 0:
            raise ConvergenceError("stiffness form degenerate in power iteration")
        mu = num / den
        x = u / np.linalg.norm(u)
        if mu_prev is not None and abs(mu - mu_prev) <= tol * max(abs(mu), 1e-300):
            return mu
        mu_prev = mu
    raise ConvergenceError(
        f"power iteration did not settle to rel {tol:.1e} in {_POWER_MAXIT} steps "
        f"(last value {mu_prev})"
    )


# ---------------------------------------------------------------------------
# dense oracle: cyclic Jacobi rotations (independent of the iterative path)


def dense_oracle(
    B: sp.spmatrix | np.ndarray,
    M_diag: np.ndarray | None = None,
    *,
    max_sweeps: int = 60,
    tol: float = 1e-14,
) -> np.ndarray:
    """All eigenvalues (ascending) of a Hermitian matrix, or of the pencil
    ``(B, diag(M_diag))``, by cyclic Jacobi rotations in parallel
    (round-robin) order: each sweep visits every off-diagonal pair once, in
    rounds of disjoint pairs that are rotated together.

    Deliberately self-contained: no LAPACK eigensolvers, no shared code with
    :func:`smallest_eigpair`.  Intended for cross-checking at dimension
    <= 4096.
    """
    A = B.toarray() if sp.issparse(B) else np.array(B, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("square matrix required")
    if n > 4096:
        raise ValueError(f"dense oracle capped at dimension 4096, got {n}")
    if M_diag is not None:
        M = np.asarray(M_diag, dtype=np.float64)
        if M.min() <= 0:
            raise ValueError("M_diag must be positive")
        s = 1.0 / np.sqrt(M)
        A = A * s[:, None] * s[None, :]
    herm_defect = np.abs(A - A.conj().T).max()
    if herm_defect > 1e-12 * max(np.abs(A).max(), 1.0):
        raise ValueError(f"matrix is not Hermitian (defect {herm_defect:.3e})")
    A = (A + A.conj().T) / 2.0

    fro = np.linalg.norm(A)
    if fro == 0.0:
        return np.zeros(n)
    rounds = _round_robin(n)
    for _ in range(max_sweeps):
        off = math.sqrt(max(np.linalg.norm(A) ** 2 - np.linalg.norm(np.diag(A)) ** 2, 0.0))
        if off <= tol * fro:
            break
        for p, q in rounds:
            g = A[p, q]
            ag = np.abs(g)
            live = ag > 1e-18 * fro
            if not live.all():
                p, q, g, ag = p[live], q[live], g[live], ag[live]
            alpha = A[p, p].real
            delta = A[q, q].real
            f = g / ag  # unit phases of the pivots
            tau = (delta - alpha) / (2.0 * ag)
            t = np.where(tau == 0.0, 1.0,
                         -np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = 1.0 / np.sqrt(1.0 + t * t)
            sn = t * c
            # columns: A <- A U with U = [[c, -s f], [s conj(f), c]] per pair;
            # the pairs are disjoint, and index arrays read copies
            col_p = A[:, p]
            col_q = A[:, q]
            A[:, p] = c * col_p + sn * np.conj(f) * col_q
            A[:, q] = -sn * f * col_p + c * col_q
            # rows: A <- U^H A
            row_p = A[p, :]
            row_q = A[q, :]
            A[p, :] = c[:, None] * row_p + (sn * f)[:, None] * row_q
            A[q, :] = -(sn * np.conj(f))[:, None] * row_p + c[:, None] * row_q
            A[p, q] = 0.0
            A[q, p] = 0.0
            A[p, p] = A[p, p].real
            A[q, q] = A[q, q].real
    return np.sort(np.real(np.diag(A)))


def _round_robin(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every pair ``p < q`` of ``range(n)`` once, as rounds of disjoint
    pairs ``(p, q)`` (circle method; for odd ``n`` one index sits out each
    round)."""
    m = n + n % 2
    players = np.arange(m)
    rounds = []
    for _ in range(m - 1):
        a, b = players[: m // 2], players[m // 2:][::-1]
        keep = (a < n) & (b < n)
        rounds.append((np.minimum(a, b)[keep], np.maximum(a, b)[keep]))
        players = np.concatenate((players[:1], np.roll(players[1:], 1)))
    return rounds
