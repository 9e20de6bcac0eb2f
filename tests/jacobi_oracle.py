"""Dense cyclic-Jacobi eigenvalue oracle for the tests.

The independent check of :func:`blochlab.sparse_linalg.smallest_eigpair`:
it imports only ``math`` and ``numpy``, shares no code with the package and
calls no LAPACK eigensolver, which ``test_sparse_linalg`` checks on this
file's syntax tree.
"""

import math

import numpy as np

#: largest dimension the oracle accepts
_MAX_DIM = 4096
#: sweep budget; a sweep visits every off-diagonal pair once
_MAX_SWEEPS = 60
#: stop once the off-diagonal Frobenius norm is below this share of the total
_TOL = 1e-14


def dense_oracle(B, M_diag: np.ndarray | None = None) -> np.ndarray:
    """All eigenvalues (ascending) of a Hermitian matrix, or of the pencil
    ``(B, diag(M_diag))``, by cyclic Jacobi rotations in parallel
    (round-robin) order: each sweep visits every off-diagonal pair once, in
    rounds of disjoint pairs that are rotated together.

    ``B`` is a dense array or anything with ``toarray()`` (a sparse matrix),
    of dimension at most 4096.
    """
    A = B.toarray() if hasattr(B, "toarray") else np.array(B, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("square matrix required")
    if n > _MAX_DIM:
        raise ValueError(f"dense oracle capped at dimension {_MAX_DIM}, got {n}")
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
    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(max(np.linalg.norm(A) ** 2 - np.linalg.norm(np.diag(A)) ** 2, 0.0))
        if off <= _TOL * fro:
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
