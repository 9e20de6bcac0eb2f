"""Test fixtures shared by several test files: the discrete constant-medium
symbol, the 1-d half-half laminate, and the lowest pair of a pencil at a
tolerance of the test's choosing."""

import math

import numpy as np

from blochlab.bloch import shifted_pencil
from blochlab.grid import make_grid
from blochlab.microstructure import CoefficientField
from blochlab.sparse_linalg import smallest_eigpair


def symbol(eta, n):
    """Discrete constant-medium symbol: sum of 4 sin^2((eta_k) h_k / 2) / h_k^2."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    n = np.broadcast_to(np.asarray(n), eta.shape)
    h = 2.0 * math.pi / n
    return float(np.sum(4.0 * np.sin(eta * h / 2.0) ** 2 / h**2))


def half_half_1d(n, a1=1.0, a2=4.0):
    """The 1-d two-phase laminate: ``a1`` on the first half of ``n`` cells,
    ``a2`` on the second."""
    vals = np.where(np.arange(n) < n // 2, a1, a2)
    return CoefficientField(grid=make_grid(1, n), a=vals.astype(float))


def lowest_pair(field, eta, tol, scale=1.0):
    """The lowest eigenpair of ``field``'s pencil ``scale * B(eta)`` against
    ``w I``, solved to ``tol``: what ``bloch_lambda1`` solves at its fixed
    1e-10, at a test's tighter or looser tolerance."""
    B, w, bound = shifted_pencil(field, eta, scale=scale)
    return smallest_eigpair(B, w, tol=tol, precond=bound)
