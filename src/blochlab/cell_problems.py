"""Periodic cell problems: correctors, effective tensors, dispersive
corrections, and weighted Poincare constants.

All averages are per unit volume of the cell (divide by |Y| = (2 pi)^d), so
for the identity coefficient the effective tensor is the identity and the
first eigenvalue expands as |eta|^2 + O(|eta|^4).  The convention is
recorded in emitted metadata as ``q_normalization = "cell-average"``.

Face quantities go through the face stencil of :mod:`blochlab.bloch`, the
one that assembles the stiffness: harmonic-mean coefficients, plain
differences ``D_k u = (u_j - u_i)/h_k``, face averages
``S_k u = (u_i + u_j)/2`` and their adjoint scatters along each axis.  Each
public call builds one stiffness and the inverse its CG solves use with
:func:`~blochlab.bloch.shifted_pencil` at zero momentum and shares them
across its solves: on a medium with few faces above its smallest value (a
thin fiber section) that inverse is exact, and each solve ends in a few
steps.  Every solve runs at a fixed tolerance; no call takes one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bloch import (
    face_arrays,
    face_difference,
    face_gram,
    scatter_difference,
    scatter_sum,
    shifted_pencil,
)
from .microstructure import CoefficientField
from .sparse_linalg import cg_solve, largest_geneig

_COMPAT_TOL = 1e-10

Q_NORMALIZATION = "cell-average"


def _cell_solver(field: CoefficientField):
    """``b -> x``, the mean-zero solve of ``K x = b`` on the periodic
    stiffness: one ``K`` and one inverse serve every source of a call."""
    K, _, inverse = shifted_pencil(field)
    return partial(cg_solve, K, tol=1e-12, precond=inverse)


def _corrector_values(
    field: CoefficientField, direction: np.ndarray, solve
) -> np.ndarray:
    grid = field.grid
    h, w = grid.h, grid.cell_volume
    b = np.zeros(grid.num_cells)
    for k in range(grid.d):
        if direction[k] == 0.0:
            continue
        coeff = direction[k] * w / h[k] * face_arrays(field, k)
        scatter_difference(b, coeff, grid, k)
    return solve(b)


@dataclass
class HomogenizedMatrix:
    """Effective tensor with both evaluation routes kept for cross-checks."""

    q: np.ndarray          # energy form, symmetrized, shape (d, d)
    q_flux: np.ndarray     # averaged-flux form; equals q up to solver error
    voigt: np.ndarray      # arithmetic cell mean of the coefficient, times I
    correctors: np.ndarray  # columns X_j, shape (num_cells, d)

    @property
    def defect(self) -> float:
        return float(np.abs(self.q - self.q_flux).max())


def homogenized(
    field: CoefficientField,
) -> HomogenizedMatrix:
    """Effective (homogenized) tensor of a periodic coefficient.

    Solves one corrector per axis, then evaluates both the energy form
    ``q_jk = avg a (grad X_j + e_j) . (grad X_k + e_k)`` and the flux form
    ``q_kj = avg [a (grad X_j + e_j)]_k``.  The two agree identically in
    exact arithmetic, so their gap measures solver error; the Voigt
    (arithmetic-mean) matrix rides along as the standard upper bound.
    """
    grid = field.grid
    d = grid.d
    N = grid.num_cells
    vol = N * grid.cell_volume
    solve = _cell_solver(field)
    X = np.empty((N, d))
    for j in range(d):
        X[:, j] = _corrector_values(field, np.eye(d)[j], solve)

    w = grid.cell_volume
    q_energy = np.zeros((d, d))
    q_flux = np.zeros((d, d))
    for k in range(d):
        g = face_difference(X, grid, k)   # face gradients of X_j along k
        g[:, k] += 1.0                    # plus the affine part delta_kj
        wa = w * face_arrays(field, k)
        q_energy += g.T @ (wa[:, None] * g)
        q_flux[k, :] += wa @ g
    q_energy /= vol
    q_flux /= vol
    q_energy = (q_energy + q_energy.T) / 2.0
    return HomogenizedMatrix(
        q=q_energy, q_flux=q_flux, voigt=float(field.a.mean()) * np.eye(d),
        correctors=X,
    )


def _chi2_values(
    field: CoefficientField,
    eta: np.ndarray,
    chi1_values: np.ndarray,
    solve,
) -> tuple[np.ndarray, float, float]:
    """Second corrector from its source; returns (values, relative mean of
    the source, flux-form ``q eta.eta``).

    Source terms, tested against periodic v with face quadrature (S = face
    average): ``<a eta.eta, v>`` and ``<a eta . grad chi1, v>`` via S_k v,
    and ``-<chi1 a eta, grad v>`` via D_k v; minus the flux-form
    ``q eta.eta`` per cell.  The assembled mean then vanishes identically;
    a relative mean above 1e-10 signals an inconsistent source and raises.
    """
    grid = field.grid
    d, h, w, N = grid.d, grid.h, grid.cell_volume, grid.num_cells
    b = np.zeros(N)
    q_flux = 0.0
    gross = 0.0  # magnitude before cancellation; the compat denominator
    for k in range(d):
        wa = w * face_arrays(field, k)
        d_chi = face_difference(chi1_values, grid, k)
        s_chi = (grid.neighbor_values(chi1_values, k) + chi1_values) / 2.0
        q_flux += eta[k] * np.sum(wa * (d_chi + eta[k]))
        half = 0.5 * (eta[k] ** 2) * wa + 0.5 * eta[k] * wa * d_chi
        scatter_sum(b, half, grid, k)
        t3 = eta[k] * wa * s_chi / h[k]
        scatter_difference(b, t3, grid, k)
        gross += 2.0 * np.abs(half).sum() + 2.0 * np.abs(t3).sum()
    q_flux /= N * w
    b -= w * q_flux
    gross += N * w * abs(q_flux)
    compat = abs(b.sum()) / max(gross, np.finfo(float).tiny)
    if compat > _COMPAT_TOL:
        raise ValueError(
            "incompatible right-hand side for the second corrector "
            f"(relative mean {compat:.3e})"
        )
    b -= b.mean()
    return solve(b), compat, q_flux


@dataclass
class DispersionSample:
    """Fourth-order (dispersive) coefficient of the eigenvalue expansion."""

    value: float            # quartic coefficient; nonpositive
    q_eta_eta: float        # quadratic coefficient along the same momentum
    compat: float           # relative mean of the second-corrector source
    chi1: np.ndarray        # first-order corrector per cell, linear in eta
    chi2: np.ndarray        # second-order corrector per cell


def dispersion(
    field: CoefficientField,
    eta: np.ndarray,
) -> DispersionSample:
    """Dispersive correction: ``lam(t eta) = t^2 q eta.eta + t^4 D + O(t^6)``.

    ``D = -avg a |grad(chi2 - chi1^2 / 2)|^2``: the square is formed
    pointwise at cell centers and differenced with the same face stencil as
    every other gradient, keeping the value a single quadratic form (hence
    always ``<= 0``).  The first corrector ``chi1`` is the corrector for
    direction ``eta``; both correctors share one stiffness solve setup.  On
    an oscillating field, ``chi1`` is ``eps`` times the tiled unit-cell
    ``chi1``, exactly, since the stiffness tiles.
    """
    grid = field.grid
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (grid.d,):
        raise ValueError(f"eta must have shape ({grid.d},)")
    solve = _cell_solver(field)
    c1_values = _corrector_values(field, eta, solve)
    c2_values, compat, q_eta_eta = _chi2_values(field, eta, c1_values, solve)
    g = c2_values - 0.5 * c1_values * c1_values
    energy = face_gram(field, [g])[0, 0]
    return DispersionSample(
        value=-energy / (grid.num_cells * grid.cell_volume),
        q_eta_eta=q_eta_eta,
        compat=compat,
        chi1=c1_values,
        chi2=c2_values,
    )


def pw_constant(
    field: CoefficientField,
    lam: np.ndarray,
) -> float:
    """Weighted Poincare constant: the best ``C`` in

        sum (a lam . lam) |u - c|^2  <=  C * sum a |grad u|^2

    over periodic ``u``, with ``c`` the weight-mean of ``u`` (the optimal
    shift).  Exactly quadratic in ``lam``: scaling ``lam`` scales the weight,
    not the maximizer.  The Ritz steps take the stiffness energy from
    :func:`~blochlab.bloch.face_gram`, so the value returned is the exact
    quotient of its own Ritz vector to rounding: a lower bound on the
    constant at any contrast.
    """
    grid = field.grid
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (grid.d,):
        raise ValueError(f"lam must have shape ({grid.d},)")
    # the weight w a |lam|^2, scaled by the mass w in place: one
    # length-N vector
    K, w, inverse = shifted_pencil(field)
    weight = field.a * float(lam @ lam)
    weight *= w
    return largest_geneig(weight, K, precond=inverse, gram=partial(face_gram, field))
