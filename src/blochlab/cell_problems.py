"""Periodic cell problems: correctors, effective tensors, dispersive
corrections, and weighted Poincare constants.

All averages are per unit volume of the cell (divide by |Y| = (2 pi)^d), so
for the identity coefficient the effective tensor is the identity and the
first eigenvalue expands as |eta|^2 + O(|eta|^4).  The convention is
recorded in emitted metadata as ``q_normalization = "cell-average"``.

Face quantities reuse the assembly conventions of :mod:`blochlab.bloch`:
harmonic-mean coefficients, plain differences ``D_k u = (u_j - u_i)/h_k``
and face averages ``S_k u = (u_i + u_j)/2`` along each axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import assemble_shifted, face_arrays, reference_inverse
from .grid import PeriodicGrid, ScalarGridField
from .microstructure import CoefficientField
from .sparse_linalg import cg_solve, largest_geneig

_COMPAT_TOL = 1e-10

Q_NORMALIZATION = "cell-average"


def _default_cg_budget(grid: PeriodicGrid) -> int:
    return 50 * max(grid.n)


def _corrector_values(
    field: CoefficientField, direction: np.ndarray, tol: float
) -> np.ndarray:
    grid = field.grid
    K, _ = assemble_shifted(field, None)
    h, w = grid.h, grid.cell_volume
    b = np.zeros(grid.num_cells)
    for k in range(grid.d):
        if direction[k] == 0.0:
            continue
        idx, jdx, a_face = face_arrays(field, k)
        coeff = direction[k] * w / h[k] * a_face
        b[idx] += coeff
        b[jdx] -= coeff
    if not np.any(b):
        return np.zeros(grid.num_cells)
    return cg_solve(
        K, b, tol=tol, maxit=_default_cg_budget(grid), deflate_constants=True,
        precond=reference_inverse(field),
    )


def corrector(
    field: CoefficientField,
    direction: np.ndarray,
    *,
    tol: float = 1e-12,
) -> ScalarGridField:
    """Mean-zero periodic solution of ``div(a (grad X + direction)) = 0``.

    ``direction`` need not be normalized; the solution is linear in it, so
    a general direction is the superposition of the canonical correctors.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (field.grid.d,):
        raise ValueError(f"direction must have shape ({field.grid.d},)")
    values = _corrector_values(field, direction, tol)
    return ScalarGridField(field.grid, values)


@dataclass
class HomogenizedMatrix:
    """Effective tensor with both evaluation routes kept for cross-checks."""

    q: np.ndarray          # energy form, symmetrized, shape (d, d)
    q_flux: np.ndarray     # averaged-flux form; equals q up to solver error
    voigt: np.ndarray      # arithmetic cell mean of the coefficient matrix
    correctors: np.ndarray  # columns X_j, shape (num_cells, d)

    @property
    def defect(self) -> float:
        return float(np.abs(self.q - self.q_flux).max())


def homogenized(
    field: CoefficientField,
    *,
    tol: float = 1e-12,
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
    X = np.empty((N, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = 1.0
        X[:, j] = _corrector_values(field, e, tol)

    h, w = grid.h, grid.cell_volume
    q_energy = np.zeros((d, d))
    q_flux = np.zeros((d, d))
    for k in range(d):
        idx, jdx, a_face = face_arrays(field, k)
        g = (X[jdx, :] - X[idx, :]) / h[k]   # face gradients of X_j along k
        g[:, k] += 1.0                        # plus the affine part delta_kj
        wa = w * a_face
        q_energy += g.T @ (wa[:, None] * g)
        q_flux[k, :] += wa @ g
    q_energy /= vol
    q_flux /= vol
    q_energy = (q_energy + q_energy.T) / 2.0
    return HomogenizedMatrix(
        q=q_energy, q_flux=q_flux, voigt=field.mean_matrix(), correctors=X
    )


def chi1(
    field: CoefficientField,
    eta: np.ndarray,
    *,
    tol: float = 1e-12,
) -> ScalarGridField:
    """First-order corrector for momentum ``eta`` (linear in ``eta``).

    On an oscillating field this equals ``eps`` times the tiled unit-cell
    corrector — exactly, cell for cell, since the stiffness tiles.
    """
    return corrector(field, eta, tol=tol)


def _chi2_values(
    field: CoefficientField,
    eta: np.ndarray,
    chi1_values: np.ndarray,
    q_eta_eta: float | None,
    tol: float,
) -> tuple[np.ndarray, float, float]:
    """Second corrector from its source; returns (values, relative mean of
    the source, flux-form ``q eta.eta``).

    Source terms, tested against periodic v with face quadrature (S = face
    average): ``<a eta.eta, v>`` and ``<a eta . grad chi1, v>`` via S_k v,
    and ``-<chi1 a eta, grad v>`` via D_k v; minus ``q eta.eta`` per cell
    (the flux form when ``q_eta_eta`` is ``None``).  With the flux-form
    ``q`` the assembled mean vanishes identically; a relative mean above
    1e-10 signals an inconsistent ``q`` and raises.
    """
    grid = field.grid
    d, h, w, N = grid.d, grid.h, grid.cell_volume, grid.num_cells
    b = np.zeros(N)
    q_flux = 0.0
    gross = 0.0  # magnitude before cancellation; the compat denominator
    for k in range(d):
        idx, jdx, a_face = face_arrays(field, k)
        wa = w * a_face
        d_chi = (chi1_values[jdx] - chi1_values[idx]) / h[k]
        s_chi = (chi1_values[jdx] + chi1_values[idx]) / 2.0
        q_flux += eta[k] * np.sum(wa * (d_chi + eta[k]))
        half = 0.5 * (eta[k] ** 2) * wa + 0.5 * eta[k] * wa * d_chi
        b[idx] += half
        b[jdx] += half
        t3 = eta[k] * wa * s_chi / h[k]
        b[idx] += t3
        b[jdx] -= t3
        gross += 2.0 * np.abs(half).sum() + 2.0 * np.abs(t3).sum()
    q_flux /= N * w
    mean_term = q_flux if q_eta_eta is None else q_eta_eta
    b -= w * mean_term
    gross += N * w * abs(mean_term)
    compat = abs(b.sum()) / max(gross, np.finfo(float).tiny)
    if compat > _COMPAT_TOL:
        raise ValueError(
            "incompatible right-hand side for the second corrector "
            f"(relative mean {compat:.3e}); is q from the same discretization?"
        )
    if not np.any(b):
        return np.zeros(N), compat, q_flux
    b -= b.mean()
    K, _ = assemble_shifted(field, None)
    sol = cg_solve(
        K, b, tol=tol, maxit=_default_cg_budget(grid), deflate_constants=True,
        precond=reference_inverse(field),
    )
    return sol, compat, q_flux


def chi2(
    field: CoefficientField,
    eta: np.ndarray,
    q: HomogenizedMatrix | None = None,
    chi1_field: ScalarGridField | None = None,
    *,
    tol: float = 1e-12,
) -> ScalarGridField:
    """Second-order corrector at momentum ``eta``.

    When ``q`` is supplied it must come from the same discretization; a
    right-hand side whose relative mean exceeds 1e-10 signals an
    inconsistent ``q`` and raises.  Without ``q`` the internally evaluated
    flux form is used, for which compatibility holds to rounding.
    """
    grid = field.grid
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (grid.d,):
        raise ValueError(f"eta must have shape ({grid.d},)")
    if chi1_field is None:
        chi1_field = chi1(field, eta, tol=tol)
    q_eta_eta = None if q is None else float(eta @ q.q @ eta)
    values, _, _ = _chi2_values(field, eta, chi1_field.values, q_eta_eta, tol)
    return ScalarGridField(grid, values)


@dataclass
class DispersionSample:
    """Fourth-order (dispersive) coefficient of the eigenvalue expansion."""

    eta: np.ndarray
    value: float            # quartic coefficient; nonpositive
    q_eta_eta: float        # quadratic coefficient along the same momentum
    compat: float           # relative mean of the second-corrector source
    chi1: ScalarGridField
    chi2: ScalarGridField


def dispersion(
    field: CoefficientField,
    eta: np.ndarray,
    *,
    tol: float = 1e-12,
) -> DispersionSample:
    """Dispersive correction: ``lam(t eta) = t^2 q eta.eta + t^4 D + O(t^6)``.

    ``D = -avg a |grad(chi2 - chi1^2 / 2)|^2``: the square is formed
    pointwise at cell centers and differenced with the same face stencil as
    every other gradient, keeping the value a single quadratic form (hence
    always ``<= 0``).
    """
    grid = field.grid
    eta = np.asarray(eta, dtype=np.float64)
    c1 = chi1(field, eta, tol=tol)
    c2_values, compat, q_eta_eta = _chi2_values(field, eta, c1.values, None, tol)
    g = c2_values - 0.5 * c1.values * c1.values
    h, w, N = grid.h, grid.cell_volume, grid.num_cells
    energy = 0.0
    for k in range(grid.d):
        idx, jdx, a_face = face_arrays(field, k)
        dg = (g[jdx] - g[idx]) / h[k]
        energy += np.sum(w * a_face * dg * dg)
    return DispersionSample(
        eta=eta,
        value=-energy / (N * w),
        q_eta_eta=q_eta_eta,
        compat=compat,
        chi1=c1,
        chi2=ScalarGridField(grid, c2_values),
    )


def pw_constant(
    field: CoefficientField,
    lam: np.ndarray,
    *,
    tol: float = 1e-8,
    cg_tol: float = 1e-11,
) -> float:
    """Weighted Poincare constant: the best ``C`` in

        sum (a lam . lam) |u - c|^2  <=  C * sum a |grad u|^2

    over periodic ``u``, with ``c`` the weight-mean of ``u`` (the optimal
    shift).  Exactly quadratic in ``lam``: scaling ``lam`` scales the weight,
    not the maximizer.
    """
    grid = field.grid
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (grid.d,):
        raise ValueError(f"lam must have shape ({grid.d},)")
    if not np.any(lam):
        return 0.0
    if field.isotropic:
        weight_cells = field.a * float(lam @ lam)
    else:
        weight_cells = field.a @ (lam * lam)
    w = grid.cell_volume
    K, _ = assemble_shifted(field, None)
    return largest_geneig(
        w * weight_cells, K, tol=tol, cg_tol=cg_tol,
        precond=reference_inverse(field),
    )
