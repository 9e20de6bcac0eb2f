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
    field: CoefficientField,
    direction: np.ndarray,
    tol: float,
    maxit: int | None,
    x0: np.ndarray | None = None,
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
    if maxit is None:
        maxit = _default_cg_budget(grid)
    if not np.any(b):
        return np.zeros(grid.num_cells)
    return cg_solve(
        K, b, tol=tol, maxit=maxit, deflate_constants=True, x0=x0,
        precond=reference_inverse(field),
    )


def corrector(
    field: CoefficientField,
    direction: np.ndarray,
    *,
    tol: float = 1e-12,
    maxit: int | None = None,
) -> ScalarGridField:
    """Mean-zero periodic solution of ``div(a (grad X + direction)) = 0``.

    ``direction`` need not be normalized; the solution is linear in it, so
    a general direction is the superposition of the canonical correctors.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != (field.grid.d,):
        raise ValueError(f"direction must have shape ({field.grid.d},)")
    values = _corrector_values(field, direction, tol, maxit)
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
    maxit: int | None = None,
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
        X[:, j] = _corrector_values(field, e, tol, maxit)

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


def tile_unit_values(
    values: np.ndarray, unit_grid: PeriodicGrid, target_grid: PeriodicGrid
) -> np.ndarray:
    """Tile unit-cell values periodically onto a grid with matched cells."""
    reps = []
    for k in range(unit_grid.d):
        q, r = divmod(target_grid.n[k], unit_grid.n[k])
        if r != 0:
            raise ValueError(
                f"target axis {k} ({target_grid.n[k]} cells) is not divisible "
                f"by the unit grid ({unit_grid.n[k]} cells)"
            )
        reps.append(q)
    return np.tile(np.asarray(values).reshape(unit_grid.shape), reps).ravel()


def rescale_corrector(
    X: ScalarGridField,
    eps: float,
    direction: np.ndarray,
    target_grid: PeriodicGrid,
) -> ScalarGridField:
    """Oscillating test function ``w(x) = direction . x + eps X(x / eps)``.

    ``X`` lives on the unit pattern; its periodic tiling is exact because
    the target grid has an integer number of cells per pattern period.  The
    affine part is sampled at cell centers; only the periodic part should
    ever be finite-differenced (the affine gradient is known exactly).
    """
    eps = float(eps)
    inv_eps = round(1.0 / eps)
    if abs(inv_eps * eps - 1.0) > 1e-12 or inv_eps < 1:
        raise ValueError(f"1/eps must be a positive integer, got eps={eps}")
    if any(t != u * inv_eps for t, u in zip(target_grid.n, X.grid.n)):
        raise ValueError(
            f"target grid {target_grid.n} is not the unit grid {X.grid.n} "
            f"refined by 1/eps = {inv_eps}"
        )
    direction = np.asarray(direction, dtype=np.float64)
    periodic = eps * tile_unit_values(X.values, X.grid, target_grid)
    mesh = target_grid.center_mesh()  # sparse axes; broadcast to full shape
    affine = np.zeros(target_grid.shape)
    for k in range(target_grid.d):
        affine = affine + direction[k] * mesh[k]
    return ScalarGridField(target_grid, affine.ravel() + periodic)


def chi1(
    field: CoefficientField,
    eta: np.ndarray,
    *,
    tol: float = 1e-12,
    maxit: int | None = None,
) -> ScalarGridField:
    """First-order corrector for momentum ``eta`` (linear in ``eta``).

    On an oscillating field this equals ``eps`` times the tiled unit-cell
    corrector — exactly, cell for cell, since the stiffness tiles.
    """
    return corrector(field, eta, tol=tol, maxit=maxit)


def _chi2_rhs(
    field: CoefficientField, eta: np.ndarray, chi1_values: np.ndarray,
    q_eta_eta: float | None,
) -> tuple[np.ndarray, float]:
    """Assemble the second-corrector source; returns (rhs, relative mean).

    Terms, tested against periodic v with face quadrature (S = face average):
    ``<a eta.eta, v>`` and ``<a eta . grad chi1, v>`` via S_k v, and
    ``-<chi1 a eta, grad v>`` via D_k v; minus ``q eta.eta`` per cell.  With
    the flux-form ``q`` the assembled mean vanishes identically.
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
    return b, compat


def chi2(
    field: CoefficientField,
    eta: np.ndarray,
    q: HomogenizedMatrix | None = None,
    chi1_field: ScalarGridField | None = None,
    *,
    tol: float = 1e-12,
    maxit: int | None = None,
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
    if maxit is None:
        maxit = _default_cg_budget(grid)
    if chi1_field is None:
        chi1_field = chi1(field, eta, tol=tol, maxit=maxit)
    q_eta_eta = None if q is None else float(eta @ q.q @ eta)
    b, compat = _chi2_rhs(field, eta, chi1_field.values, q_eta_eta)
    if compat > _COMPAT_TOL:
        raise ValueError(
            "incompatible right-hand side for the second corrector "
            f"(relative mean {compat:.3e}); is q from the same discretization?"
        )
    if not np.any(b):
        return ScalarGridField(grid, np.zeros(grid.num_cells))
    b -= b.mean()
    K, _ = assemble_shifted(field, None)
    sol = cg_solve(
        K, b, tol=tol, maxit=maxit, deflate_constants=True,
        precond=reference_inverse(field),
    )
    return ScalarGridField(grid, sol)


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
    maxit: int | None = None,
) -> DispersionSample:
    """Dispersive correction: ``lam(t eta) = t^2 q eta.eta + t^4 D + O(t^6)``.

    ``D = -avg a |grad(chi2 - chi1^2 / 2)|^2``: the square is formed
    pointwise at cell centers and differenced with the same face stencil as
    every other gradient, keeping the value a single quadratic form (hence
    always ``<= 0``).
    """
    grid = field.grid
    eta = np.asarray(eta, dtype=np.float64)
    c1 = chi1(field, eta, tol=tol, maxit=maxit)
    c2 = chi2(field, eta, None, c1, tol=tol, maxit=maxit)
    _, compat = _chi2_rhs(field, eta, c1.values, None)
    g = c2.values - 0.5 * c1.values * c1.values
    h, w, N = grid.h, grid.cell_volume, grid.num_cells
    energy = 0.0
    q_eta_eta = 0.0
    for k in range(grid.d):
        idx, jdx, a_face = face_arrays(field, k)
        dg = (g[jdx] - g[idx]) / h[k]
        energy += np.sum(w * a_face * dg * dg)
        d_chi = (c1.values[jdx] - c1.values[idx]) / h[k]
        q_eta_eta += eta[k] * np.sum(w * a_face * (d_chi + eta[k]))
    vol = N * w
    return DispersionSample(
        eta=eta,
        value=-energy / vol,
        q_eta_eta=q_eta_eta / vol,
        compat=compat,
        chi1=c1,
        chi2=c2,
    )


def pw_constant(
    field: CoefficientField,
    lam: np.ndarray,
    *,
    tol: float = 1e-8,
    maxit: int = 300,
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
        w * weight_cells, K, tol=tol, maxit=maxit, cg_tol=cg_tol,
        precond=reference_inverse(field),
    )
