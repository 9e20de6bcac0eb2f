"""Shifted-gradient operators on the periodic cell and their first eigenvalues.

The quadratic form is the face sum ``sum_f w a_f |D^eta u|_f^2`` where the
shifted difference along axis ``k`` carries a link phase,

    (D^eta u)_f = (exp(i eta_k h_k) u_{c+e_k} - u_c) / h_k,

``a_f`` is the harmonic mean of the two adjacent cell values and ``w`` the
cell volume.  This keeps the operator Hermitian for every momentum, makes
``eta -> eta + m`` (integer ``m``) an exact diagonal-unitary gauge, and for a
constant medium reproduces the discrete symbol
``sum_k 4 sin^2(eta_k h_k / 2) / h_k^2`` exactly.

Eigenvalues are reported for the pencil ``B(eta) x = lam M x`` with
``M = w I``, i.e. in mean-per-volume normalization: for ``a = I`` the first
eigenvalue tends to ``|eta|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .grid import PeriodicGrid
from .microstructure import CoefficientField
from .sparse_linalg import EigSolveReport, Preconditioner, smallest_eigpair


def canonical_momentum(eta: np.ndarray) -> np.ndarray:
    """Fold a momentum into the fundamental zone (-1/2, 1/2]^d.

    Integer shifts are exact gauges of the discrete operator, so folding
    never changes an eigenvalue; it only shrinks the link phases.  Solvers
    never fold on their own — callers opt in through this function.
    """
    eta = np.asarray(eta, dtype=np.float64)
    return eta - np.ceil(eta - 0.5)


def _require_first_zone(eta: np.ndarray) -> None:
    # reductions assume first-zone momenta; folding is the caller's call
    if np.any(np.abs(eta) > 0.5 + 1e-12):
        raise ValueError(
            f"momentum {tuple(eta)} lies outside the first zone [-1/2, 1/2]; "
            "fold it with canonical_momentum first"
        )


def face_arrays(field: CoefficientField, axis: int):
    """Per-face data along ``axis``: (cell index, forward neighbor index,
    harmonic-mean face coefficient).  Face ``f`` sits between cell ``c`` and
    ``c + e_axis``; on a 2-cell axis the two distinct faces share endpoints.
    """
    a = field.axis_values(axis)
    idx = np.arange(field.grid.num_cells)
    jdx = field.grid.neighbor(axis)
    a_face = 2.0 * a[idx] * a[jdx] / (a[idx] + a[jdx])
    return idx, jdx, a_face


def assemble_shifted(
    field: CoefficientField, eta: np.ndarray | None = None
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Assemble ``(B(eta), M_diag)`` for the shifted form on ``field.grid``.

    Returns a real matrix when ``eta`` is ``None`` or zero (the plain
    stiffness with constant kernel), complex otherwise.
    """
    grid = field.grid
    d, h, w, N = grid.d, grid.h, grid.cell_volume, grid.num_cells
    eta_arr = np.zeros(d) if eta is None else np.asarray(eta, dtype=np.float64)
    if eta_arr.shape != (d,):
        raise ValueError(f"momentum must have shape ({d},), got {eta_arr.shape}")
    is_complex = bool(np.any(eta_arr != 0.0))

    diag = np.zeros(N)
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    for k in range(d):
        idx, jdx, a_face = face_arrays(field, k)
        coeff = w * a_face / h[k] ** 2
        diag[idx] += coeff
        diag[jdx] += coeff
        if is_complex:
            phase = np.exp(1j * eta_arr[k] * h[k])
            off = -coeff * phase
            rows.extend([idx, jdx])
            cols.extend([jdx, idx])
            vals.extend([off, np.conj(off)])
        else:
            rows.extend([idx, jdx])
            cols.extend([jdx, idx])
            vals.extend([-coeff, -coeff])
    rows.append(np.arange(N))
    cols.append(np.arange(N))
    vals.append(diag.astype(np.complex128) if is_complex else diag)
    B = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(N, N),
    ).tocsr()  # duplicate entries sum: 2-cell axes get both faces
    M_diag = np.full(N, w)
    return B, M_diag


def reference_inverse(
    field: CoefficientField,
    eta: np.ndarray | None = None,
    *,
    scale: float = 1.0,
    shift: float = 0.0,
) -> Preconditioner:
    """Reference-medium preconditioner ``P^{-1}`` for the shifted pencil.

    ``P`` is the stencil of :func:`assemble_shifted` with every face
    coefficient along axis ``k`` replaced by ``a_ref,k``, the smallest
    cell value of ``field.axis_values(k)``, times ``scale``, plus
    ``shift * w * a_ref`` on the diagonal.  A harmonic face mean is never
    below the cell minimum, so ``P <= B`` in the Loewner order for
    ``B = scale * B(eta) + shift * diag(w a)``.  The constant-coefficient
    stencil is diagonalized by the DFT, with symbol

        sigma(xi) = w sum_k a_ref,k 4 sin^2((eta_k h_k + xi_k) / 2) / h_k^2
                    * scale + shift * w * a_ref,   xi_k = 2 pi fftfreq(n_k),

    so ``P^{-1} r = ifftn(fftn(r) / sigma)``.  Modes where ``sigma``
    vanishes (the constants at zero momentum and zero shift) are the
    kernel of ``B`` and are projected out.  The returned callable accepts a
    vector of length ``N`` or an ``(N, cols)`` block.
    """
    grid = field.grid
    d, h, w, shape = grid.d, grid.h, grid.cell_volume, grid.shape
    eta_arr = np.zeros(d) if eta is None else np.asarray(eta, dtype=np.float64)
    theta = eta_arr * np.asarray(h)
    sigma = np.full(shape, shift * w * float(field.a.min()))
    for k in range(d):
        xi = 2.0 * np.pi * np.fft.fftfreq(grid.n[k])
        a_ref = float(field.axis_values(k).min())
        sym = w * a_ref * scale * 4.0 * np.sin((theta[k] + xi) / 2.0) ** 2 / h[k] ** 2
        sigma = sigma + sym.reshape([-1 if j == k else 1 for j in range(d)])
    kernel = sigma <= 1e-28 * sigma.max()  # rounding-level symbol: exact zero mode
    inv_sigma = np.where(kernel, 0.0, 1.0 / np.where(kernel, 1.0, sigma))
    # zero phases make sigma even in xi: real data stay real, half spectrum
    real_symbol = not np.any(theta)
    inv_half = inv_sigma[..., : shape[-1] // 2 + 1]
    axes = tuple(range(d))

    def apply(r: np.ndarray) -> np.ndarray:
        v = r.reshape(shape + r.shape[1:])
        pad = (1,) * (r.ndim - 1)
        if real_symbol and not np.iscomplexobj(r):
            z = np.fft.irfftn(
                np.fft.rfftn(v, axes=axes) * inv_half.reshape(inv_half.shape + pad),
                s=shape, axes=axes,
            )
        else:
            z = np.fft.ifftn(
                np.fft.fftn(v, axes=axes) * inv_sigma.reshape(shape + pad), axes=axes
            )
        return z.reshape(r.shape)

    return apply


def residual(B: sp.spmatrix, M_diag: np.ndarray, lam: float, x: np.ndarray) -> float:
    """Mass-normalized eigen-residual ``||B x - lam M x|| / ||M x||``."""
    Mx = np.asarray(M_diag) * x
    return float(np.linalg.norm(B @ x - lam * Mx) / np.linalg.norm(Mx))


@dataclass
class EigResult:
    """First eigenvalues of a shifted pencil at one momentum.

    Eigenvectors are the periodic parts phi (the physical mode is
    ``exp(i x . eta) phi``), normalized so the discrete integral of
    ``|phi|^2`` over the cell equals one.
    """

    eta: np.ndarray
    eigenvalues: np.ndarray
    vectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    meta: dict | None = None

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def phi(self) -> np.ndarray:
        return self.vectors[:, 0]

    @property
    def residual(self) -> float:
        return float(self.residuals[0])

    @classmethod
    def from_report(cls, eta: np.ndarray, report: EigSolveReport) -> "EigResult":
        return cls(
            eta=np.asarray(eta, dtype=np.float64),
            eigenvalues=report.eigenvalues,
            vectors=report.vectors,
            residuals=report.residuals,
            iterations=report.iterations,
            meta=report.meta,
        )


def bloch_lambda1(
    field: CoefficientField,
    eta: np.ndarray,
    k: int = 1,
    *,
    tol: float = 1e-10,
    maxit: int = 500,
    X0: np.ndarray | None = None,
) -> EigResult:
    """Lowest ``k`` eigenvalues of the shifted pencil at momentum ``eta``."""
    B, M = assemble_shifted(field, eta)
    report = smallest_eigpair(
        B, M, k, tol=tol, maxit=maxit, X0=X0, precond=reference_inverse(field, eta)
    )
    return EigResult.from_report(np.asarray(eta, dtype=np.float64), report)


def bloch_reduced(
    unit_field: CoefficientField,
    eps: float,
    eta: np.ndarray,
    k: int = 1,
    *,
    tol: float = 1e-10,
    maxit: int = 500,
    X0: np.ndarray | None = None,
) -> EigResult:
    """First eigenvalues of the oscillating problem via the unit-pattern cell.

    For a coefficient ``a(x / eps)`` the spectrum satisfies
    ``lam_eps(eta) = eps^{-2} lam_unit(eps eta)``, so one solve on the unit
    pattern replaces the full fine-grid solve.  On matched grids (unit grid
    of ``m`` cells per axis versus full grid of ``m / eps``) the two routes
    agree to rounding, not merely asymptotically: the link phases and
    dimensionless stencils coincide.
    """
    if unit_field.inv_eps != 1:
        raise ValueError("bloch_reduced expects a unit-pattern field (inv_eps == 1)")
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    eta = np.asarray(eta, dtype=np.float64)
    _require_first_zone(eta)
    res = bloch_lambda1(unit_field, eps * eta, k, tol=tol, maxit=maxit, X0=X0)
    # the error estimate is relative, so it survives the eps^-2 rescaling
    return replace(res, eta=eta, eigenvalues=res.eigenvalues / eps**2)


def fiber_lambda1_2d(
    section_field: CoefficientField,
    eps: float,
    eta_prime: np.ndarray,
    eta3: float,
    k: int = 1,
    *,
    tol: float = 1e-10,
    maxit: int = 500,
    X0: np.ndarray | None = None,
) -> EigResult:
    """First eigenvalues for an axis-3 invariant medium via its cross-section.

    ``section_field`` is the 2-d unit-pattern cross-section of a coefficient
    that does not depend on the third coordinate.  On the subspace of
    axis-3 invariant functions the three-dimensional pencil collapses to

        eps^{-2} B_2d(eps eta') + eta3^2 diag(w a(y'))   vs   M = w I,

    with the third direction handled exactly (no discretization along it).
    """
    if section_field.grid.d != 2:
        raise ValueError("cross-section field must be 2-dimensional")
    if not section_field.isotropic:
        raise ValueError("axis-3 reduction needs an isotropic cross-section")
    if section_field.inv_eps != 1:
        raise ValueError("cross-section must be a unit pattern (inv_eps == 1)")
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    eta_prime = np.asarray(eta_prime, dtype=np.float64)
    if eta_prime.shape != (2,):
        raise ValueError("eta_prime must have two components")
    _require_first_zone(np.array([eta_prime[0], eta_prime[1], float(eta3)]))

    B2, M = assemble_shifted(section_field, eps * eta_prime)
    w = section_field.grid.cell_volume
    mass_shift = sp.diags(float(eta3) ** 2 * w * section_field.axis_values(0))
    B = (B2 * (1.0 / eps**2) + mass_shift).tocsr()
    precond = reference_inverse(
        section_field, eps * eta_prime, scale=1.0 / eps**2, shift=float(eta3) ** 2
    )
    report = smallest_eigpair(B, M, k, tol=tol, maxit=maxit, X0=X0, precond=precond)
    eta_full = np.array([eta_prime[0], eta_prime[1], float(eta3)])
    return EigResult.from_report(eta_full, report)


@dataclass
class ExpansionFit:
    """Small-momentum fit ``lam(t d) = c2 t^2 + c4 t^4 (+ t^6 in residual)``.

    Unpacks as ``(c2, c4, fit_residual)``.
    """

    direction: np.ndarray
    t_samples: np.ndarray
    values: np.ndarray       # lam(t d) per sample
    c2: float                # quadratic coefficient: effective-tensor value
    c4: float                # quartic coefficient: dispersive correction
    fit_residual: float      # rms misfit of lam/t^2, absorbs the t^6 term

    def __iter__(self):
        return iter((self.c2, self.c4, self.fit_residual))


def expansion_fit(
    field: CoefficientField,
    direction: np.ndarray,
    t_samples: np.ndarray | None = None,
    *,
    tol: float = 1e-11,
    maxit: int = 500,
) -> ExpansionFit:
    """Fit the small-momentum expansion of the first eigenvalue.

    Solves along ``eta = t * direction`` for a ladder of small ``t`` in
    (0, 0.2], then regresses ``lam / t^2`` linearly against ``t^2``: the
    intercept is the quadratic (homogenized) coefficient, the slope the
    quartic one, and the sixth-order term lands in the reported residual.
    Consecutive solves warm-start each other.  For media with a strong
    sixth-order term, shrink the ladder: the slope bias grows linearly with
    ``max(t)^2``.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if t_samples is None:
        t_samples = np.linspace(0.02, 0.12, 6)
    t_samples = np.asarray(t_samples, dtype=np.float64)
    if t_samples.size < 4:
        raise ValueError("need at least four t samples for a stable fit")
    if np.any(t_samples <= 0) or np.any(t_samples > 0.2):
        raise ValueError("t samples must lie in (0, 0.2]")

    t_sorted = np.sort(t_samples)
    values = np.empty(t_sorted.size)
    X0 = None
    for i, t in enumerate(t_sorted):
        res = bloch_lambda1(field, t * direction, 1, tol=tol, maxit=maxit, X0=X0)
        values[i] = res.lambda1
        X0 = res.vectors
    u = t_sorted**2
    y = values / u
    # two-parameter least squares: y = c2 + c4 * u
    A = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    misfit = y - A @ coef
    return ExpansionFit(
        direction=direction,
        t_samples=t_sorted,
        values=values,
        c2=float(coef[0]),
        c4=float(coef[1]),
        fit_residual=float(np.sqrt(np.mean(misfit**2))),
    )
