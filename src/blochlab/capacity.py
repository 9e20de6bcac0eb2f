"""Radial capacity-type test profiles on the periodic cell cross-section.

The profile vanishes on a disc of radius ``r_eps`` around the cell center,
rises logarithmically across the annulus, and saturates at one beyond
``R``.  Its Dirichlet energy has the closed form ``2 pi / ln(R / r_eps)``,
which after the thin-structure rescaling produces the gap constant the
eigenvalue experiments converge to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid, ScalarGridField

_CENTER = math.pi  # the disc sits at the cell midpoint (pi, pi)


@dataclass(frozen=True)
class CapacityProfile:
    """Geometry of the radial test profile."""

    DEFAULT_R = math.pi / 2

    r_eps: float
    R: float = DEFAULT_R

    def __post_init__(self) -> None:
        if not 0.0 < self.r_eps < self.R < math.pi:
            raise ValueError(
                f"need 0 < r_eps < R < pi, got r_eps={self.r_eps}, R={self.R}"
            )

    @property
    def analytic_energy(self) -> float:
        """Dirichlet integral of the annulus profile: 2 pi / ln(R / r)."""
        return 2.0 * math.pi / math.log(self.R / self.r_eps)


def _radius_mesh(grid: PeriodicGrid) -> np.ndarray:
    if grid.d != 2:
        raise ValueError("capacity profiles are two-dimensional")
    mesh = grid.center_mesh()
    rho = (mesh[0] - _CENTER) ** 2 + (mesh[1] - _CENTER) ** 2
    return np.sqrt(rho, out=rho)


def vhat(grid2d: PeriodicGrid, r_eps: float, R: float = math.pi / 2) -> ScalarGridField:
    """Cell-center samples of the radial profile.

    0 inside ``r_eps``, ``ln(rho / r_eps) / ln(R / r_eps)`` on the annulus,
    1 outside ``R``; in particular exactly zero on every cell the disc mask
    covers, and the value 1/2 on the logarithmic midpoint circle.
    """
    prof = CapacityProfile(r_eps, R)
    h = grid2d.h
    min_cells = 4
    for k in range(2):
        if 2.0 * r_eps / h[k] < min_cells:
            needed = math.ceil(min_cells * h[k] * grid2d.n[k] / (2.0 * r_eps))
            raise ValueError(
                f"disc of radius {r_eps} spans fewer than {min_cells} cells "
                f"along axis {k}; need n >= {needed}"
            )
    # one grid, transformed in place (fine capacity grids hold millions of cells)
    values = _radius_mesh(grid2d)
    with np.errstate(divide="ignore"):
        np.log(np.divide(values, prof.r_eps, out=values), out=values)
    values /= math.log(prof.R / prof.r_eps)
    np.clip(values, 0.0, 1.0, out=values)
    return ScalarGridField(grid2d, values.ravel())


def annulus_energy(
    r_eps: float, R: float = math.pi / 2, grid2d: PeriodicGrid | None = None
) -> tuple[float, float | None]:
    """Analytic and (optionally) discrete Dirichlet energy of the profile.

    The discrete value is the plain face-difference energy of :func:`vhat`
    on ``grid2d`` (unnormalized integral, matching the analytic form).
    """
    prof = CapacityProfile(r_eps, R)
    if grid2d is None:
        return prof.analytic_energy, None
    v = vhat(grid2d, r_eps, R).reshaped()
    w = grid2d.cell_volume
    h = grid2d.h
    energy = 0.0
    for k in range(2):
        # differences in place, released before the next axis
        dv = np.roll(v, -1, axis=k)
        dv -= v
        dv /= h[k]
        energy += w * float(np.sum(np.multiply(dv, dv, out=dv)))
        del dv
    return prof.analytic_energy, energy


def scaled_energy(
    eps: float, r_eps: float, R: float = math.pi / 2,
    grid2d: PeriodicGrid | None = None,
) -> float:
    """Thin-structure energy density ``eps^{-2} . mean |grad vhat|^2``.

    With ``r_eps = radius_for_gamma(eps, gamma)`` this converges to
    ``gamma`` from below as ``eps`` decreases (the outer cutoff ``R``
    contributes the deficit ``ln R / (ln R + |ln r_eps|)``).  Without a
    grid the analytic annulus energy is used.
    """
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    analytic, discrete = annulus_energy(r_eps, R, grid2d)
    energy = analytic if discrete is None else discrete
    cell_area = (2.0 * math.pi) ** 2
    return energy / (cell_area * eps**2)
