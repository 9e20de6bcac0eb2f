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

from .grid import PeriodicGrid, check_eps
from .microstructure import check_cells_across

_CENTER = math.pi  # the disc sits at the cell midpoint (pi, pi)

#: outer radius of the annulus when none is given
DEFAULT_R = math.pi / 2


@dataclass(frozen=True)
class CapacityProfile:
    """Geometry of the radial test profile."""

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


#: cells per block of the streamed face-difference sum in
#: :func:`annulus_energy` (1 MB of float64), whatever the grid size
_BLOCK_CELLS = 1 << 17


def _profile_rows(
    grid: PeriodicGrid, prof: CapacityProfile, i0: int, i1: int
) -> np.ndarray:
    """Profile values on the grid rows ``i0 <= i < i1``, shape
    ``(i1 - i0, n[1])``; row indices wrap periodically, so ``i1`` may pass
    ``n[0]``."""
    x = grid.axis_centers(0)[np.arange(i0, i1) % grid.n[0], None]
    y = grid.axis_centers(1)
    # one block, transformed in place
    values = (x - _CENTER) ** 2 + (y - _CENTER) ** 2
    np.sqrt(values, out=values)
    with np.errstate(divide="ignore"):
        np.log(np.divide(values, prof.r_eps, out=values), out=values)
    values /= math.log(prof.R / prof.r_eps)
    return np.clip(values, 0.0, 1.0, out=values)


def annulus_energy(
    r_eps: float, R: float, grid2d: PeriodicGrid
) -> tuple[float, float]:
    """Analytic and discrete Dirichlet energy of the profile.

    The discrete value is the plain face-difference energy of the profile's
    cell-center samples on ``grid2d`` (unnormalized integral, matching the
    analytic form), summed over blocks of rows of about ``_BLOCK_CELLS``
    cells, so that its working set does not grow with the grid.
    """
    prof = CapacityProfile(r_eps, R)
    if grid2d.d != 2:
        raise ValueError("capacity profiles are two-dimensional")
    check_cells_across(2.0 * r_eps, grid2d)  # the fiber section's disc at s = 1
    n0, n1 = grid2d.n
    rows = max(1, _BLOCK_CELLS // n1)
    h = grid2d.h
    sums = [0.0, 0.0]
    for i0 in range(0, n0, rows):
        i1 = min(i0 + rows, n0)
        # the block and the row after it (row 0 after the last block)
        v = _profile_rows(grid2d, prof, i0, i1 + 1)
        block = v[:-1]
        for k, ahead in enumerate((v[1:], np.roll(block, -1, axis=1))):
            dv = ahead - block
            dv /= h[k]
            sums[k] += float(np.sum(np.multiply(dv, dv, out=dv)))
    w = grid2d.cell_volume
    return prof.analytic_energy, w * sums[0] + w * sums[1]


def scaled_energy(
    eps: float, r_eps: float, R: float,
    grid2d: PeriodicGrid,
) -> float:
    """Thin-structure energy density ``eps^{-2} . mean |grad v|^2`` of the profile.

    With ``r_eps = radius_for_gamma(eps, gamma)`` this converges to
    ``gamma`` from below as ``eps`` decreases (the outer cutoff ``R``
    contributes the deficit ``ln R / (ln R + |ln r_eps|)``).  The energy is
    the discrete one of :func:`annulus_energy` on ``grid2d``.
    """
    eps = check_eps(eps)
    _, energy = annulus_energy(r_eps, R, grid2d)
    cell_area = (2.0 * math.pi) ** 2
    return energy / (cell_area * eps**2)
