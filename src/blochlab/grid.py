"""Structured periodic grids on the torus (0, 2*pi)**d.

Cells are axis-aligned boxes enumerated in row-major order; unknowns live at
cell centers ``(j + 1/2) * h_k``.  Periodicity is built into the neighbor
indexing, so every cell has exactly ``2 d`` neighbors and no boundary cases
exist anywhere downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

_MAX_DIM = 3

#: the largest int32, the range of the CSR indices and row pointers that
#: ``bloch.assemble_shifted`` writes for a grid's ``N`` rows of at most
#: ``2 d + 1`` entries
_INT32_MAX = 2**31 - 1


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform cell-centered grid on (0, 2*pi)**d with periodic wrap."""

    d: int
    n: tuple[int, ...]

    @property
    def h(self) -> tuple[float, ...]:
        return tuple(TWO_PI / nk for nk in self.n)

    @property
    def num_cells(self) -> int:
        return math.prod(self.n)

    @property
    def cell_volume(self) -> float:
        """Measure of one cell, prod_k h_k."""
        return float(np.prod(self.h))

    def axis_centers(self, axis: int) -> np.ndarray:
        """Coordinates of cell centers along one axis, shape (n[axis],)."""
        hk = TWO_PI / self.n[axis]
        return (np.arange(self.n[axis]) + 0.5) * hk

    def center_mesh(self) -> tuple[np.ndarray, ...]:
        """Sparse broadcastable meshgrid of cell-center coordinates."""
        axes = [self.axis_centers(k) for k in range(self.d)]
        return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))

    def neighbor(self, axis: int, step: int = 1) -> np.ndarray:
        """Flat index map cell -> periodic neighbor at ``+step`` along ``axis``.

        Composing the +1 and -1 maps along the same axis is the identity.
        """
        cells = np.arange(self.num_cells, dtype=np.int64)
        return self.neighbor_values(cells, axis, step)

    def neighbor_values(self, u: np.ndarray, axis: int, step: int = 1) -> np.ndarray:
        """Per-cell values ``u`` read at the periodic neighbor ``+step``
        along ``axis``: entry ``c`` holds ``u[c + step e_axis]``.  Trailing
        dimensions of ``u`` (columns) ride along.
        """
        if axis < 0 or axis >= self.d:
            raise ValueError(f"axis {axis} out of range for d={self.d}")
        v = u.reshape(self.n + u.shape[1:])
        return np.roll(v, -step, axis=axis).reshape(u.shape)


def make_grid(d: int, n: int | tuple[int, ...]) -> PeriodicGrid:
    """Build a validated grid with ``n`` cells per axis (scalar or per-axis):
    at least 2 per axis, and few enough in all that the operator's
    ``N (2d + 1)`` entries stay within int32 indices."""
    if d < 1 or d > _MAX_DIM:
        raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
    if np.isscalar(n):
        counts = (int(n),) * d
    else:
        counts = tuple(int(nk) for nk in n)
    if len(counts) != d:
        raise ValueError(f"expected {d} axis counts, got {len(counts)}")
    for k, nk in enumerate(counts):
        if nk < 2:
            raise ValueError(f"degenerate axis {k}: need at least 2 cells, got {nk}")
    cells, limit = math.prod(counts), _INT32_MAX // (2 * d + 1)
    if cells > limit:
        raise ValueError(f"grid of {count_text(cells)} cells is too large: int32 "
                         f"indices address at most {limit} cells of {2 * d + 1} "
                         f"operator entries each")
    return PeriodicGrid(d=d, n=counts)


def count_text(k: int) -> str:
    """``k`` in digits, or in three significant digits when it has more than
    twelve (an ``n`` override may have hundreds)."""
    digits = str(abs(k))
    if len(digits) <= 12:
        return str(k)
    return f"{'-' * (k < 0)}{digits[0]}.{digits[1:3]}e{len(digits) - 1}"


def check_eps(eps: float) -> float:
    """``float(eps)``, once it lies in (0, 1]: the one range rule of every
    period eps."""
    eps = float(eps)
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps


def _require_first_zone(eta: np.ndarray) -> None:
    # reductions assume first-zone momenta; folding is the caller's call
    if np.any(np.abs(eta) > 0.5 + 1e-12):
        raise ValueError(f"momentum {tuple(float(v) for v in eta)} lies outside the first "
                         "zone [-1/2, 1/2]; fold it with canonical_momentum first")


def _reciprocal_int(eps: float) -> int:
    """Validate that eps is the reciprocal of a positive integer, return it."""
    inv = 1.0 / check_eps(eps)
    s = round(inv) if np.isfinite(inv) else 0  # inf for a subnormal eps
    if s < 1 or abs(inv - s) > 1e-9 * s:
        raise ValueError(f"1/eps must be an integer, got 1/eps = {inv}")
    return s
