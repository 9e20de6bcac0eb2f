"""Periodic two-phase conductivity patterns and their rasterization.

All generated media share a unit background phase (conductivity 1) and a
single high phase ``beta`` on an inclusion set; the pattern repeats on the
sub-lattice of period ``2*pi*eps``.  Membership is decided at cell centers,
so a field rasterized on a grid whose axis counts are divisible by ``1/eps``
is exactly ``eps Y``-periodic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import PeriodicGrid, _reciprocal_int

_PI = math.pi

#: fewest cells that may span the smallest feature of a rasterized pattern
MIN_CELLS_ACROSS = 4


@dataclass(frozen=True)
class Constant:
    """Homogeneous medium ``a = a0 * I``."""

    a0: float = 1.0

    def __post_init__(self) -> None:
        if self.a0 < 1.0:
            raise ValueError(f"constant coefficient must be >= 1, got {self.a0}")


@dataclass(frozen=True)
class TwoPhaseInclusion:
    """One centered inclusion of conductivity ``beta`` per ``eps Y`` sub-cell.

    ``rho`` is the inclusion size as a fraction of the sub-cell: squares have
    side ``2*pi*rho`` in pattern coordinates (volume fraction ``rho**d``),
    discs have diameter ``2*pi*rho``.
    """

    eps: float
    beta: float
    rho: float
    shape: str = "square"

    def __post_init__(self) -> None:
        _reciprocal_int(self.eps)
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")
        if self.shape not in ("square", "disc"):
            raise ValueError(f"shape must be square or disc, got {self.shape!r}")


@dataclass(frozen=True)
class FiberLattice:
    """Cylinders of radius ``eps * r_eps`` along the third axis, one per
    ``eps Y`` sub-cell, with conductivity ``beta`` inside and 1 outside.

    In pattern coordinates the fiber cross-section is the disc of radius
    ``r_eps`` centered at ``(pi, pi)``.
    """

    eps: float
    r_eps: float
    beta: float

    def __post_init__(self) -> None:
        _reciprocal_int(self.eps)
        if not 0.0 < self.r_eps < _PI:
            raise ValueError(f"r_eps must lie in (0, pi), got {self.r_eps}")
        if self.beta < 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")


@dataclass(frozen=True)
class FromFile:
    """Arbitrary per-cell scalar coefficient loaded from a field dump."""

    path: str


MicrostructureSpec = Constant | TwoPhaseInclusion | FiberLattice | FromFile


@dataclass
class CoefficientField:
    """Positive scalar conductivity, one value per cell.

    The face-based discretization sees a cell through one value along every
    face normal, so ``a`` has shape ``(N,)``.
    """

    grid: PeriodicGrid
    a: np.ndarray
    inv_eps: int = 1

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.float64)
        N = self.grid.num_cells
        if self.a.shape != (N,):
            raise ValueError(
                f"coefficient shape {self.a.shape} incompatible with grid "
                f"({N} cells)"
            )
        if not np.all(np.isfinite(self.a)) or self.a.min() <= 0:
            raise ValueError("coefficients must be finite and positive")


def rasterize(spec: MicrostructureSpec, grid: PeriodicGrid) -> CoefficientField:
    """Sample a microstructure at cell centers.

    Raises if :func:`check_resolution` refuses the grid, or if a field
    dump's resolution differs from it.
    """
    if isinstance(spec, Constant):
        values = np.full(grid.num_cells, float(spec.a0))
        return CoefficientField(grid=grid, a=values, inv_eps=1)

    if isinstance(spec, FromFile):
        from . import fieldio

        values, n = fieldio.read_field_dump(spec.path)
        if tuple(n) != grid.n:
            raise ValueError(
                f"field dump resolution {tuple(n)} does not match the "
                f"requested grid {grid.n}"
            )
        return CoefficientField(grid=grid, a=values, inv_eps=1)

    check_resolution(spec, grid)
    s = _reciprocal_int(spec.eps)

    # pattern coordinates y = (x / eps) mod 2*pi, evaluated per axis
    mesh = grid.center_mesh()
    pattern = [np.mod(c * s, 2.0 * _PI) for c in mesh]

    if isinstance(spec, TwoPhaseInclusion):
        if spec.shape == "square":
            inside = np.abs(pattern[0] - _PI) < _PI * spec.rho
            for k in range(1, grid.d):
                inside = inside & (np.abs(pattern[k] - _PI) < _PI * spec.rho)
        else:
            r2 = sum((pattern[k] - _PI) ** 2 for k in range(grid.d))
            inside = r2 < (_PI * spec.rho) ** 2
    else:  # FiberLattice: cylinder along the last axis of a 3-d grid
        r2 = (pattern[0] - _PI) ** 2 + (pattern[1] - _PI) ** 2
        inside = r2 < spec.r_eps**2

    values = np.where(np.broadcast_to(inside, grid.n).ravel(), float(spec.beta), 1.0)
    return CoefficientField(grid=grid, a=values, inv_eps=s)


def check_resolution(spec: MicrostructureSpec, grid: PeriodicGrid) -> None:
    """Raise unless ``grid`` can sample an inclusion pattern: every axis
    divisible by ``1/eps`` (else the field would not be exactly
    ``eps Y``-periodic) and at least ``MIN_CELLS_ACROSS`` cells across the
    smallest feature.  Constant and file-backed media pass; a dump's
    resolution is checked when it is read."""
    if not isinstance(spec, (TwoPhaseInclusion, FiberLattice)):
        return
    s = _reciprocal_int(spec.eps)
    if isinstance(spec, FiberLattice) and grid.d < 2:
        raise ValueError("fiber lattice needs a 2-d cross-section or a 3-d grid")
    for k, nk in enumerate(grid.n):
        if nk % s != 0:
            raise ValueError(
                f"axis {k} has {nk} cells, not divisible by 1/eps = {s}; "
                f"the sampled field would not be eps*Y-periodic"
            )
    if isinstance(spec, TwoPhaseInclusion):
        check_cells_across(2.0 * _PI * spec.rho / s, grid, range(grid.d))
    else:
        check_cells_across(2.0 * spec.r_eps / s, grid)


class TooFewCells(ValueError):
    """A grid too coarse for a feature; ``need`` cells per axis resolve it
    (``inf`` when no grid does)."""

    def __init__(self, fact: str, need: float):
        hint = f"need n >= {need}" if need < math.inf else "no grid resolves it"
        super().__init__(f"{fact}; {hint} (at least {MIN_CELLS_ACROSS} across)")
        self.fact, self.need = fact, need


def check_cells_across(diameter: float, grid: PeriodicGrid, axes=(0, 1)) -> None:
    """Require at least ``MIN_CELLS_ACROSS`` cells across a feature of
    ``diameter`` (x units) along each of ``axes``, else raise TooFewCells."""
    for k in axes:
        across = diameter / grid.h[k]
        if across < MIN_CELLS_ACROSS:
            # inf for a subnormal diameter; from 2**53 on a float is whole,
            # and it prints in a few digits where its int would print hundreds
            need = MIN_CELLS_ACROSS * 2.0 * _PI / diameter
            raise TooFewCells(
                f"feature of extent {diameter:.4g} spans only {across:.2f} cells "
                f"along axis {k}", math.ceil(need) if need < 2**53 else need)


def radius_for_gamma(eps: float, gamma: float) -> float:
    """Fiber radius at the critical scaling, exp(-1 / (2*pi*eps**2*gamma)).

    With this radius the quantity ``1 / (2*pi*eps**2*|ln r|)`` equals
    ``gamma`` exactly for every ``eps``.  It lies in [0, 1), so below pi;
    where ``2*pi*eps**2*gamma`` underflows (eps below about 1.5e-162) it is
    0.0, the limit, which the radius rules of the media then refuse.  Near
    1 the float radius realizes ``gamma`` only to about ``1e-16 x``
    relative, ``x = 2*pi*eps**2*gamma`` (not at all where it rounds to 1):
    a ``gamma`` realized to worse than 1e-6 is refused (``gamma > 3e9`` or so).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x = 2.0 * _PI * eps * eps * gamma
    r = math.exp(-1.0 / x) if x else 0.0
    # 1/(2*pi*eps**2*|ln r|) is gamma / (x |ln r|): x |ln r| must be 1
    if r and not abs(x * math.log(r) + 1.0) <= 1e-6:
        raise ValueError(f"gamma = {gamma:.4g} is too large at eps = {eps:.4g}: the "
                         f"fiber radius {r!r} does not realize it to 1e-6 relative")
    return r

