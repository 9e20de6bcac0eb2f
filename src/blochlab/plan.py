"""Run plans: each command family's one planner, which the harnesses, the
command line and the config parser all call, so a run is refused by the
same rule, with the same message, at parse time and before its first solve:
:func:`plan_sweep` for the experiments (their momentum and ``t_list``
too), :func:`plan_single` for ``homogenize``, ``bloch``, ``dispersion`` and
``pw``, and :func:`plan_capacity` for ``capacity``, whose mode it also
decides.  A refusal is a :class:`PlanError` naming the inputs its rule
reads, the one to blame first; the parser reports the first of them that
the config sets, with its line, or else the first of them on the command's line.

Resolution rule: the full-grid resolution per epsilon is the smallest
multiple of 1/eps giving at least 8 cells across the finest feature,
capped at 2048 per axis (below 4 cells even at the cap the case is
refused); solves run on the matched unit-pattern grid of ``n * eps``
cells.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .capacity import DEFAULT_R, CapacityProfile
from .grid import (PeriodicGrid, _reciprocal_int, _require_first_zone, check_eps, count_text,
                   make_grid)
from .microstructure import (
    MIN_CELLS_ACROSS,
    FiberLattice,
    TooFewCells,
    TwoPhaseInclusion,
    check_cells_across,
    check_resolution,
    radius_for_gamma,
)

_CAP = 2048

#: default eps ladders of the shrinking-inclusion (thm22) and fiber (thm31)
#: families and of the gap map, and the fiber sweeps' capacity density
THM22_EPS = (1 / 2, 1 / 4, 1 / 8)
THM31_EPS = (1 / 3, 1 / 4, 1 / 5, 1 / 6)
GAP_MAP_EPS = (1 / 3, 1 / 4, 1 / 5)
DEFAULT_GAMMA = 2.0

#: contrast growth of the fiber medium: beta = r^{-2} eps^{-5}.  The rate
#: r^{-2}/eps, whose beta r^2 = 1/eps, grows too slowly for the spectral gap
#: to open at desk-scale epsilon; this stronger one still satisfies
#: beta -> infinity with vanishing inclusion area.
FIBER_BETA_EXPONENT = 5


def fiber_beta(eps: float, r_eps: float) -> float:
    """The fiber conductivity ``r_eps^-2 eps^-5`` of every fiber sweep and
    of ``fiber()`` without ``beta``; ``OverflowError``, naming it, when it
    is not a finite float."""
    try:
        beta = r_eps**-2 * float(eps) ** -FIBER_BETA_EXPONENT
    except ArithmeticError:  # r_eps^-2 alone overflows, or r_eps = 0
        beta = math.inf
    if not math.isfinite(beta):
        raise OverflowError(f"the fiber conductivity r^-2 eps^-{FIBER_BETA_EXPONENT} "
                            f"overflows at eps = {float(eps):.4g}, r = {r_eps:.4g}")
    return beta


#: experiment -> (its default eps ladder, whether its cell is a fiber
#: section, whether it also solves on the doubled ``2m x 2m`` mesh)
_SWEEPS = {
    "thm22": (THM22_EPS, False, True),
    "pw_thm22": (THM22_EPS, False, False),
    "thm31": (THM31_EPS, True, True),
    "gap_map": (GAP_MAP_EPS, True, False),
    "pw_fiber": (THM31_EPS, True, False),
}

#: cells per axis of the ``capacity`` annulus check when no ``n`` is given
ANNULUS_N = 512


class PlanError(ValueError):
    """A run that no grid plan admits; ``keys`` are the inputs the failing
    rule reads, the one to blame first."""

    def __init__(self, message: str, *keys: str):
        super().__init__(message)
        self.keys = keys


def resolve_resolution(eps: float, feature_extent: float) -> int:
    """Full-grid cell count per axis for a physical feature size.

    Smallest multiple of 1/eps with >= 8 cells across the feature, capped
    at 2048; below 4 cells across even at the cap, the case is refused.
    """
    inv = _reciprocal_int(eps)
    if feature_extent <= 0:
        raise ValueError("feature extent must be positive")
    need = 8 * 2.0 * math.pi / feature_extent  # inf for a subnormal extent
    cap = (_CAP // inv) * inv
    if need <= cap:
        return inv * math.ceil(need / inv)
    have = cap * feature_extent / (2.0 * math.pi)
    if have < MIN_CELLS_ACROSS:
        raise ValueError(
            f"feature of extent {feature_extent:.3e} spans only "
            f"{have:.2f} cells at the {_CAP} cap; case unresolvable"
        )
    return cap


def check_eta(experiment: str, eta) -> None:
    """Refuse a momentum of ``experiment:<experiment>`` that breaks the
    experiment's rule: three components with a nonzero third, in the first
    zone, for the fiber sweeps (thm31, gap_map), and for thm31 a nonzero
    in-plane part too; else two, nonzero for the Poincare sweeps (pw_thm22,
    pw_fiber), of norm in (0, 1/4] for thm22.  At a zero (in-plane)
    momentum the eigenvalues, forms or constants that the checks compare
    vanish, and the checks would compare rounding."""
    eta = np.asarray(eta, dtype=np.float64)
    fiber = experiment in ("thm31", "gap_map")
    if eta.shape != ((3,) if fiber else (2,)):
        raise ValueError(f"eta must have {'three' if fiber else 'two'} components")
    if fiber and eta[2] == 0.0:
        run = "main run" if experiment == "thm31" else "map"
        raise ValueError(f"{run} needs a nonzero third momentum component")
    if experiment == "thm31" and not eta[:2].any():
        raise ValueError("control run needs a nonzero in-plane momentum (eta1, eta2)")
    if experiment.startswith("pw_") and not eta.any():
        raise ValueError("the weight direction must be nonzero")
    if fiber:
        _require_first_zone(eta)
    if experiment == "thm22" and not 0.0 < float(np.hypot(*eta)) <= 0.25 + 1e-12:
        raise ValueError("sweep is meaningful only for 0 < |eta| <= 1/4")


def check_t_list(t_list) -> None:
    """Refuse gap-map momentum scales unless they start at 1 and strictly
    decrease through at least two entries, all positive (a negative scale
    reflects the momentum)."""
    t_list = [float(t) for t in t_list]
    if len(t_list) < 2 or t_list[0] != 1.0 or not all(
        b < a for a, b in zip(t_list, t_list[1:])
    ) or not t_list[-1] > 0.0:
        raise ValueError("t_list must start at 1 and strictly decrease, "
                         "with at least two entries, all > 0")


def plan_sweep(experiment: str, eps=None, *, gamma=None, n: int | None = None, eta=None,
               t_list=None) -> list[tuple[float, int, int, TwoPhaseInclusion | FiberLattice]]:
    """``[(eps, n, m, cell), ...]``, one per rung of ``experiment:<experiment>``:
    full-grid and unit-pattern cells per axis, and the unit-pattern spec that
    every solve of the rung rasterizes on its ``m x m`` (or doubled) grid: the
    inclusion ``rho = eps, beta = eps^-2`` or the fiber section of radius
    ``r = radius_for_gamma(eps, gamma)`` and conductivity ``fiber_beta(eps, r)``.

    ``eps`` defaults to the sweep's ladder, and a fiber sweep's ``gamma``
    to ``DEFAULT_GAMMA``; the inclusion sweeps take no ``gamma``.  The
    ladder strictly decreases, since the checks read its last rung as the
    finest, and every ``1/eps`` must be an integer (above 1 for the
    inclusions); ``n``, when given, overrides the resolution rule and must
    be a multiple of each.  Every cell must pass
    :func:`check_resolution` on its ``m x m`` grid; a refusal names the
    least ``n`` that would pass.  The ``2m x 2m`` grid of thm22's and
    thm31's mesh check must pass :func:`blochlab.grid.make_grid` too.
    Before all these, ``eta`` and ``t_list``, when given, must pass
    :func:`check_eta` and :func:`check_t_list`, each refused on its own key.
    """
    default_eps, fiber, doubled = _SWEEPS[experiment]
    if eta is not None:
        with _blame("eta"):
            check_eta(experiment, eta)
    if t_list is not None:
        with _blame("t_list"):
            check_t_list(t_list)
    if gamma is not None and not fiber:
        raise PlanError(f"the inclusion sweep {experiment} takes no gamma", "gamma")
    eps = [float(e) for e in (default_eps if eps is None else eps)]
    if not eps:
        raise PlanError("the eps ladder is empty", "eps")
    gamma = DEFAULT_GAMMA if gamma is None else float(gamma)
    reads = ("eps", "gamma") if fiber else ("eps",)
    with _blame("eps"):
        inverses = [_reciprocal_int(e) for e in eps]
    if any(a >= b for a, b in zip(inverses, inverses[1:])):
        raise PlanError("the eps ladder must strictly decrease, finest rung last", "eps")
    step = math.lcm(*inverses)
    rungs = []
    for e, s in zip(eps, inverses):
        if fiber:
            with _blame("gamma"):  # e lies in (0, 1]: only gamma can be refused
                r = radius_for_gamma(e, gamma)
        # the grid checks do not read the conductivity, and r^-2 or eps^-2
        # overflows on rungs they refuse: the real beta comes last
        with _blame(*reads):
            if fiber:
                cell, extent = FiberLattice(eps=1.0, r_eps=r, beta=1.0), 2.0 * e * r
            elif s == 1:
                raise ValueError("the inclusion family needs eps < 1: its "
                                 "inclusion rho = eps would fill the cell")
            else:
                cell = TwoPhaseInclusion(eps=1.0, beta=1.0, rho=e)
                extent = 2.0 * math.pi * e * e
            full = resolve_resolution(e, extent) if n is None else n
        if full % s:
            raise PlanError(f"n = {full} is not a multiple of 1/eps = {s} "
                            f"(eps = {e})", "n")
        m = full // s
        with _blame("n", *reads, context=f"eps = {e}, unit-pattern grid of m = n * "
                                         f"eps = {count_text(m)} cells per axis: "):
            try:
                check_resolution(cell, make_grid(2, m))
            except TooFewCells as exc:  # least n, divisible by every 1/eps, with m >= need
                least = -(-min(exc.need * s, _CAP + 1) // step) * step
                hint = (f"need n >= {least}, a multiple of {step}" if least <= _CAP
                        else f"no multiple of {step} up to the {_CAP} cap resolves it")
                raise ValueError(f"{exc.fact}; {hint}") from None
        if doubled:
            with _blame("n", context=f"eps = {e}, doubled-mesh grid of 2m = "
                                     f"{count_text(2 * m)} cells per axis: "):
                make_grid(2, 2 * m)
        cell = replace(cell, beta=fiber_beta(e, r) if fiber else float(s * s))
        rungs.append((e, full, m, cell))
    return rungs


def plan_single(a, n: int, eta=None) -> PeriodicGrid:
    """The grid on which a single command solves medium ``a``: ``n`` cells
    per axis on ``len(eta[0])`` axes for the momenta ``eta``, planar for
    ``homogenize``; refused on ``n`` by :func:`blochlab.grid.make_grid` or
    :func:`check_resolution` (rasterize's checks, without rasterizing)."""
    with _blame("n"):
        grid = make_grid(2 if eta is None else len(eta[0]), n)
        check_resolution(a, grid)
    return grid


def plan_capacity(eps=None, gamma=None, *, r=None, R=None, n: int | None = None
                  ) -> list[tuple[float | None, float, float, PeriodicGrid]]:
    """``[(eps, r, R, grid), ...]``, the rows of the ``capacity`` command,
    each with the ``n x n`` grid its profile was checked on.

    ``r`` alone plans the annulus check, one row with ``eps`` ``None`` and
    ``n`` defaulting to ``ANNULUS_N``; ``eps`` and ``gamma`` the sweep, one
    row per ``eps`` with ``r = radius_for_gamma(eps, gamma)`` and, without
    ``n``, the resolution rule's ``n`` (which needs every ``1/eps`` an
    integer).  ``R`` defaults to ``DEFAULT_R``.  Every profile needs
    ``0 < r < R < pi`` and ``MIN_CELLS_ACROSS`` cells across its disc (the
    rule of the capacity solves); every sweep ``eps`` lies in ``(0, 1]``
    and ``gamma`` is positive.
    """
    given = {"eps": eps is not None, "gamma": gamma is not None}
    if r is not None and any(given.values()):
        raise PlanError("not read in the annulus mode of capacity (r is set)",
                        *(k for k in given if given[k]))
    if r is None and not all(given.values()):
        raise PlanError("capacity needs either r (annulus check) or eps and gamma "
                        "(scaled-energy sweep)", *(k for k in given if not given[k]))
    R = DEFAULT_R if R is None else float(R)
    if r is not None:
        r, n = float(r), ANNULUS_N if n is None else n
        with _blame(*(("r", "R") if 0.0 < R < math.pi else ("R", "r"))):
            CapacityProfile(r, R)
        with _blame("n", "r"):
            grid = make_grid(2, n)
            check_cells_across(2.0 * r, grid)
        return [(None, r, R, grid)]
    gamma = float(gamma)
    if not eps:
        raise PlanError("the eps ladder is empty", "eps")
    rows = []
    for e in eps:
        with _blame("eps"):
            e = check_eps(e)
        with _blame("gamma"):
            rad = radius_for_gamma(e, gamma)
        with _blame(*(("R", "eps", "gamma") if rad > 0 else ("eps", "gamma", "R"))):
            CapacityProfile(rad, R)  # rad is 0 where 2 pi eps^2 gamma underflows
        with _blame("eps", "gamma"):
            full = resolve_resolution(e, 2.0 * e * rad) if n is None else n
        with _blame("n", "eps", "gamma"):
            grid = make_grid(2, full)
            check_cells_across(2.0 * rad, grid)
        rows.append((e, rad, R, grid))
    return rows


@contextmanager
def _blame(*keys: str, context: str = ""):
    """Turn a rule's ``ValueError`` into a :class:`PlanError` blaming
    ``keys``, its message after ``context``."""
    try:
        yield
    except ValueError as exc:
        raise PlanError(context + str(exc), *keys) from None
