"""Scripted convergence sweeps over shrinking-period high-contrast media.

Each harness returns an :class:`ExperimentTable` built by
:func:`make_table`, the one table builder of the package: one row dict per
case, whose key order is the CSV column order (``None`` for a quantity the
family does not define), and named pass/fail checks that are also
replicated into columns (assertion outcomes are data, never silent, and
never fatal).  Rows are computed independently — no state flows between
them — so any single row is bitwise reproducible from the table metadata
alone (solver start vectors come from a fixed internal seed).

Every harness lists its independent solves as tasks and hands them to
:func:`map_tasks`, which runs them in this process or on a fork pool and
returns the results in input order; rows are then built in order, so the
table does not depend on the worker count.  A row's wall time is the sum of
its tasks' times; wall times belong to the metadata sidecar, not the CSV,
which must be byte-stable across reruns.

Resolution rule: the full-grid resolution per epsilon is the smallest
multiple of 1/eps giving at least 8 cells across the finest feature,
capped at 2048 per axis (below 4 cells even at the cap the case is
refused); solves run on the matched unit-pattern grid of ``n * eps``
cells.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .bloch import bloch_reduced, fiber_lambda1_2d
from .cell_problems import Q_NORMALIZATION, dispersion, homogenized, pw_constant
from .grid import _reciprocal_int, make_grid
from .microstructure import (
    CoefficientField,
    FiberLattice,
    TwoPhaseInclusion,
    radius_for_gamma,
    rasterize,
    unit_pattern,
)

_CAP = 2048
_MIN_CELLS = 4

#: contrast growth used by the fiber sweeps: beta = r^{-2} eps^{-5}.  The
#: shared default_beta rule (r^{-2}/eps) grows too slowly for the spectral
#: gap to open at desk-scale epsilon, so the harnesses use this stronger
#: rate; it still satisfies beta -> infinity with vanishing inclusion area.
FIBER_BETA_EXPONENT = 5


def fiber_beta(eps: float, r_eps: float) -> float:
    return r_eps**-2 * float(eps) ** -FIBER_BETA_EXPONENT


@dataclass
class ExperimentTable:
    name: str
    columns: list[str]          # CSV schema; runtime lives in the sidecar
    rows: list[dict]
    checks: dict[str, bool]
    meta: dict = field(default_factory=dict)
    workers: int = 1            # processes the rows were computed on

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def column(self, key: str) -> list:
        return [row[key] for row in self.rows]


def make_table(name: str, rows: list[dict], workers: int,
               checks: dict[str, bool] | None = None,
               meta: dict | None = None) -> ExperimentTable:
    """The table of ``rows``, computed on ``workers`` processes.

    Each row's key order is the CSV column order; a ``runtime_seconds``
    cell stays in the row for the sidecar but is not a column.  Every check
    is appended to every row as a ``bool`` column.  A non-finite float cell
    raises ``ValueError``.
    """
    checks = checks or {}
    for row in rows:
        for key, v in row.items():
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"non-finite row entry {key}={v}")
        row.update((key, bool(ok)) for key, ok in checks.items())
    columns = [c for c in (rows[0] if rows else ()) if c != "runtime_seconds"]
    return ExperimentTable(name, columns, rows, checks, meta or {}, workers)


def eta_cells(eta, prefix: str = "eta") -> dict:
    """``{prefix1: eta[0], ..., prefixd: eta[d-1]}`` as floats."""
    return {f"{prefix}{k + 1}": float(v) for k, v in enumerate(eta)}


def resolve_resolution(eps: float, feature_extent: float) -> int:
    """Full-grid cell count per axis for a physical feature size.

    Smallest multiple of 1/eps with >= 8 cells across the feature, capped
    at 2048; below 4 cells across even at the cap, the case is refused.
    """
    inv = _reciprocal_int(eps)
    if feature_extent <= 0:
        raise ValueError("feature extent must be positive")
    need = 8 * 2.0 * math.pi / feature_extent
    n = inv * math.ceil(need / inv)
    if n > _CAP:
        n = (_CAP // inv) * inv
        have = n * feature_extent / (2.0 * math.pi)
        if have < _MIN_CELLS:
            raise ValueError(
                f"feature of extent {feature_extent:.3e} spans only "
                f"{have:.2f} cells at the {_CAP} cap; case unresolvable"
            )
    return n


def pool_size(threads: int, n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` independent tasks: the requested
    count clamped to the number of tasks and to the usable cores."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        cores = os.cpu_count() or 1
    return max(1, min(int(threads), n_tasks, cores))


def _timed(fn, task: tuple) -> tuple:
    t0 = time.perf_counter()
    value = fn(*task)
    return value, time.perf_counter() - t0


def map_tasks(fn, tasks, workers: int = 1, cost=None) -> list[tuple]:
    """``[(fn(*task), wall seconds), ...]`` for independent tasks, in input
    order.

    With one worker after :func:`pool_size` the tasks run in this process.
    Otherwise they run on a fork pool, one task at a time per worker,
    submitted in decreasing ``cost`` (grid cells) so that the largest
    solves start first.  ``fn`` must be a module-level function, and tasks
    and results must pickle: tasks carry specs (eps, m, eta), never fields,
    and return scalars.  An exception raised in a task re-raises here.
    """
    tasks = list(tasks)
    n_workers = pool_size(workers, len(tasks))
    if n_workers == 1:
        return [_timed(fn, task) for task in tasks]
    import multiprocessing  # only pooled runs pay for the import

    order = list(range(len(tasks)))
    if cost is not None:
        order.sort(key=lambda i: -cost[i])
    # fork, not spawn: workers inherit numpy, scipy and blochlab already
    # imported (tens of ms per worker instead of a fresh interpreter), and
    # this process starts no threads of its own
    with multiprocessing.get_context("fork").Pool(n_workers) as pool:
        done = pool.starmap(_timed, [(fn, tasks[i]) for i in order], chunksize=1)
    out: list = [None] * len(tasks)
    for i, result in zip(order, done):
        out[i] = result
    return out


def _grid_sizes(eps: float, extent: float, resolution: int | None = None):
    """``(n, m)``: full-grid cells per axis and unit-pattern cells per axis."""
    n = resolution or resolve_resolution(eps, extent)
    return n, n // _reciprocal_int(eps)


def _nonincreasing(seq) -> bool:
    return all(b <= a for a, b in zip(seq, seq[1:]))


def _nondecreasing(seq) -> bool:
    return all(b >= a for a, b in zip(seq, seq[1:]))


def _unit_inclusion(eps: float, m: int) -> CoefficientField:
    # shrinking-inclusion family: rho = eps, beta = eps^-2, on the unit pattern
    spec = TwoPhaseInclusion(eps=eps, beta=float(_reciprocal_int(eps)) ** 2, rho=eps)
    return rasterize(unit_pattern(spec), make_grid(2, (m, m)))


def _thm22_task(eps: float, m: int, eta: np.ndarray, forms: bool) -> tuple:
    """``(q_eta_eta, eps^2 dispersion)`` when ``forms``, else
    ``(lambda1, iterations)`` of the reduced solve."""
    unit = _unit_inclusion(eps, m)
    if forms:
        q_eta_eta = float(eta @ homogenized(unit).q @ eta)
        return q_eta_eta, eps * eps * dispersion(unit, eta).value
    res = bloch_reduced(unit, eps, eta, tol=1e-11)
    return res.lambda1, res.iterations


def run_thm22(
    eps_list=(1 / 2, 1 / 4, 1 / 8),
    eta=(0.25, 0.0),
    *,
    resolution: int | None = None,
    workers: int = 1,
) -> ExperimentTable:
    """Shrinking-inclusion sweep: rho = eps, beta = eps^{-2}.

    Tracks the first-eigenvalue gap to the effective quadratic form and the
    dispersive coefficient of the oscillating medium; both must shrink as
    the period does.  ``workers`` is the requested pool size of
    :func:`map_tasks`.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (2,):
        raise ValueError("eta must have two components")
    if float(np.hypot(*eta)) > 0.25 + 1e-12:
        raise ValueError("sweep is meaningful only for |eta| <= 1/4")
    rungs = [
        (eps, *_grid_sizes(eps, 2.0 * math.pi * eps * eps, resolution))
        for eps in eps_list
    ]
    tasks = []
    for eps, _, m in rungs:
        tasks += [(eps, m, eta, True), (eps, m, eta, False), (eps, 2 * m, eta, False)]
    workers = pool_size(workers, len(tasks))
    done = iter(map_tasks(_thm22_task, tasks, workers, [t[1] ** 2 for t in tasks]))
    rows = []
    for eps, n, m in rungs:
        (q_eta_eta, disp_eps), t_forms = next(done)
        (lam, iters), t_lam = next(done)
        (lam2, _), t_lam2 = next(done)
        mesh_rel = abs(lam2 - lam) / max(abs(lam), 1e-300)
        rows.append({
            "eps": float(eps), "n": n, "m": m, **eta_cells(eta),
            "lambda1": lam,
            "q_eta_eta": q_eta_eta,
            "gap": abs(lam - q_eta_eta),
            "dispersion_value": disp_eps,
            "lambda1_doubled": lam2,
            "mesh_rel_change": mesh_rel,
            "mesh_pass": mesh_rel <= 0.01,
            "iterations": iters,
            "runtime_seconds": t_forms + t_lam + t_lam2,
        })

    checks = {
        "gap_nonincreasing_pass": _nonincreasing([r["gap"] for r in rows]),
        "dispersion_nonincreasing_pass": _nonincreasing(
            [abs(r["dispersion_value"]) for r in rows]
        ),
    }
    meta = {
        "experiment": "thm22",
        "microstructure": "two_phase(rho=eps, beta=eps^-2, shape=square)",
        "eta": [float(v) for v in eta],
        "q_normalization": Q_NORMALIZATION,
    }
    return make_table("thm22", rows, workers, checks, meta)


def _fiber_params(eps: float, gamma: float) -> tuple[float, float]:
    r_eps = radius_for_gamma(eps, gamma)
    return r_eps, fiber_beta(eps, r_eps)


def _fiber_section(eps: float, gamma: float, m: int) -> CoefficientField:
    r_eps, beta = _fiber_params(eps, gamma)
    return rasterize(FiberLattice(eps=1.0, r_eps=r_eps, beta=beta), make_grid(2, (m, m)))


def _fiber_sizes(eps: float, gamma: float, resolution: int | None = None):
    return _grid_sizes(eps, 2.0 * eps * radius_for_gamma(eps, gamma), resolution)


def _fiber_task(
    eps: float, gamma: float, m: int, eta_p: np.ndarray, eta3: float
) -> tuple[float, int]:
    """``(lambda1, iterations)`` of one fiber cross-section solve."""
    res = fiber_lambda1_2d(_fiber_section(eps, gamma, m), eps, eta_p, eta3, tol=1e-9)
    return res.lambda1, res.iterations


def run_thm31(
    eps_list=(1 / 3, 1 / 4, 1 / 5, 1 / 6),
    gamma: float = 2.0,
    eta=(0.2, 0.2, 0.3),
    *,
    resolution: int | None = None,
    with_mesh_check: bool = True,
    workers: int = 1,
) -> ExperimentTable:
    """Thin-fiber sweep at the critical radius scaling.

    The third momentum component activates the fibers: the excess
    ``lambda1 - |eta|^2`` climbs toward ``gamma``, while the control run
    with the third component off stays flat.  Solved through the
    cross-section reduction (the medium does not vary along the fibers).
    The homogenized-form and dispersion columns stay empty: the fiber
    family has unbounded mean conductivity, which is exactly why its limit
    eigenvalue detaches from any effective parabola.  The main, control
    and doubled-mesh solves of every rung are separate tasks of
    :func:`map_tasks`, on ``workers`` requested processes.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (3,):
        raise ValueError("eta must have three components")
    if eta[2] == 0.0:
        raise ValueError("main run needs a nonzero third momentum component")
    eta_sq = float(eta @ eta)
    eta_p = eta[:2]
    rungs = [(eps, *_fiber_sizes(eps, gamma, resolution)) for eps in eps_list]
    tasks = []
    for eps, _, m in rungs:
        tasks += [(eps, gamma, m, eta_p, float(eta[2])), (eps, gamma, m, eta_p, 0.0)]
        if with_mesh_check:
            tasks.append((eps, gamma, 2 * m, eta_p, float(eta[2])))
    workers = pool_size(workers, len(tasks))
    done = iter(map_tasks(_fiber_task, tasks, workers, [t[2] ** 2 for t in tasks]))
    rows = []
    for eps, n, m in rungs:
        (lam, iters), seconds = next(done)
        (ctrl_lam, _), ctrl_seconds = next(done)
        seconds += ctrl_seconds
        r_eps, beta = _fiber_params(eps, gamma)
        excess = lam - eta_sq
        ctrl_excess = ctrl_lam - float(eta_p @ eta_p)
        row = {
            "eps": float(eps), "n": n, "m": m, "r_eps": r_eps, "beta": beta,
            **eta_cells(eta),
            "lambda1": lam,
            "q_eta_eta": None,
            "dispersion_value": None,
            "gap": excess,
            "excess": excess,
            "control_lambda1": ctrl_lam,
            "control_excess": ctrl_excess,
            "excess_ratio": excess / max(abs(ctrl_excess), 1e-300),
            "iterations": iters,
        }
        if with_mesh_check:
            (lam2, _), mesh_seconds = next(done)
            seconds += mesh_seconds
            mesh_rel = abs(lam2 - lam) / lam
            row.update(lambda1_doubled=lam2, mesh_rel_change=mesh_rel,
                       mesh_pass=mesh_rel <= 0.01)
        row["runtime_seconds"] = seconds
        rows.append(row)

    excesses = [r["excess"] for r in rows]
    checks = {
        "excess_monotone_pass": _nondecreasing(excesses),
        "excess_band_pass": 0.5 * gamma <= excesses[-1] <= 1.5 * gamma,
        "control_flat_pass": all(
            abs(r["control_excess"]) <= 0.25 * gamma for r in rows
        ),
    }
    meta = {
        "experiment": "thm31",
        "microstructure": "fiber_lattice(r=radius_for_gamma, beta=r^-2*eps^-5)",
        "gamma": gamma,
        "eta": [float(v) for v in eta],
        "beta_rule": f"r^-2 * eps^-{FIBER_BETA_EXPONENT}",
        "q_normalization": Q_NORMALIZATION,
    }
    return make_table("thm31", rows, workers, checks, meta)


def run_gap_map(
    eps_list=(1 / 3, 1 / 4, 1 / 5),
    gamma: float = 2.0,
    eta=(0.2, 0.2, 0.3),
    t_list=(1.0, 1 / 4, 1 / 16, 1 / 64),
    *,
    workers: int = 1,
) -> ExperimentTable:
    """Order-of-limits map over (eps, t) for momentum t*eta.

    At fixed eps the first eigenvalue vanishes with the momentum, yet the
    t = 1 column keeps a finite floor as eps shrinks — the two limits do
    not commute, which is the discontinuity at zero momentum.  Every
    (eps, t) cell is one task of :func:`map_tasks`.
    """
    eta = np.asarray(eta, dtype=np.float64)
    if eta.shape != (3,):
        raise ValueError("eta must have three components")
    if eta[2] == 0.0:
        raise ValueError("map needs a nonzero third momentum component")
    if np.isscalar(eps_list):
        eps_list = (float(eps_list),)
    t_list = [float(t) for t in t_list]
    if sorted(t_list, reverse=True) != t_list or t_list[0] != 1.0:
        raise ValueError("t_list must start at 1 and decrease")
    rungs = [(eps, *_fiber_sizes(eps, gamma)) for eps in eps_list]
    cells = [(eps, n, m, t) for eps, n, m in rungs for t in t_list]
    tasks = [(eps, gamma, m, t * eta[:2], float(t * eta[2])) for eps, _, m, t in cells]
    workers = pool_size(workers, len(tasks))
    done = map_tasks(_fiber_task, tasks, workers, [t[2] ** 2 for t in tasks])
    rows = []
    lam_at_1: dict[float, float] = {}
    for (eps, n, m, t), ((lam, iters), seconds) in zip(cells, done):
        if t == 1.0:
            lam_at_1[eps] = lam
        r_eps, beta = _fiber_params(eps, gamma)
        rows.append({
            "eps": float(eps), "t": t, "n": n, "m": m, "r_eps": r_eps, "beta": beta,
            **eta_cells(t * eta),
            "lambda1": lam,
            "lambda1_over_t1": lam / lam_at_1[eps],
            "iterations": iters,
            "runtime_seconds": seconds,
        })

    t_min = t_list[-1]
    vanishing = all(
        row["lambda1"] <= 0.05 * lam_at_1[row["eps"]]
        for row in rows
        if row["t"] == t_min
    )
    floor = all(
        lam >= 0.5 * gamma for eps, lam in lam_at_1.items() if eps <= 0.25 + 1e-12
    )
    checks = {"vanishing_at_small_t_pass": vanishing, "t1_floor_pass": floor}
    meta = {
        "experiment": "gap_map",
        "microstructure": "fiber_lattice(r=radius_for_gamma, beta=r^-2*eps^-5)",
        "gamma": gamma,
        "eta": [float(v) for v in eta],
        "t_list": t_list,
        "beta_rule": f"r^-2 * eps^-{FIBER_BETA_EXPONENT}",
    }
    return make_table("gap_map", rows, workers, checks, meta)


def _pw_task(family: str, eps: float, gamma: float, m: int, lam: np.ndarray):
    """``(C, mean_a)`` on the family's unit cell; ``mean_a`` is ``None``
    for the inclusion family."""
    if family == "thm22":
        return pw_constant(_unit_inclusion(eps, m), lam), None
    section = _fiber_section(eps, gamma, m)
    # inner tolerance sits above the CG stagnation floor at the extreme
    # contrast of the finest rung
    C = pw_constant(section, lam, tol=1e-7, cg_tol=1e-7)
    return C, float(section.a.mean())


def run_pw(
    eps_list=None,
    family: str = "thm22",
    eta=(0.25, 0.0),
    *,
    gamma: float = 2.0,
    workers: int = 1,
) -> ExperimentTable:
    """Weighted Poincare constants along the two microstructure families.

    thm22 family: ``eps^2 C`` must fall (the constants grow slower than the
    contrast).  Fiber family: ``C / (|ln r| mean(a))`` stays order one —
    the weighted constant tracks the conductivity mass and the log factor.
    Constants are computed on the unit cell of each family's pattern, one
    :func:`map_tasks` task per eps.  ``eta`` is the weight direction of
    :func:`pw_constant` (``lambda`` in the metadata).
    """
    if family not in ("thm22", "fiber"):
        raise ValueError(f"unknown family {family!r}")
    eta = np.atleast_1d(np.asarray(eta, dtype=np.float64))
    eta2d = eta[:2]
    if family == "thm22":
        eps_list = tuple(eps_list) if eps_list is not None else (1 / 2, 1 / 4, 1 / 8)
        rungs = [(eps, *_grid_sizes(eps, 2.0 * math.pi * eps * eps)) for eps in eps_list]
    else:
        eps_list = tuple(eps_list) if eps_list is not None else (
            1 / 3, 1 / 4, 1 / 5, 1 / 6,
        )
        rungs = [(eps, *_fiber_sizes(eps, gamma)) for eps in eps_list]
    tasks = [(family, eps, gamma, m, eta2d) for eps, _, m in rungs]
    workers = pool_size(workers, len(tasks))
    done = map_tasks(_pw_task, tasks, workers, [t[3] ** 2 for t in tasks])
    rows = []
    for (eps, n, m), ((C, mean_a), seconds) in zip(rungs, done):
        row = {"eps": float(eps), "n": n, "m": m, **eta_cells(eta2d)}
        if family == "thm22":
            row.update(pw_constant=C, eps2_C=eps * eps * C)
        else:
            r_eps, beta = _fiber_params(eps, gamma)
            row.update(r_eps=r_eps, beta=beta, pw_constant=C, mean_a=mean_a,
                       ratio=C / (abs(math.log(r_eps)) * mean_a))
        row["runtime_seconds"] = seconds
        rows.append(row)
    if family == "thm22":
        checks = {
            "eps2C_nonincreasing_pass": _nonincreasing(
                [r["eps2_C"] for r in rows]
            )
        }
    else:
        checks = {"ratio_bounded_pass": all(r["ratio"] <= 10.0 for r in rows)}
    meta = {
        "experiment": f"pw_{family}",
        "family": family,
        "lambda": [float(v) for v in eta],
        "gamma": gamma,
    }
    return make_table(f"pw_{family}", rows, workers, checks, meta)
