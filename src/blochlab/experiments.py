"""Scripted convergence sweeps over shrinking-period high-contrast media.

Each harness returns an :class:`ExperimentTable` built by
:func:`make_table`, the one table builder of the package: one row dict per
case, whose key order is the CSV column order (``None`` for a quantity the
family does not define), and named pass/fail checks that are also
replicated into columns (assertion outcomes are data, never silent, and
never fatal).  Rows are computed independently — no state flows between
them — so any single row is bitwise reproducible from the table metadata
alone (solver start vectors come from a fixed internal seed).
Every harness takes its rungs from :func:`blochlab.plan.plan_sweep`: each
rung's grids and the unit cell every solve of the rung rasterizes, planned
under the resolution rule and every grid check before the first solve, on
the sweep's default eps ladder when ``eps`` is ``None``.

Every harness lists its independent solves as tasks and hands them to
:func:`map_tasks`, which runs them in this process or on a fork pool and
returns the results in input order; rows are then built in order, so the
table does not depend on the worker count.  A pool's parent imports scipy
before it forks, so the workers share one sparse carrier.  Each pooled
task also reads its worker's peak resident set as it ends, and the table
keeps the largest.  A row's wall time is the sum of its tasks' times; wall
times belong to the metadata sidecar, not the CSV, which must be
byte-stable across reruns.
"""

from __future__ import annotations

import functools
import math
import os
import resource
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bloch import _require_first_zone, bloch_reduced, fiber_lambda1_2d
from .cell_problems import dispersion, pw_constant
from .grid import make_grid
from .microstructure import rasterize
from .plan import DEFAULT_GAMMA, FIBER_BETA_EXPONENT
from .plan import fiber_beta, plan_sweep  # noqa: F401  (fiber_beta is re-exported)


@dataclass
class ExperimentTable:
    columns: list[str]          # CSV schema; runtime lives in the sidecar
    rows: list[dict]
    checks: dict[str, bool]
    meta: dict = field(default_factory=dict)
    workers: int = 1            # processes the rows were computed on
    worker_peak_mb: float | None = None  # largest pool worker peak; None: no pool

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def make_table(rows: list[dict], workers: int,
               checks: dict[str, bool] | None = None,
               meta: dict | None = None,
               worker_peak_mb: float | None = None) -> ExperimentTable:
    """The table of ``rows``, computed on ``workers`` processes whose pool
    workers peaked at ``worker_peak_mb`` (``None`` when no pool ran).

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
    return ExperimentTable(columns, rows, checks, meta or {}, workers, worker_peak_mb)


def eta_cells(eta, prefix: str = "eta") -> dict:
    """``{prefix1: eta[0], ..., prefixd: eta[d-1]}`` as floats."""
    return {f"{prefix}{k + 1}": float(v) for k, v in enumerate(eta)}


def pool_size(threads: int, n_tasks: int) -> int:
    """Worker processes for ``n_tasks`` independent tasks: the requested
    count clamped to the number of tasks and to the usable cores."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:  # pragma: no cover - platforms without affinity masks
        cores = os.cpu_count() or 1
    return max(1, min(int(threads), n_tasks, cores))


def os_threads() -> int | None:
    """Threads of this process in ``/proc/self/task``; ``None`` without procfs."""
    try:
        return len(os.listdir("/proc/self/task"))
    except FileNotFoundError:
        return None


@functools.cache
def _threads_before_pools() -> int | None:
    """:func:`os_threads` as this process forks its first pool, read once:
    ``/proc/self/task`` can still list a finished pool's handler threads for
    a moment after it returns, and they are no reason to warn."""
    return os_threads()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MB.

    It is ``VmHWM`` where ``/proc/self/status`` has it: Linux carries
    ``ru_maxrss`` over ``exec``, so that would also report the launcher's
    peak.  ``ru_maxrss`` is the fallback elsewhere.
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            return next(int(line.split()[1]) / 1024.0  # kB
                        for line in fh if line.startswith(b"VmHWM:"))
    except (OSError, StopIteration):
        unit = 1024.0**2 if sys.platform == "darwin" else 1024.0  # bytes or KiB
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit


def _timed(fn, task: tuple) -> tuple:
    t0 = time.perf_counter()
    value = fn(*task)
    return value, time.perf_counter() - t0


def _pooled(fn, task: tuple) -> tuple:
    """:func:`_timed` in a pool worker, with the worker's peak so far."""
    return *_timed(fn, task), peak_rss_mb()


def map_tasks(fn, tasks, workers: int = 1,
              cost=None) -> tuple[list[tuple], int, float | None]:
    """``([(fn(*task), wall seconds), ...], pool, peak)`` for independent
    tasks, in input order, run on ``pool = pool_size(workers, len(tasks))``
    processes; ``peak`` is the largest :func:`peak_rss_mb` that a pooled
    task read in its worker as it ended (``None`` when no pool ran).

    With a pool of one the tasks run in this process.  Otherwise this
    process imports ``scipy.sparse``, which every pooled task's assembly
    needs, and forks a pool that inherits it; the tasks run one at a time
    per worker, submitted in decreasing ``cost`` (grid cells) so that the
    largest solves start first, and a task's time holds no import.  Forking
    from a process that :func:`os_threads` showed running more than one
    thread before its first pool (an unpinned BLAS) raises a
    ``RuntimeWarning`` first.
    ``fn`` must be a module-level function, and tasks and results must
    pickle: tasks carry specs (eps, cell, m, eta, or a grid, which is a
    ``(d, n)`` spec), never fields, and return scalars.  An exception
    raised in a task re-raises here.
    """
    tasks = list(tasks)
    n_workers = pool_size(workers, len(tasks))
    if n_workers == 1:
        return [_timed(fn, task) for task in tasks], 1, None
    import multiprocessing  # only pooled runs pay for the import

    # loaded once, here, so its pages are shared with every worker, which
    # does not count them until it touches them
    import scipy.sparse  # noqa: F401

    order = list(range(len(tasks)))
    if cost is not None:
        order.sort(key=lambda i: -cost[i])
    # fork, not spawn: workers inherit numpy, scipy and blochlab already
    # imported (tens of ms per worker instead of a fresh interpreter).  A
    # fork is safe only from a single-threaded process: blochlab and scipy
    # start no threads, but numpy's BLAS does unless it is pinned to one
    # thread before numpy loads, too late to do here, so this only warns
    threads = _threads_before_pools()
    if threads is not None and threads > 1:
        warnings.warn(f"forking {n_workers} pool workers from a process with "
                      f"{threads} threads; set OPENBLAS_NUM_THREADS=1 before "
                      "the run", RuntimeWarning, stacklevel=2)
    with multiprocessing.get_context("fork").Pool(n_workers) as pool:
        done = pool.starmap(_pooled, [(fn, tasks[i]) for i in order], chunksize=1)
    out: list = [None] * len(tasks)
    for i, (value, seconds, _) in zip(order, done):
        out[i] = (value, seconds)
    return out, n_workers, max(peak for *_, peak in done)


def check_eta(experiment: str, eta) -> np.ndarray:
    """The momentum of ``experiment:<experiment>`` as a float array, once it
    passes the harness's rule: three components with a nonzero third, in the
    first zone, for the fiber sweeps (thm31, gap_map), else two, of norm in
    (0, 1/4] for thm22 (at zero momentum its eigenvalues and forms vanish,
    and its checks would compare rounding)."""
    eta = np.asarray(eta, dtype=np.float64)
    fiber = experiment in ("thm31", "gap_map")
    if eta.shape != ((3,) if fiber else (2,)):
        raise ValueError(f"eta must have {'three' if fiber else 'two'} components")
    if fiber and eta[2] == 0.0:
        run = "main run" if experiment == "thm31" else "map"
        raise ValueError(f"{run} needs a nonzero third momentum component")
    if fiber:
        _require_first_zone(eta)
    if experiment == "thm22" and not 0.0 < float(np.hypot(*eta)) <= 0.25 + 1e-12:
        raise ValueError("sweep is meaningful only for 0 < |eta| <= 1/4")
    return eta


def check_t_list(t_list) -> list[float]:
    """The gap map's momentum scales as floats, once they start at 1 and
    strictly decrease through at least two entries, all positive (a negative
    scale reflects the momentum)."""
    t_list = [float(t) for t in t_list]
    if len(t_list) < 2 or t_list[0] != 1.0 or not all(
        b < a for a, b in zip(t_list, t_list[1:])
    ) or not t_list[-1] > 0.0:
        raise ValueError("t_list must start at 1 and strictly decrease, "
                         "with at least two entries, all > 0")
    return t_list


def _nonincreasing(seq) -> bool:
    return all(b <= a for a, b in zip(seq, seq[1:]))


def _nondecreasing(seq) -> bool:
    return all(b >= a for a, b in zip(seq, seq[1:]))


def _mesh_cells(lam: float, lam2: float) -> dict:
    """The doubled-mesh cells of a row: ``lambda1`` on the ``2m x 2m`` grid,
    its relative change from ``lam``, and whether that is within 1%."""
    mesh_rel = abs(lam2 - lam) / max(abs(lam), 1e-300)
    return {"lambda1_doubled": lam2, "mesh_rel_change": mesh_rel,
            "mesh_pass": mesh_rel <= 0.01}


#: the fiber sweeps' medium, as their sidecars describe it
_FIBER_MEDIUM = (f"fiber_lattice(r=radius_for_gamma, "
                 f"beta=r^-2*eps^-{FIBER_BETA_EXPONENT})")


def _thm22_task(eps: float, cell, m: int, eta: np.ndarray, forms: bool) -> tuple:
    """``(q_eta_eta, eps^2 value)`` of one :func:`dispersion` call (its flux
    form, as the ``dispersion`` command reports it) when ``forms``, else
    ``(lambda1, iterations)`` of the reduced solve, on ``cell`` at ``m x m``."""
    unit = rasterize(cell, make_grid(2, m))
    if forms:
        sample = dispersion(unit, eta)
        return sample.q_eta_eta, eps * eps * sample.value
    res = bloch_reduced(unit, eps, eta)
    return res.lambda1, res.iterations


def run_thm22(
    eps=None,
    eta=(0.25, 0.0),
    *,
    n: int | None = None,
    workers: int = 1,
) -> ExperimentTable:
    """Shrinking-inclusion sweep: rho = eps, beta = eps^{-2}.

    Tracks the first-eigenvalue gap to the effective quadratic form and the
    dispersive coefficient of the oscillating medium; both must shrink as
    the period does.  ``workers`` is the requested pool size of
    :func:`map_tasks`.
    """
    eta = check_eta("thm22", eta)
    rungs = plan_sweep("thm22", eps, n=n)
    tasks = []
    for eps, _, m, cell in rungs:
        tasks += [(eps, cell, m, eta, True), (eps, cell, m, eta, False),
                  (eps, cell, 2 * m, eta, False)]
    done, workers, peak = map_tasks(_thm22_task, tasks, workers, [t[2] ** 2 for t in tasks])
    done = iter(done)
    rows = []
    for eps, n, m, _ in rungs:
        (q_eta_eta, disp_eps), t_forms = next(done)
        (lam, iters), t_lam = next(done)
        (lam2, _), t_lam2 = next(done)
        rows.append({
            "eps": eps, "n": n, "m": m, **eta_cells(eta),
            "lambda1": lam,
            "q_eta_eta": q_eta_eta,
            "gap": abs(lam - q_eta_eta),
            "dispersion_value": disp_eps,
            **_mesh_cells(lam, lam2),
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
    }
    return make_table(rows, workers, checks, meta, peak)


def _fiber_task(eps: float, cell, m: int, eta_p, eta3: float) -> tuple[float, int]:
    """``(lambda1, iterations)`` of one solve on fiber section ``cell`` at ``m x m``."""
    res = fiber_lambda1_2d(rasterize(cell, make_grid(2, m)), eps, eta_p, eta3)
    return res.lambda1, res.iterations


def run_thm31(
    eps=None,
    gamma: float = DEFAULT_GAMMA,
    eta=(0.2, 0.2, 0.3),
    *,
    n: int | None = None,
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
    eta = check_eta("thm31", eta)
    eta_sq = float(eta @ eta)
    eta_p = eta[:2]
    rungs = plan_sweep("thm31", eps, gamma=gamma, n=n)
    tasks = []
    for eps, _, m, cell in rungs:
        tasks += [(eps, cell, m, eta_p, float(eta[2])), (eps, cell, m, eta_p, 0.0),
                  (eps, cell, 2 * m, eta_p, float(eta[2]))]
    done, workers, peak = map_tasks(_fiber_task, tasks, workers, [t[2] ** 2 for t in tasks])
    done = iter(done)
    rows = []
    for eps, n, m, cell in rungs:
        (lam, iters), seconds = next(done)
        (ctrl_lam, _), ctrl_seconds = next(done)
        (lam2, _), mesh_seconds = next(done)
        excess = lam - eta_sq
        ctrl_excess = ctrl_lam - float(eta_p @ eta_p)
        rows.append({
            "eps": eps, "n": n, "m": m, "r_eps": cell.r_eps, "beta": cell.beta,
            **eta_cells(eta),
            "lambda1": lam,
            "q_eta_eta": None,
            "dispersion_value": None,
            "excess": excess,
            "control_lambda1": ctrl_lam,
            "control_excess": ctrl_excess,
            "excess_ratio": excess / max(abs(ctrl_excess), 1e-300),
            "iterations": iters,
            **_mesh_cells(lam, lam2),
            "runtime_seconds": seconds + ctrl_seconds + mesh_seconds,
        })

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
        "microstructure": _FIBER_MEDIUM,
        "gamma": gamma,
        "eta": [float(v) for v in eta],
    }
    return make_table(rows, workers, checks, meta, peak)


def run_gap_map(
    eps=None,
    gamma: float = DEFAULT_GAMMA,
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
    eta = check_eta("gap_map", eta)
    t_list = check_t_list(t_list)
    rungs = plan_sweep("gap_map", eps, gamma=gamma)
    points = [(*rung, t) for rung in rungs for t in t_list]
    tasks = [(eps, cell, m, t * eta[:2], float(t * eta[2]))
             for eps, _, m, cell, t in points]
    done, workers, peak = map_tasks(_fiber_task, tasks, workers, [t[2] ** 2 for t in tasks])
    rows = []
    lam_at_1: dict[float, float] = {}
    for (eps, n, m, cell, t), ((lam, iters), seconds) in zip(points, done):
        if t == 1.0:
            lam_at_1[eps] = lam
        rows.append({
            "eps": eps, "t": t, "n": n, "m": m,
            "r_eps": cell.r_eps, "beta": cell.beta,
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
        "microstructure": _FIBER_MEDIUM,
        "gamma": gamma,
        "eta": [float(v) for v in eta],
        "t_list": t_list,
    }
    return make_table(rows, workers, checks, meta, peak)


def _pw_task(cell, m: int, lam: np.ndarray) -> tuple[float, float]:
    """``(C, mean(a))`` on ``cell`` at ``m x m``."""
    unit = rasterize(cell, make_grid(2, m))
    return pw_constant(unit, lam), float(unit.a.mean())


def run_pw(
    eps=None,
    family: str = "thm22",
    eta=(0.25, 0.0),
    *,
    gamma: float | None = None,
    workers: int = 1,
) -> ExperimentTable:
    """Weighted Poincare constants along the two microstructure families.

    thm22 family: ``eps^2 C`` must fall (the constants grow slower than the
    contrast).  Fiber family: the ``ratio`` column is
    ``C / (|ln r| mean(a))``, the constant over the conductivity mass and
    the fiber's log factor, and its check only asks ``ratio <= 10``.  The
    column is not order one: it falls from 0.035 to 0.0008 over
    eps = 1/3 .. 1/6, as the mass grows faster than the constant.
    Constants are computed on each rung's unit cell from
    :func:`blochlab.plan.plan_sweep`, one :func:`map_tasks` task per eps.
    ``eta`` is the weight direction of :func:`pw_constant` (``lambda`` in
    the metadata).  Only the fiber family takes ``gamma``, which defaults
    to ``DEFAULT_GAMMA``.
    """
    if family not in ("thm22", "fiber"):
        raise ValueError(f"unknown family {family!r}")
    eta = check_eta(f"pw_{family}", eta)
    rungs = plan_sweep(f"pw_{family}", eps, gamma=gamma)
    tasks = [(cell, m, eta) for _, _, m, cell in rungs]
    done, workers, peak = map_tasks(_pw_task, tasks, workers, [t[1] ** 2 for t in tasks])
    rows = []
    for (eps, n, m, cell), ((C, mean_a), seconds) in zip(rungs, done):
        row = {"eps": eps, "n": n, "m": m, **eta_cells(eta)}
        if family == "thm22":
            row.update(pw_constant=C, eps2_C=eps * eps * C)
        else:
            row.update(r_eps=cell.r_eps, beta=cell.beta, pw_constant=C, mean_a=mean_a,
                       ratio=C / (abs(math.log(cell.r_eps)) * mean_a))
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
    }
    if family == "fiber":
        meta["gamma"] = DEFAULT_GAMMA if gamma is None else gamma
    return make_table(rows, workers, checks, meta, peak)
