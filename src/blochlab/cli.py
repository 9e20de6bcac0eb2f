"""Command-line entry point: parse a config, run it, emit CSV + sidecar.

The CSV is the data artifact and must be byte-stable across reruns of the
same config: header row, fixed column order, 17 significant digits, ``.``
decimal separator, ``\\n`` line endings, booleans written as ``pass``/``fail``,
empty cells for inapplicable fields.  Everything run-dependent (wall times,
git state) goes to the JSON sidecar.

Every run solves on the grids that its command family's planner in
:mod:`blochlab.plan` gives, the planner the config parser called.

Exit codes: 0 success, 2 when a harness assertion column reports a
failure, 1 on any error.  :func:`main` returns its code to a library
caller; the process entry, :func:`entry_point`, flushes the output and
ends the process with that code, without interpreter finalization.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .bloch import bloch_lambda1
from .capacity import annulus_energy, scaled_energy
from .cell_problems import Q_NORMALIZATION, dispersion, homogenized, pw_constant
from .config import _COMMANDS, ConfigError, RunConfig, parse_config
from .experiments import (
    ExperimentTable,
    eta_cells,
    make_table,
    map_tasks,
    os_threads,
    peak_rss_mb,
    run_gap_map,
    run_pw,
    run_thm22,
    run_thm31,
)
from .microstructure import rasterize
from .plan import plan_capacity, plan_single

#: glibc ``mallopt`` parameters, and the values :func:`main` gives them:
#: no array gets a mapping of its own, and the heap is never trimmed.  By
#: default glibc maps the first array of each new largest size on its own,
#: then raises its threshold, so later arrays of that size go to the heap,
#: whose freed holes are kept: a solve's blocks are split between two pools,
#: and its peak resident set counts both.
_ONE_HEAP = {"M_MMAP_MAX": (-4, 0), "M_TRIM_THRESHOLD": (-1, 1 << 30)}

#: the ``_ONE_HEAP`` settings this process applied, or ``None``
_allocator: dict | None = None


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "pass" if v else "fail"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def git_describe() -> str:
    """``git describe`` of the checkout this package lives in, ``unknown``
    outside one: git runs only where the package sits at ``src/blochlab`` of
    a checkout, so a copy under some other repository (a virtualenv inside
    a project, say) never reports that repository's commit."""
    root = Path(__file__).resolve().parents[2]
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10, cwd=root,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _momentum_task(command: str, a, grid, eta) -> dict:
    """Value cells of one ``bloch``/``dispersion``/``pw`` row, on ``a``
    rasterized on ``grid``."""
    field = rasterize(a, grid)
    eta = np.asarray(eta, dtype=np.float64)
    if command == "bloch":
        res = bloch_lambda1(field, eta)
        return {"lambda1": res.lambda1, "residual": res.residual,
                "iterations": res.iterations}
    if command == "dispersion":
        sample = dispersion(field, eta)
        return {"q_eta_eta": sample.q_eta_eta,
                "dispersion_value": sample.value, "compat": sample.compat}
    return {"pw_constant": pw_constant(field, eta)}


def _homogenize_task(a, grid) -> dict:
    """Value cells of the ``homogenize`` row, on ``a`` rasterized on its
    planar ``grid``: fiber patterns homogenize their cross-section."""
    hom = homogenized(rasterize(a, grid))
    d = hom.q.shape[0]
    row = {}
    for name, mat in (("q", hom.q), ("voigt", hom.voigt)):
        for i in range(d):
            for j in range(d):
                row[f"{name}{i + 1}{j + 1}"] = float(mat[i, j])
    row["defect"] = float(hom.defect)
    return row


def _capacity_task(eps: float | None, gamma: float | None, r: float, R: float, grid) -> dict:
    """Value cells of one ``capacity`` row on ``grid``: the annulus check
    when ``eps`` is ``None``, else the sweep's scaled energy at ``eps``."""
    if eps is None:
        analytic, discrete = annulus_energy(r, R, grid)
        return {"analytic_energy": analytic, "discrete_energy": discrete,
                "rel_error": abs(discrete - analytic) / analytic}
    energy = scaled_energy(eps, r, R, grid)
    return {"scaled_energy": energy, "gamma_deviation": abs(energy - gamma) / gamma}


def _task_table(fn, keys: list[dict], tasks: list[tuple],
                workers: int) -> ExperimentTable:
    """One row per task, in input order: the row's key cells, then the value
    cells ``fn(*task)`` returns, then its ``runtime_seconds``."""
    done, workers, peak = map_tasks(fn, tasks, workers)
    rows = [{**key, **values, "runtime_seconds": seconds}
            for key, (values, seconds) in zip(keys, done)]
    return make_table(rows, workers, worker_peak_mb=peak)


def _single_command_table(cfg: RunConfig, workers: int = 1) -> ExperimentTable:
    """Tables for the non-experiment commands; no assertion columns.

    Every row is one :func:`map_tasks` task on the grid its planner gives:
    one per momentum for ``bloch``, ``dispersion`` and ``pw`` on ``workers``
    requested processes, and a single task for ``homogenize``.
    ``capacity`` rows (one per eps of the sweep, or the annulus check) are
    closed-form profile sums that never assemble; they run in this process,
    which saves a pool its scipy import and keeps ``capacity`` free of scipy.
    """
    name = cfg.command
    if name == "capacity":
        rows = plan_capacity(cfg.eps, cfg.gamma, r=cfg.r, R=cfg.R, n=cfg.n)
        cells = [{"eps": eps, "gamma": cfg.gamma, "r": r, "R": R, "n": grid.n[0]}
                 for eps, r, R, grid in rows]
        keys = [{k: v for k, v in c.items() if v is not None} for c in cells]  # annulus: r, R, n
        tasks = [(eps, cfg.gamma, r, R, grid) for eps, r, R, grid in rows]
        return _task_table(_capacity_task, keys, tasks, 1)

    grid = plan_single(cfg.a, cfg.n, cfg.eta)
    if name == "homogenize":
        return _task_table(_homogenize_task, [{}], [(cfg.a, grid)], workers)
    prefix = "lambda" if name == "pw" else "eta"  # pw: eta is the direction
    keys = [eta_cells(eta, prefix) for eta in cfg.eta]
    tasks = [(name, cfg.a, grid, eta) for eta in cfg.eta]
    return _task_table(_momentum_task, keys, tasks, workers)


def _harness(name: str):
    """The function that computes ``experiment:<name>``.  The lookup reads
    the module's names at call time, so a wrapper patched over a harness
    (as perfbench's tracer does) is the one that runs."""
    return {
        "thm22": run_thm22,
        "thm31": run_thm31,
        "gap_map": run_gap_map,
        "pw_thm22": functools.partial(run_pw, family="thm22"),
        "pw_fiber": functools.partial(run_pw, family="fiber"),
    }[name]


def _experiment_table(cfg: RunConfig, workers: int = 1) -> ExperimentTable:
    kw = {key: value for key in _COMMANDS[cfg.command][1]
          if (value := getattr(cfg, key)) is not None}
    if "eta" in kw:
        (kw["eta"],) = kw["eta"]  # an experiment takes one momentum
    return _harness(cfg.command.split(":", 1)[1])(workers=workers, **kw)


def run_and_emit(
    cfg: RunConfig, out_dir: str | Path = ".", threads: int = 1
) -> tuple[int, list[Path]]:
    """Execute the config; write ``<command>.csv`` and ``<command>.json``
    into ``out_dir``.

    ``threads`` is the requested worker count for the independent solves;
    the CSV bytes do not depend on it.  Returns (exit code, written paths).
    Assertion-column failures give exit 2; the files are written either way.
    """
    t0 = time.perf_counter()
    threads_at_start = os_threads()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.command.startswith("experiment:"):
        table = _experiment_table(cfg, threads)
    else:
        table = _single_command_table(cfg, threads)
    # the run ends here: the CSV write and git_describe's subprocess are not in it
    total_seconds = time.perf_counter() - t0
    # this process's peak, and the largest of its pool workers' (None: no pool)
    peak_rss = {"process": peak_rss_mb(), "workers": table.worker_peak_mb}

    stem = cfg.command.replace(":", "_")
    csv_path = out / f"{stem}.csv"
    write_csv(csv_path, table.columns, table.rows)

    sidecar = {
        "config": cfg.text,
        "command": cfg.command,
        "threads": threads,
        "os_threads": threads_at_start,
        "allocator": _allocator,
        "workers": table.workers,
        "package_version": __version__,
        "git_describe": git_describe(),
        "q_normalization": Q_NORMALIZATION,
        "columns": table.columns,
        "checks": {k: bool(v) for k, v in table.checks.items()},
        "table_meta": table.meta,
        "peak_rss_mb": peak_rss,
        "wall_times": {
            "total_seconds": total_seconds,
            "row_seconds": [row.get("runtime_seconds") for row in table.rows],
        },
    }
    json_path = out / f"{stem}.json"
    json_path.write_bytes(
        (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    code = 0 if table.passed else 2
    return code, [csv_path, json_path]


def _use_one_heap() -> None:
    """Apply ``_ONE_HEAP`` where libc has ``mallopt``.

    A pool forked later inherits it.  No floating-point operation depends
    on where an array lives, so the CSV bytes stay the same.
    """
    global _allocator
    import ctypes  # only here: importing blochlab.cli leaves the allocator alone

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return  # no glibc: the platform's allocator stays as it is
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {name: value for name, (param, value) in _ONE_HEAP.items()
               if mallopt(param, value) == 1}
    _allocator = applied or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="First Bloch eigenvalues, effective tensors, dispersion "
                    "coefficients, and weighted Poincare constants for "
                    "periodic high-contrast conductivities.",
    )
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: the current directory)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="worker processes for the independent solves, "
                             "clamped to the usable cores and to the number "
                             "of solves; the CSV is the same for every N")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_bytes().decode("utf-8")  # line ends kept
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        _use_one_heap()  # before the run forks its pool
        code, paths = run_and_emit(cfg, out_dir=args.out, threads=args.threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 — boundary of the process
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for p in paths:
        print(p)
    if code == 2:
        print("assertion columns report failures; see the CSV",
              file=sys.stderr)
    return code


def entry_point() -> NoReturn:
    """The ``blochlab`` console script and ``python -m blochlab.cli``: run
    :func:`main`, flush standard output and error, and end the process with
    the returned code at once.

    Interpreter finalization only frees what the process is about to lose
    anyway, and once scipy is loaded it takes about 50 ms.  Nothing is left
    for it: ``run_and_emit`` has closed the files it wrote, and a pool has
    been terminated and joined by its ``with`` block.  A ``SystemExit`` from
    argparse or an uncaught exception leaves :func:`main` before this point
    and exits the normal way.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry_point()
