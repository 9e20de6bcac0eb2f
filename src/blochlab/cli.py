"""Command-line entry point: parse a config, run it, emit CSV + sidecar.

The CSV is the data artifact and must be byte-stable across reruns of the
same config: header row, fixed column order, 17 significant digits, ``.``
decimal separator, ``\\n`` line endings, booleans written as ``pass``/``fail``,
empty cells for inapplicable fields.  Everything run-dependent (wall times,
git state) goes to the JSON sidecar.

Exit codes: 0 success, 2 when a harness assertion column reports a
failure, 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import bloch_lambda1
from .capacity import CapacityProfile, annulus_energy, scaled_energy
from .cell_problems import dispersion, homogenized, pw_constant
from .config import ConfigError, RunConfig, parse_config
from .experiments import (
    ExperimentTable,
    eta_cells,
    make_table,
    map_tasks,
    pool_size,
    resolve_resolution,
    run_gap_map,
    run_pw,
    run_thm22,
    run_thm31,
)
from .grid import make_grid
from .microstructure import radius_for_gamma, rasterize


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
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _require_field(cfg: RunConfig) -> None:
    if cfg.a is None:
        raise ConfigError(f"command {cfg.command!r} requires key 'a'")
    if cfg.n is None:
        raise ConfigError(f"command {cfg.command!r} needs a resolution n")


def _momentum_task(command: str, a, n: int, eta) -> dict:
    """Value cells of one ``bloch``/``dispersion``/``pw`` row: the field is
    rasterized on ``n`` cells per axis in ``len(eta)`` dimensions."""
    eta = np.asarray(eta, dtype=np.float64)
    d = len(eta)
    field = rasterize(a, make_grid(d, (n,) * d))
    if command == "bloch":
        res = bloch_lambda1(field, eta)
        return {"lambda1": res.lambda1, "residual": res.residual,
                "iterations": res.iterations}
    if command == "dispersion":
        sample = dispersion(field, eta)
        return {"q_eta_eta": sample.q_eta_eta,
                "dispersion_value": sample.value, "compat": sample.compat}
    return {"pw_constant": pw_constant(field, eta)}


def _homogenize_task(a, n: int) -> dict:
    """Value cells of the ``homogenize`` row: planar by convention, fiber
    patterns homogenize their cross-section."""
    hom = homogenized(rasterize(a, make_grid(2, (n, n))))
    d = hom.q.shape[0]
    row = {}
    for name, mat in (("q", hom.q), ("voigt", hom.voigt)):
        for i in range(d):
            for j in range(d):
                row[f"{name}{i + 1}{j + 1}"] = float(mat[i, j])
    row["defect"] = float(hom.defect)
    return row


def _annulus_task(r: float, R: float, n: int) -> dict:
    """Value cells of the ``capacity`` annulus check on ``n`` cells per axis."""
    analytic, discrete = annulus_energy(r, R, make_grid(2, (n, n)))
    return {"analytic_energy": analytic, "discrete_energy": discrete,
            "rel_error": abs(discrete - analytic) / analytic}


def _scaled_energy_task(eps: float, gamma: float, r: float, R: float, n: int) -> dict:
    """Value cells of one ``capacity`` sweep row on ``n`` cells per axis."""
    energy = scaled_energy(eps, r, R, make_grid(2, (n, n)))
    return {"scaled_energy": energy, "gamma_deviation": abs(energy - gamma) / gamma}


def _task_table(name: str, fn, keys: list[dict], tasks: list[tuple],
                workers: int, cost=None) -> ExperimentTable:
    """One row per task, in input order: the row's key cells, then the value
    cells ``fn(*task)`` returns, then its ``runtime_seconds``."""
    workers = pool_size(workers, len(tasks))
    rows = [{**key, **values, "runtime_seconds": seconds}
            for key, (values, seconds) in zip(keys, map_tasks(fn, tasks, workers, cost))]
    return make_table(name, rows, workers)


def _single_command_table(cfg: RunConfig, workers: int = 1) -> ExperimentTable:
    """Tables for the non-experiment commands; no assertion columns.

    Every row is one :func:`map_tasks` task on ``workers`` requested
    processes: one per momentum for ``bloch``, ``dispersion`` and ``pw``,
    one per eps for the ``capacity`` sweep, and a single task for
    ``homogenize`` and the ``capacity`` annulus check.
    """
    name = cfg.command
    if name == "homogenize":
        _require_field(cfg)
        return _task_table(name, _homogenize_task, [{}], [(cfg.a, cfg.n)], workers)

    if name in ("bloch", "dispersion", "pw"):
        _require_field(cfg)
        prefix = "lambda" if name == "pw" else "eta"  # pw: eta is the direction
        keys = [eta_cells(eta, prefix) for eta in cfg.eta]
        tasks = [(name, cfg.a, cfg.n, eta) for eta in cfg.eta]
        return _task_table(name, _momentum_task, keys, tasks, workers)

    if name == "capacity":
        R = float(cfg.R) if cfg.R is not None else CapacityProfile.DEFAULT_R
        if cfg.r is not None:
            r, n = float(cfg.r), cfg.n or 512
            return _task_table(name, _annulus_task, [{"r": r, "R": R, "n": n}],
                               [(r, R, n)], workers)
        if cfg.eps and cfg.gamma is not None:
            gamma = float(cfg.gamma)
            keys, tasks = [], []
            for eps_f in cfg.eps:
                eps = float(eps_f)
                r = radius_for_gamma(eps, gamma)
                n = cfg.n or resolve_resolution(eps, 2.0 * eps * r)
                keys.append({"eps": eps, "gamma": gamma, "r": r, "R": R, "n": n})
                tasks.append((eps, gamma, r, R, n))
            return _task_table(name, _scaled_energy_task, keys, tasks, workers,
                               [t[-1] ** 2 for t in tasks])
        raise ConfigError(
            "capacity needs either r (annulus check) or eps and gamma "
            "(scaled-energy sweep)")

    raise ConfigError(f"unhandled command {name!r}")  # pragma: no cover


#: config key -> the keyword of every experiment harness that reads it; the
#: config schema admits a key only for the experiments whose harness takes it
_HARNESS_KEYWORDS = {"eps": "eps_list", "eta": "eta", "n": "resolution",
                    "gamma": "gamma", "t_list": "t_list"}


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
    kw = {}
    for key, keyword in _HARNESS_KEYWORDS.items():
        value = getattr(cfg, key)
        if key == "eta" and value is not None:
            (value,) = value  # an experiment takes one momentum
        if isinstance(value, (list, tuple)):
            kw[keyword] = [float(v) for v in value]
        elif value is not None:
            kw[keyword] = value if key == "n" else float(value)
    return _harness(cfg.command.split(":", 1)[1])(workers=workers, **kw)


def _peak_rss_mb(workers: int) -> dict:
    """Peak resident set so far, in MB: this process, and the largest of
    its reaped pool workers (``None`` when no pool ran)."""
    unit = 1024.0**2 if sys.platform == "darwin" else 1024.0  # bytes or KiB

    def mb(who: int) -> float:
        return resource.getrusage(who).ru_maxrss / unit

    return {
        "process": mb(resource.RUSAGE_SELF),
        "workers": mb(resource.RUSAGE_CHILDREN) if workers > 1 else None,
    }


def run_and_emit(
    cfg: RunConfig, out_dir: str | Path | None = None, threads: int = 1
) -> tuple[int, list[Path]]:
    """Execute the config; write ``<command>.csv`` and ``<command>.json``.

    ``threads`` is the requested worker count for the independent solves;
    the CSV bytes do not depend on it.  Returns (exit code, written paths).
    Assertion-column failures give exit 2; the files are written either way.
    """
    t0 = time.perf_counter()
    out = Path(out_dir if out_dir is not None else cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.command.startswith("experiment:"):
        table = _experiment_table(cfg, threads)
    else:
        table = _single_command_table(cfg, threads)
    peak_rss = _peak_rss_mb(table.workers)

    stem = cfg.command.replace(":", "_")
    csv_path = out / f"{stem}.csv"
    write_csv(csv_path, table.columns, table.rows)

    sidecar = {
        "config": cfg.serialize(),
        "command": cfg.command,
        "threads": threads,
        "workers": table.workers,
        "package_version": __version__,
        "git_describe": git_describe(),
        "q_normalization": cfg.q_normalization,
        "columns": table.columns,
        "checks": {k: bool(v) for k, v in table.checks.items()},
        "table_meta": table.meta,
        "peak_rss_mb": peak_rss,
        "wall_times": {
            "total_seconds": time.perf_counter() - t0,
            "row_seconds": [row.get("runtime_seconds") for row in table.rows],
        },
    }
    json_path = out / f"{stem}.json"
    json_path.write_bytes(
        (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    code = 0 if table.passed else 2
    return code, [csv_path, json_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="First Bloch eigenvalues, effective tensors, dispersion "
                    "coefficients, and weighted Poincare constants for "
                    "periodic high-contrast conductivities.",
    )
    parser.add_argument("--config", required=True, metavar="PATH",
                        help="run configuration file")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output directory (default: from config)")
    parser.add_argument("--threads", type=int, default=1, metavar="N",
                        help="worker processes for the independent solves, "
                             "clamped to the usable cores and to the number "
                             "of solves; the CSV is the same for every N")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        code, paths = run_and_emit(cfg, out_dir=args.out,
                                   threads=max(1, args.threads))
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


if __name__ == "__main__":
    sys.exit(main())
