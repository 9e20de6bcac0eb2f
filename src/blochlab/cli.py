"""Command-line entry point: parse a config, run it, emit CSV + sidecar.

The CSV is the data artifact and must be byte-stable across reruns of the
same config and seed: header row, fixed column order, 17 significant
digits, ``.`` decimal separator, ``\\n`` line endings, booleans written as
``pass``/``fail``, empty cells for inapplicable fields.  Everything
run-dependent (wall times, git state) goes to the JSON sidecar.

Exit codes: 0 success, 2 when a harness assertion column reports a
failure, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
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


def _single_command_table(cfg: RunConfig, workers: int = 1) -> ExperimentTable:
    """Tables for the non-experiment commands; no assertion columns.

    ``bloch``, ``dispersion`` and ``pw`` solve once per momentum, each
    momentum a :func:`map_tasks` task on ``workers`` requested processes.
    """
    name = cfg.command
    if name == "homogenize":
        # planar by convention; fiber patterns homogenize their cross-section
        _require_field(cfg)
        hom = homogenized(rasterize(cfg.a, make_grid(2, (cfg.n, cfg.n))))
        row = {}
        d = hom.q.shape[0]
        for i in range(d):
            for j in range(d):
                row[f"q{i + 1}{j + 1}"] = float(hom.q[i, j])
        for i in range(d):
            for j in range(d):
                row[f"voigt{i + 1}{j + 1}"] = float(hom.voigt[i, j])
        row["defect"] = float(hom.defect)
        return ExperimentTable(name, list(row), [row], {}, {})

    if name in ("bloch", "dispersion", "pw"):
        _require_field(cfg)
        tasks = [(name, cfg.a, cfg.n, eta) for eta in cfg.eta]
        prefix = "lambda" if name == "pw" else "eta"  # pw: eta is the direction
        rows, cols = [], None
        for eta, (values, seconds) in zip(cfg.eta, map_tasks(_momentum_task, tasks, workers)):
            row = {f"{prefix}{k + 1}": float(v) for k, v in enumerate(eta)}
            row.update(values)
            cols = list(row)
            row["runtime_seconds"] = seconds
            rows.append(row)
        return ExperimentTable(name, cols, rows, {}, {},
                               workers=pool_size(workers, len(tasks)))

    if name == "capacity":
        R = float(cfg.R) if cfg.R is not None else CapacityProfile.DEFAULT_R
        if cfg.r is not None:
            n = cfg.n or 512
            grid = make_grid(2, (n, n))
            analytic, discrete = annulus_energy(float(cfg.r), R, grid)
            rel = abs(discrete - analytic) / analytic
            row = {"r": float(cfg.r), "R": R, "n": n,
                   "analytic_energy": analytic, "discrete_energy": discrete,
                   "rel_error": rel}
            return ExperimentTable(name, list(row), [row], {}, {})
        if cfg.eps and cfg.gamma is not None:
            gamma = float(cfg.gamma)
            rows = []
            for eps_f in cfg.eps:
                eps = float(eps_f)
                r = radius_for_gamma(eps, gamma)
                n = cfg.n or resolve_resolution(eps, 2.0 * eps * r)
                grid = make_grid(2, (n, n))
                energy = scaled_energy(eps, r, R, grid)
                rows.append({
                    "eps": eps, "gamma": gamma, "r": r, "R": R, "n": n,
                    "scaled_energy": energy,
                    "gamma_deviation": abs(energy - gamma) / gamma,
                })
            return ExperimentTable(name, list(rows[0]), rows, {}, {})
        raise ConfigError(
            "capacity needs either r (annulus check) or eps and gamma "
            "(scaled-energy sweep)")

    raise ConfigError(f"unhandled command {name!r}")  # pragma: no cover


def _experiment_table(cfg: RunConfig, workers: int = 1) -> ExperimentTable:
    name = cfg.command.split(":", 1)[1]
    eps = [float(v) for v in cfg.eps] if cfg.eps else None
    eta = tuple(float(v) for v in cfg.eta[0]) if cfg.eta else None
    gamma = float(cfg.gamma) if cfg.gamma is not None else 2.0
    kw: dict = {"seed": cfg.seed, "workers": workers}
    if name == "thm22":
        if eps:
            kw["eps_list"] = eps
        if eta:
            kw["eta"] = eta
        if cfg.n:
            kw["resolution"] = cfg.n
        return run_thm22(**kw)
    if name == "thm31":
        if eps:
            kw["eps_list"] = eps
        if eta:
            kw["eta"] = eta
        if cfg.n:
            kw["resolution"] = cfg.n
        return run_thm31(gamma=gamma, **kw)
    if name == "gap_map":
        if eps:
            kw["eps_list"] = eps
        if eta:
            kw["eta"] = eta
        if cfg.t_list:
            kw["t_list"] = [float(t) for t in cfg.t_list]
        return run_gap_map(gamma=gamma, **kw)
    if name in ("pw_thm22", "pw_fiber"):
        family = name.split("_", 1)[1]
        if eps:
            kw["eps_list"] = eps
        if eta:
            kw["lam"] = eta
        return run_pw(family=family, gamma=gamma, **kw)
    raise ConfigError(f"unhandled experiment {name!r}")  # pragma: no cover


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

    stem = cfg.command.replace(":", "_")
    csv_path = out / f"{stem}.csv"
    write_csv(csv_path, table.columns, table.rows)

    sidecar = {
        "config": cfg.serialize(),
        "command": cfg.command,
        "seed": cfg.seed,
        "threads": threads,
        "workers": table.workers,
        "package_version": __version__,
        "git_describe": git_describe(),
        "q_normalization": cfg.q_normalization,
        "columns": table.columns,
        "checks": {k: bool(v) for k, v in table.checks.items()},
        "table_meta": table.meta,
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
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
                        help="override the config seed")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            if not (0 <= args.seed < 2**64):
                raise ConfigError("seed must be an integer in [0, 2^64)")
            cfg.seed = args.seed
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
