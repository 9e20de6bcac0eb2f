"""The benchmark's workloads: CLI invocations, expected rows, and the
reference (oracle) description of every eigenvalue and Poincare-constant
cell their CSVs emit.

Why each workload exists:

* ``fiber_sweep`` -- the thin-fiber sweep (``experiment:thm31``) on complex
  pencils with contrast up to 1.7e5; time goes to ``smallest_eigpair`` and
  its capped inner Jacobi-CG.  Its ladder stops at eps = 1/5: the default
  eps = 1/6 rung alone runs 83 s on 2 cores, more than one benchmark run
  may take.  ``fiber_sweep_full`` is the default ladder, to run by hand
  with ``--trace 0`` (a traced run of it outlasts the run deadline).
* ``fiber_map`` -- ``experiment:gap_map`` (12 independent rows, momenta
  down to t = 1/64 where the pencils are nearly singular) plus
  ``experiment:pw_fiber`` (``cg_solve`` and ``largest_geneig`` at the same
  contrast).
* ``inclusions`` -- low contrast (beta <= 64) on small grids (N <= 16k):
  the shrinking-inclusion sweeps, the README commands, a capacity sweep and
  a ``from_file`` lognormal medium made from the workload seed.  Process
  start-up and repeated stiffness assembly are a large share here, and a
  high-contrast solver change should leave it alone.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PHASE = "two_phase(eps=1/4, beta=16, rho=1/4, shape=square)"
ETAS = "(0.25, 0.0); (0.1, -0.2)"
LOGNORMAL_N = 128
LOGNORMAL_SIGMA = 0.5


@dataclass(frozen=True)
class Invocation:
    name: str        # output subdirectory, unique within a workload
    config: str      # config text; ``{field}`` is replaced by the dump path
    rows: int        # rows the CSV must hold

    @property
    def command(self) -> str:
        return self.config.split("\n", 1)[0].split("=", 1)[1].strip()

    @property
    def csv_name(self) -> str:
        return self.command.replace(":", "_") + ".csv"


WORKLOADS: dict[str, list[Invocation]] = {
    "fiber_sweep": [
        Invocation("thm31", "command = experiment:thm31\neps = 1/3, 1/4, 1/5\n", 3),
    ],
    "fiber_sweep_full": [
        Invocation("thm31", "command = experiment:thm31\n", 4),
    ],
    "fiber_map": [
        Invocation("gap_map", "command = experiment:gap_map\n", 12),
        Invocation("pw_fiber", "command = experiment:pw_fiber\n", 4),
    ],
    "inclusions": [
        Invocation("thm22", "command = experiment:thm22\n", 3),
        Invocation("pw_thm22", "command = experiment:pw_thm22\n", 3),
        Invocation("homogenize", f"command = homogenize\na = {TWO_PHASE}\nn = 128\n", 1),
        Invocation("bloch", f"command = bloch\na = {TWO_PHASE}\nn = 128\neta = {ETAS}\n", 2),
        Invocation("dispersion",
                   f"command = dispersion\na = {TWO_PHASE}\nn = 128\neta = {ETAS}\n", 2),
        Invocation("pw", f"command = pw\na = {TWO_PHASE}\nn = 128\neta = (0.25, 0.0)\n", 1),
        Invocation("capacity", "command = capacity\neps = 1/3, 1/4, 1/5, 1/6\ngamma = 2\n", 4),
        Invocation("lognormal",
                   f"command = bloch\na = from_file(path={{field}})\nn = {LOGNORMAL_N}\n"
                   f"eta = {ETAS}\n", 2),
    ],
}

#: the configured two-phase medium of the single commands, full grid
_README_FIELD = {"kind": "two_phase", "n": 128, "s": 4, "beta": 16.0, "rho": 0.25}


def write_lognormal(path: Path, seed: int) -> None:
    """Per-cell lognormal conductivity from ``seed``, as a field dump."""
    rng = np.random.default_rng(seed)
    values = np.exp(LOGNORMAL_SIGMA * rng.standard_normal(LOGNORMAL_N**2))
    header = struct.pack("<8s4I8x", b"BLFIELD1", 2, LOGNORMAL_N, LOGNORMAL_N, 1)
    path.write_bytes(header + values.astype("<f8").tobytes())


def _f(row: dict, key: str) -> float:
    return float(row[key])


def reference_cells(inv: Invocation, row: dict, file_field: dict | None):
    """``(cell, reference spec)`` for each oracle-checked cell of a row."""
    cmd = inv.command
    if cmd in ("experiment:thm31", "experiment:gap_map", "experiment:pw_fiber"):
        m = int(row["m"])
        section = {"kind": "fiber", "m": m, "r": _f(row, "r_eps"), "beta": _f(row, "beta")}
        eps = _f(row, "eps")
        eta = [_f(row, "eta1"), _f(row, "eta2")]
        if cmd == "experiment:pw_fiber":
            return [("pw_constant", {"kind": "pw", "lam": eta, "field": section})]
        main = {"kind": "lambda1", "eps": eps, "eta": eta, "eta3": _f(row, "eta3"),
                "field": section}
        cells = [("lambda1", main)]
        if cmd == "experiment:thm31":
            cells.append(("control_lambda1", dict(main, eta3=0.0)))
            cells.append(("lambda1_doubled", dict(main, field=dict(section, m=2 * m))))
        return cells
    if cmd in ("experiment:thm22", "experiment:pw_thm22"):
        m = int(row["m"])
        eps = _f(row, "eps")
        unit = {"kind": "two_phase", "n": m, "s": 1,
                "beta": float(round(1.0 / eps) ** 2), "rho": eps}
        eta = [_f(row, "eta1"), _f(row, "eta2")]
        if cmd == "experiment:pw_thm22":
            return [("pw_constant", {"kind": "pw", "lam": eta, "field": unit})]
        main = {"kind": "lambda1", "eps": eps, "eta": eta, "field": unit}
        return [("lambda1", main),
                ("lambda1_doubled", dict(main, field=dict(unit, n=2 * m)))]
    if cmd == "bloch":
        field = file_field if "from_file" in inv.config else _README_FIELD
        return [("lambda1", {"kind": "lambda1", "eta": [_f(row, "eta1"), _f(row, "eta2")],
                             "field": field})]
    if cmd == "pw":
        return [("pw_constant", {"kind": "pw", "lam": [_f(row, "lambda1"), _f(row, "lambda2")],
                                 "field": _README_FIELD})]
    return []
