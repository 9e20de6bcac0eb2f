"""Relative error of every oracle-checked cell of a finished benchmark pass.

    python3 tools/oracle_errors.py .bench_run/inclusions

The argument is the run directory that ``perfbench/run.py --workload W``
leaves at ``.bench_run/W``.  Each cell of its first pass that ``run.py``
checks against its oracle gets one line: invocation, row, cell, value,
reference and relative error, followed by the largest error, the run's
``value_rel_err_max``.

A Poincare constant is a maximum, and each shipped ``pw_constant`` is the
exact face quotient of its own Ritz vector to about 1e-12, so it is a
lower bound on the discrete constant.  A cell whose reference lies more
than ``LOWER_BOUND_SLACK`` relative below the shipped value is marked
``reference below lower bound``: there the reference is the one in error.

The cells and references come from ``perfbench/workloads.py`` and
``perfbench/oracle.py``, imported as ``run.py`` imports them, through
``tools/csv_bytes.py``'s ``perfbench_modules``.  Nothing is written: no
bytecode, and no reference into either cache.  A reference in
neither ``perfbench/oracle_cache.json`` nor the run's local cache is
computed again.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

# a script's own directory leads sys.path; a module loaded by path needs it
sys.path.insert(0, str(Path(__file__).resolve().parent))
from csv_bytes import perfbench_modules  # noqa: E402

#: how far, relative, a Poincare reference may lie below the shipped value
LOWER_BOUND_SLACK = 1e-10


def cell_errors(run_dir: Path) -> list[tuple]:
    """``(invocation, row, cell, value, reference, relative error)`` for
    every checked cell of the first pass in ``run_dir``; an invocation
    without a CSV has no cells."""
    oracle_mod, workloads = perfbench_modules("oracle", "workloads")
    invs = workloads.WORKLOADS[run_dir.name]
    dump = run_dir / "lognormal.blf"
    file_field = oracle_mod.file_field(dump, workloads.LOGNORMAL_N) if dump.exists() else None
    oracle = oracle_mod.Oracle(run_dir.parent / "oracle_local.json")
    errors = []
    for inv in invs:
        path = run_dir / "pass0" / inv.name / inv.csv_name
        if not path.exists():
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for i, row in enumerate(rows):
            for cell, spec in workloads.reference_cells(inv, row, file_field):
                ref = oracle.get(spec)
                value = float(row[cell])
                errors.append((inv.name, i, cell, value, ref, abs(value - ref) / abs(ref)))
    return errors


def below_lower_bound(cell: str, value: float, ref: float) -> bool:
    """Whether ``ref`` lies below the lower bound that a shipped
    ``pw_constant`` is, by more than ``LOWER_BOUND_SLACK`` relative."""
    return cell == "pw_constant" and value - ref > LOWER_BOUND_SLACK * abs(ref)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run_dir", type=Path, help="a finished run: .bench_run/WORKLOAD")
    args = parser.parse_args(argv)
    errors = cell_errors(args.run_dir)
    if not errors:
        print(f"no checked cell under {args.run_dir / 'pass0'}", file=sys.stderr)
        return 1
    for name, i, cell, value, ref, err in errors:
        mark = "  reference below lower bound" if below_lower_bound(cell, value, ref) else ""
        print(f"{name:12s} row {i:2d} {cell:16s} {value!r:>22} {ref!r:>22} {err:.3e}{mark}")
    name, i, cell, *_, err = max(errors, key=lambda e: e[-1])
    print(f"largest: {err:.6g} at {name} row {i} {cell}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
