"""The benchmark's CSVs at a parent commit against the working tree's.

    python3 tools/csv_bytes.py <parent-commit>

Both sides are exported as ``tools/bench_pairs.py`` exports them: ``git
archive`` of the parent, and the working tree's tracked and unignored files
for the change, which need not be committed.  Every invocation of the
workloads that ``BENCHMARK.json`` names, as ``perfbench/workloads.py``
defines them, runs in each tree through ``python -m blochlab.cli`` at
``--threads 1`` and ``--threads 2``, with one BLAS thread and the
lognormal field of seed 1 (``write_lognormal(path, 1)``).  Each pair of
CSVs then prints ``identical``, or each cell that differs: row, column,
old -> new and the relative change.  The exit status is 0 only when every
CSV exists on both sides and the two match byte for byte.

Everything runs in a temporary directory; nothing is written into the
repository, ``perfbench/`` included (its modules are imported without
bytecode, as ``tools/oracle_errors.py`` imports them).
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# a script's own directory leads sys.path; a module loaded by path needs it
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_commit, export_worktree, git  # noqa: E402

PERFBENCH = ROOT / "perfbench"
THREADS = (1, 2)
#: seed of the one lognormal dump that both sides read
FIELD_SEED = 1


def _relative(old: str | None, new: str | None) -> float | None:
    """``(new - old) / |old|`` of two numeric cells, else ``None``."""
    try:
        x, y = float(old), float(new)
    except (TypeError, ValueError):
        return None
    return (y - x) / abs(x) if x != 0.0 else None


def cell_diffs(old: str, new: str) -> list[tuple]:
    """``(row, column, old, new, relative change)`` for every cell in which
    two CSV texts differ.  A row or column present on one side only reads
    ``None`` on the other, and the relative change is ``None`` unless both
    cells are numbers and the old one is nonzero."""
    a = list(csv.DictReader(io.StringIO(old)))
    b = list(csv.DictReader(io.StringIO(new)))
    diffs = []
    for i in range(max(len(a), len(b))):
        ra = a[i] if i < len(a) else {}
        rb = b[i] if i < len(b) else {}
        for column in dict.fromkeys([*ra, *rb]):
            x, y = ra.get(column), rb.get(column)
            if x != y:
                diffs.append((i, column, x, y, _relative(x, y)))
    return diffs


def benchmark_invocations():
    """``([(workload, invocation), ...], write_lognormal)`` of the workloads
    that ``BENCHMARK.json`` names, from ``perfbench/workloads.py`` imported
    without bytecode."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from workloads import WORKLOADS, write_lognormal
    finally:
        sys.dont_write_bytecode = saved
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [(name, inv) for name in names for inv in WORKLOADS[name]], write_lognormal


def write_configs(tmp: Path) -> list[tuple]:
    """``[(workload, invocation, config path), ...]`` of every benchmark
    invocation: each config is written under ``tmp/cfg`` and reads the
    lognormal field of seed ``FIELD_SEED``, written to ``tmp/lognormal.blf``."""
    invocations, write_lognormal = benchmark_invocations()
    dump = tmp / "lognormal.blf"
    write_lognormal(dump, FIELD_SEED)
    configs = []
    for workload, inv in invocations:
        cfg = tmp / "cfg" / workload / f"{inv.name}.cfg"
        cfg.parent.mkdir(parents=True, exist_ok=True)
        cfg.write_text(inv.config.replace("{field}", str(dump)), encoding="utf-8")
        configs.append((workload, inv, cfg))
    return configs


def _run(tree: Path, cfg: Path, out: Path, threads: int, name: str) -> bytes | None:
    """The CSV ``name`` of one CLI run in ``tree``, ``None`` when the run
    made none."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, "-m", "blochlab.cli", "--config", str(cfg), "--out", str(out),
         "--threads", str(threads)],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"  {tree.name}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}",
              file=sys.stderr)
    path = out / name
    return path.read_bytes() if path.exists() else None


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent = git("rev-parse", argv[0]).strip()
    matched = total = 0
    with tempfile.TemporaryDirectory(prefix="csv_bytes_") as tmp:
        tmp = Path(tmp)
        trees = {"parent": tmp / "parent", "change": tmp / "change"}
        export_commit(parent, trees["parent"])
        export_worktree(trees["change"])
        for workload, inv, cfg in write_configs(tmp):
            for threads in THREADS:
                csvs = {side: _run(tree, cfg, tmp / "out" / side / workload / inv.name
                                   / f"threads{threads}", threads, inv.csv_name)
                        for side, tree in trees.items()}
                total += 1
                label = f"{workload}/{inv.name} --threads {threads}"
                old, new = csvs["parent"], csvs["change"]
                if old is None or new is None:
                    missing = " and ".join(s for s, c in csvs.items() if c is None)
                    print(f"{label}: no CSV from the {missing}")
                elif old == new:
                    matched += 1
                    print(f"{label}: identical")
                else:
                    diffs = cell_diffs(old.decode(), new.decode())
                    print(f"{label}: {len(diffs)} cell(s) differ"
                          + ("" if diffs else " (the bytes differ, no cell does)"))
                    for row, column, x, y, rel in diffs:
                        change = "" if rel is None else f" ({rel:+.2e})"
                        print(f"  row {row}, {column}: {x} -> {y}{change}")
    print(f"{matched} of {total} CSVs identical")
    return 0 if matched == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
