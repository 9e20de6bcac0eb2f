"""Every benchmark invocation in a parent commit's tree and in the working
tree: whether their CSVs match byte for byte.

    python3 tools/csv_bytes.py <parent-commit> [--repeats R]

Both sides are exported as ``tools/bench_pairs.py`` exports them: ``git
archive`` of the parent, and the working tree's tracked and unignored files
for the change, which need not be committed.  Every invocation of the
workloads that ``BENCHMARK.json`` names, as ``perfbench/workloads.py``
defines them, runs in each tree as ``perfbench/run.py`` spawns it: ``python
-m blochlab.cli`` in a fresh process, with one BLAS thread, standard output
and error to a log file.  The lognormal field is that of seed 1
(``write_lognormal(path, 1)``).  Each invocation runs at ``--threads 1`` and
``2``, and at the number of usable cores where that differs, ``R`` times per
side (default 1).

For each invocation and thread count the script prints ``identical`` when
all of its CSVs match byte for byte.  Otherwise it prints each cell that
differs (row, column, old -> new and the relative change) between the two
sides' first runs, and, for a side whose own repeats differ, between its
first run and the first one that differs.  The exit status is 0 only when
every CSV exists and all match.  The script times nothing: a change is
timed by ``tools/bench_pairs.py``.

Everything runs in a temporary directory; nothing is written into the
repository, ``perfbench/`` included: its modules are imported without
bytecode by :func:`perfbench_modules`, which ``tools/oracle_errors.py`` and
``tools/traffic.py`` import them through as well.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

# a script's own directory leads sys.path; a module loaded by path needs it
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import BLAS_PIN, ROOT, export_commit, export_worktree, git  # noqa: E402

PERFBENCH = ROOT / "perfbench"
SIDES = ("parent", "change")
#: ``1``, ``2`` and perfbench's own ``--threads``, the usable cores
THREADS = sorted({1, 2, len(os.sched_getaffinity(0))})
#: seed of the one lognormal dump that both sides read
FIELD_SEED = 1


def perfbench_modules(*names: str) -> list[types.ModuleType]:
    """The modules ``names`` of ``perfbench/``, imported without writing
    bytecode there."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.dont_write_bytecode = saved


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
    that ``BENCHMARK.json`` names, from ``perfbench/workloads.py``."""
    (workloads,) = perfbench_modules("workloads")
    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return ([(name, inv) for name in names for inv in workloads.WORKLOADS[name]],
            workloads.write_lognormal)


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


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), **BLAS_PIN)


def spawn(tree: Path, cfg: Path, out: Path, threads: int, csv_name: str) -> bytes | None:
    """The CSV of one CLI process of ``tree`` on ``cfg``, writing into
    ``out``, which must not exist yet (``None`` where it wrote no CSV).  An
    exit other than 0 or 2 is reported on stderr."""
    out.mkdir(parents=True)
    with open(out / "log.txt", "wb") as log:
        proc = subprocess.run(
            [sys.executable, "-m", "blochlab.cli", "--config", str(cfg),
             "--out", str(out), "--threads", str(threads)],
            env=_env(tree), stdout=log, stderr=subprocess.STDOUT, cwd=out)
    if proc.returncode not in (0, 2):
        print(f"  {tree.name}: exit {proc.returncode}: "
              f"{(out / 'log.txt').read_text().strip()[-400:]}", file=sys.stderr)
    csv_path = out / csv_name
    return csv_path.read_bytes() if csv_path.exists() else None


def measure(trees: dict[str, Path], invocations: list[tuple[str, Path, str]], repeats: int,
            work: Path) -> dict[tuple[str, int], dict[str, list[bytes | None]]]:
    """``{(label, threads): {side: [CSV, ...]}}`` of every ``(label, config,
    CSV name)`` in ``invocations``, at each thread count of ``THREADS``, in
    every tree, ``repeats`` times."""
    result = {(label, t): {side: [] for side in trees}
              for label, *_ in invocations for t in THREADS}
    for i in range(repeats):
        for label, cfg, csv_name in invocations:
            for t in THREADS:
                for side, tree in trees.items():
                    out = work / side / label.replace("/", "_") / f"threads{t}" / str(i)
                    result[label, t][side].append(spawn(tree, cfg, out, t, csv_name))
    return result


def compare(label: str, csvs: dict[str, list[bytes | None]]) -> tuple[bool, list[str]]:
    """Whether every CSV of one invocation exists and all match, and the
    lines that say so or show the cells that differ."""
    missing = [side for side, texts in csvs.items() if None in texts]
    if missing:
        return False, [f"{label}: no CSV from the {' and '.join(missing)}"]
    pairs = []
    for side, texts in csvs.items():
        other = next((text for text in texts if text != texts[0]), None)
        if other is not None:
            pairs.append((f"the {side}'s own runs differ: ", texts[0], other))
    old, new = csvs["parent"][0], csvs["change"][0]
    if old != new:
        pairs.append(("", old, new))
    if not pairs:
        return True, [f"{label}: identical"]
    lines = []
    for what, old, new in pairs:
        diffs = cell_diffs(old.decode(), new.decode())
        lines.append(f"{label}: {what}{len(diffs)} cell(s) differ"
                     + ("" if diffs else " (the bytes differ, no cell does)"))
        lines += [f"  row {row}, {column}: {x} -> {y}" + ("" if rel is None else f" ({rel:+.2e})")
                  for row, column, x, y, rel in diffs]
    return False, lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit to compare the working tree with")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs of each invocation per side and thread count (default 1)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    parent = git("rev-parse", args.parent).strip()
    with tempfile.TemporaryDirectory(prefix="csv_bytes_") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in SIDES}
        export_commit(parent, trees["parent"])
        export_worktree(trees["change"])
        invocations = [(f"{workload}/{inv.name}", cfg, inv.csv_name)
                       for workload, inv, cfg in write_configs(tmp)]
        result = measure(trees, invocations, args.repeats, tmp / "out")
    matched = 0
    for (label, threads), csvs in result.items():
        same, lines = compare(f"{label} --threads {threads}", csvs)
        matched += same
        print("\n".join(lines))
    print(f"{matched} of {len(result)} CSVs identical")
    return 0 if matched == len(result) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
