"""Every benchmark invocation in a parent commit's tree and in the working
tree: their CSVs byte for byte, and each process's time outside its run.

    python3 tools/csv_bytes.py <parent-commit> [--repeats R]

Both sides are exported as ``tools/bench_pairs.py`` exports them: ``git
archive`` of the parent, and the working tree's tracked and unignored files
for the change, which need not be committed.  Every invocation of the
workloads that ``BENCHMARK.json`` names, as ``perfbench/workloads.py``
defines them, runs in each tree as ``perfbench/run.py`` spawns it: ``python
-m blochlab.cli`` in a fresh process, with one BLAS thread, standard output
and error to a log file, after one untimed import that compiles the tree's
bytecode.  The lognormal field is that of seed 1 (``write_lognormal(path,
1)``).  Each invocation runs at ``--threads 1`` and ``2``, and at the number
of usable cores where that differs, ``R`` times per side (default 1), the
parent first on even repeats and the change first on odd ones.

For each invocation and thread count the script prints ``identical`` when
all of its CSVs match byte for byte.  Otherwise it prints each cell that
differs (row, column, old -> new and the relative change) between the two
sides' first runs, and, for a side whose own repeats differ, between its
first run and the first one that differs.  The exit status is 0 only when
every CSV exists and all match.

Then, from the runs at perfbench's own thread count, the usable cores, it
prints the median over repeats, per invocation and side, of

* ``wall``: spawn to exit, as the waiting parent sees it;
* ``run``: the sidecar's ``wall_times.total_seconds``, the time that
  ``run_and_emit`` takes to compute the table;
* ``rest``: their difference, the process's start-up, imports, config
  parsing, file writes and exit;

then the change in ``rest``, and the three columns summed over the
invocations.  perfbench's traced pass runs ``main`` inside the tracer's own
process, so its spans cannot show what happens once ``main`` returns;
``rest`` does.

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
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path
from typing import NamedTuple

# a script's own directory leads sys.path; a module loaded by path needs it
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT, export_commit, export_worktree, git  # noqa: E402

PERFBENCH = ROOT / "perfbench"
SIDES = ("parent", "change")
#: perfbench's ``--threads``: the usable cores
CORES = len(os.sched_getaffinity(0))
THREADS = sorted({1, 2, CORES})
#: seed of the one lognormal dump that both sides read
FIELD_SEED = 1


class Run(NamedTuple):
    """One CLI process: spawn to exit, its sidecar's ``total_seconds`` and
    its CSV (``None`` where the process wrote no sidecar or no CSV)."""

    wall: float
    run: float | None
    csv: bytes | None


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
    return dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def spawn(tree: Path, cfg: Path, out: Path, threads: int, csv_name: str) -> Run:
    """One CLI process of ``tree`` on ``cfg``, writing into ``out``, which
    must not exist yet.  An exit other than 0 or 2 is reported on stderr."""
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    with open(out / "log.txt", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "blochlab.cli", "--config", str(cfg),
             "--out", str(out), "--threads", str(threads)],
            env=_env(tree), stdout=log, stderr=subprocess.STDOUT, cwd=out)
    _, status, _ = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2):
        print(f"  {tree.name}: exit {proc.returncode}: "
              f"{(out / 'log.txt').read_text().strip()[-400:]}", file=sys.stderr)
    csv_path = out / csv_name
    sidecar = csv_path.with_suffix(".json")
    return Run(wall,
               json.loads(sidecar.read_text())["wall_times"]["total_seconds"]
               if sidecar.exists() else None,
               csv_path.read_bytes() if csv_path.exists() else None)


def measure(trees: dict[str, Path], invocations: list[tuple[str, Path, str]], repeats: int,
            work: Path) -> dict[tuple[str, int], dict[str, list[Run]]]:
    """``{(label, threads): {side: [Run, ...]}}`` of every ``(label, config,
    CSV name)`` in ``invocations``, at each thread count of ``THREADS``, in
    every tree, ``repeats`` times, the sides taking turns to run first.
    Each tree is imported once, untimed, first."""
    for tree in trees.values():
        subprocess.run([sys.executable, "-c", "import blochlab.cli"], env=_env(tree),
                       cwd=tree, check=True, capture_output=True)
    result = {(label, t): {side: [] for side in trees}
              for label, *_ in invocations for t in THREADS}
    for i in range(repeats):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label, cfg, csv_name in invocations:
            for t in THREADS:
                for side in order:
                    out = work / side / label.replace("/", "_") / f"threads{t}" / str(i)
                    result[label, t][side].append(spawn(trees[side], cfg, out, t, csv_name))
    return result


def compare(label: str, sides: dict[str, list[Run]]) -> tuple[bool, list[str]]:
    """Whether every CSV of one invocation exists and all match, and the
    lines that say so or show the cells that differ."""
    csvs = {side: [run.csv for run in runs] for side, runs in sides.items()}
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


def report(result: dict[str, dict[str, list[Run]]]) -> list[str]:
    """One line per invocation and side of medians, and the summed medians;
    an invocation with a run that wrote no sidecar is left out, and says so."""
    lines = [f"{'invocation':24} {'side':6} {'wall':>7} {'run':>7} {'rest':>7}"]
    totals = {side: [0.0, 0.0, 0.0] for side in SIDES}
    for label, sides in result.items():
        if any(r.run is None for runs in sides.values() for r in runs):
            lines.append(f"{label:24} left out: a run wrote no sidecar")
            continue
        rest = {}
        for side in SIDES:
            wall = statistics.median(r.wall for r in sides[side])
            run = statistics.median(r.run for r in sides[side])
            rest[side] = statistics.median(r.wall - r.run for r in sides[side])
            for k, v in enumerate((wall, run, rest[side])):
                totals[side][k] += v
            name = label if side == SIDES[0] else ""
            lines.append(f"{name:24} {side:6} {wall:7.3f} {run:7.3f} {rest[side]:7.3f}")
        lines[-1] += f"  rest {rest['change'] - rest['parent']:+.3f}"
    for side in SIDES:
        wall, run, rest = totals[side]
        name = "sum of medians" if side == SIDES[0] else ""
        lines.append(f"{name:24} {side:6} {wall:7.3f} {run:7.3f} {rest:7.3f}")
    lines[-1] += f"  rest {totals['change'][2] - totals['parent'][2]:+.3f}"
    return lines


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
    for (label, threads), sides in result.items():
        same, lines = compare(f"{label} --threads {threads}", sides)
        matched += same
        print("\n".join(lines))
    print(f"{matched} of {len(result)} CSVs identical")
    print(f"\nmedians of {args.repeats} run(s) per side at --threads {CORES}, seconds; "
          f"parent {parent[:12]}, change: the working tree")
    print("\n".join(report({label: sides for (label, threads), sides in result.items()
                            if threads == CORES})))
    return 0 if matched == len(result) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
