"""Time each benchmark process spends outside its run, parent against change.

    python3 tools/process_phases.py <parent-commit> [--repeats 5]

Both sides are exported as ``tools/csv_bytes.py`` exports them: ``git
archive`` of the parent, and the working tree's tracked and unignored files
for the change, which need not be committed.  Every invocation of the
workloads that ``BENCHMARK.json`` names, as ``perfbench/workloads.py``
defines them, runs ``--repeats`` times in each tree, alternately (the
parent first on even repeats, the change first on odd ones), as
``perfbench/run.py`` spawns it: ``python -m blochlab.cli`` in a fresh
process, with one BLAS thread, ``--threads`` set to the number of usable
cores, standard output and error to a log file, after one untimed import
that compiles the tree's bytecode.  The lognormal field is that of seed 1.

For each invocation and side the script prints the median over repeats of

* ``wall``: spawn to exit, as the waiting parent sees it;
* ``run``: the sidecar's ``wall_times.total_seconds``, the time that
  ``run_and_emit`` takes to compute the table;
* ``rest``: their difference, the process's start-up, imports, config
  parsing, file writes and exit;

then the change in ``rest``, and the three columns summed over the
invocations.  perfbench's traced pass runs ``main`` inside the tracer's
own process, so its spans cannot show what happens once ``main`` returns;
``rest`` does.

Everything runs in a temporary directory; nothing is written into the
repository, ``perfbench/`` included.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# a script's own directory leads sys.path; a module loaded by path needs it
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import export_commit, export_worktree, git  # noqa: E402
from csv_bytes import write_configs  # noqa: E402

SIDES = ("parent", "change")


def _env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def warm(tree: Path) -> None:
    """Compile ``tree``'s bytecode with one untimed import, as perfbench does."""
    subprocess.run([sys.executable, "-c", "import blochlab.cli"], env=_env(tree),
                   cwd=tree, check=True, capture_output=True)


def phases(tree: Path, cfg: Path, out: Path, threads: int) -> tuple[float, float]:
    """``(wall, run)`` seconds of one CLI process of ``tree`` on ``cfg``:
    spawn to exit, and its sidecar's ``total_seconds``.  The run writes into
    ``out``, which must not exist yet, and must exit 0 or 2."""
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    with open(out / "log.txt", "wb") as log:
        proc = subprocess.Popen(
            [sys.executable, "-m", "blochlab.cli", "--config", str(cfg),
             "--out", str(out), "--threads", str(threads)],
            env=_env(tree), stdout=log, stderr=subprocess.STDOUT, cwd=out)
    _, status, _ = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 2):
        raise RuntimeError(f"{tree.name}: exit {code}: {(out / 'log.txt').read_text()[-400:]}")
    (sidecar,) = out.glob("*.json")
    return wall, json.loads(sidecar.read_text())["wall_times"]["total_seconds"]


def measure(trees: dict[str, Path], configs: dict[str, Path], repeats: int,
            work: Path) -> dict[str, dict[str, list[tuple[float, float]]]]:
    """``{label: {side: [(wall, run), ...]}}`` of every config in every
    tree, ``repeats`` times, the sides alternating which runs first."""
    threads = len(os.sched_getaffinity(0))
    for tree in trees.values():
        warm(tree)
    result = {label: {side: [] for side in trees} for label in configs}
    for i in range(repeats):
        order = list(trees) if i % 2 == 0 else list(trees)[::-1]
        for label, cfg in configs.items():
            for side in order:
                out = work / side / label.replace("/", "_") / str(i)
                result[label][side].append(phases(trees[side], cfg, out, threads))
    return result


def report(result: dict[str, dict[str, list[tuple[float, float]]]]) -> list[str]:
    """One line per invocation and side of medians, and the summed medians."""
    lines = [f"{'invocation':24} {'side':6} {'wall':>7} {'run':>7} {'rest':>7}"]
    totals = {side: [0.0, 0.0, 0.0] for side in SIDES}
    for label, sides in result.items():
        rest = {}
        for side in SIDES:
            wall = statistics.median(w for w, _ in sides[side])
            run = statistics.median(r for _, r in sides[side])
            rest[side] = statistics.median(w - r for w, r in sides[side])
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
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs of each invocation per side (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    parent = git("rev-parse", args.parent).strip()
    with tempfile.TemporaryDirectory(prefix="process_phases_") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in SIDES}
        export_commit(parent, trees["parent"])
        export_worktree(trees["change"])
        configs = {f"{workload}/{inv.name}": cfg
                   for workload, inv, cfg in write_configs(tmp)}
        result = measure(trees, configs, args.repeats, tmp / "out")
    print(f"medians of {args.repeats} run(s) per side, seconds; "
          f"parent {parent[:12]}, change: the working tree")
    print("\n".join(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
