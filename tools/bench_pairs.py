"""Alternating parent/change pairs of the committed benchmark, recorded in
``BENCH_trajectory.json``.

    python3 tools/bench_pairs.py --parent <commit> --pr <number> \
        --workload fiber_sweep --pairs 10 --seed 51 --seconds 30

Each side runs in its own exported tree: ``git archive`` of ``--parent``,
and a copy of the working tree's files (tracked and untracked, minus
ignored ones) for the change, so the change need not be committed yet.
Pair ``i`` runs both sides on seed ``--seed + i``, the parent first on even
``i`` and the change first on odd ``i``, so that drift of the machine falls
on both sides alike.  Each run is
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0``
in its tree, under the interpreter that runs this script (whose versions
the entry records), and its entry keeps the last line of its standard
output (the benchmark's JSON result) verbatim.  Entries are appended to
``--out``.

A change-side entry names no commit, since it ran before one existed.
Every entry names its tree instead: the git tree ids of the exported
``src`` and ``perfbench``, which ``git rev-parse <commit>:src`` (and
``:perfbench``) reproduce for the commit that holds that tree.

At the end the script prints, per end-to-end metric, each side's median
and quartiles and the pairs the change won, ties counting for neither.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout


def export_commit(commit: str, dest: Path) -> None:
    """The tree of ``commit`` in ``dest``; nothing is written into ``.git``."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def export_worktree(dest: Path) -> None:
    """The working tree's tracked and unignored files in ``dest``."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is gone
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def git_tree_id(path: Path) -> str | None:
    """The id git gives the directory ``path`` as a tree (``None`` when it
    holds no file), computed without writing into ``.git``."""
    entries = []
    for child in path.iterdir():
        if child.is_dir():
            mode, oid = b"40000", git_tree_id(child)
            if oid is None:
                continue
            key = child.name.encode() + b"/"  # git orders a tree as "name/"
        else:
            data = child.read_bytes()
            mode = b"100755" if child.stat().st_mode & 0o100 else b"100644"
            oid = hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()
            key = child.name.encode()
        entries.append((key, mode + b" " + child.name.encode() + b"\0"
                        + bytes.fromhex(oid)))
    if not entries:
        return None
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def machine() -> dict:
    rec = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
           "blas_threads": 1}  # perfbench pins OPENBLAS_NUM_THREADS=1 in its children
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    import scipy

    rec["numpy"], rec["scipy"] = numpy.__version__, scipy.__version__
    return rec


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple[list, str]:
    command = ["python3", "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, *command[1:]], cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    last = lines[-1] if lines else ""
    if proc.returncode != 0:
        print(f"  exit {proc.returncode}: {proc.stderr.strip()[-400:]}", file=sys.stderr)
    return command, last


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarize(entries: list[dict], better: dict[str, str]) -> None:
    pairs: dict[int, dict[str, dict]] = {}
    for e in entries:
        try:
            result = json.loads(e["last_line"])
        except json.JSONDecodeError:
            continue
        pairs.setdefault(e["pair"], {})[e["side"]] = result
    complete = [p for p in pairs.values() if len(p) == 2]
    print(f"{len(complete)} complete pairs; correct: "
          f"{sum(p[s]['correct'] for p in complete for s in p)} of {2 * len(complete)} runs")
    for metric, direction in better.items():
        side = {s: [p[s]["metrics"][metric]["value"] for p in complete
                    if metric in p[s]["metrics"]] for s in ("parent", "change")}
        if not side["parent"] or len(side["parent"]) != len(side["change"]):
            continue
        sign = -1.0 if direction == "lower" else 1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(side["parent"], side["change"]))
        text = "; ".join(f"{s} median {q[1]:.6g} [q1 {q[0]:.6g}, q3 {q[2]:.6g}]"
                         for s, q in ((s, quartiles(v)) for s, v in side.items()))
        print(f"  {metric}: {text}; change better in {wins} of {len(complete)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--pr", type=int, required=True,
                        help="PR number of the change; the parent is PR - 1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=str(ROOT / "BENCH_trajectory.json"))
    args = parser.parse_args()

    parent = git("rev-parse", args.parent).strip()
    sides = {"parent": (parent, args.pr - 1), "change": (None, args.pr)}
    better = {m["name"]: m["better"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    out = Path(args.out)
    record = json.loads(out.read_text()) if out.exists() else {"entries": []}
    host = machine()
    new: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export_commit(parent, trees["parent"])
        export_worktree(trees["change"])
        # before the runs leave their caches in the trees
        tree_ids = {side: {d: git_tree_id(path / d) for d in ("src", "perfbench")}
                    for side, path in trees.items()}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                command, last = run_side(trees[side], args.workload, seed, args.seconds)
                commit, pr = sides[side]
                new.append({
                    "commit": commit, "tree": tree_ids[side], "pr": pr,
                    "side": side, "pair": i,
                    "workload": args.workload, "command": " ".join(command),
                    "seed": seed,
                    "date": datetime.datetime.now(datetime.timezone.utc)
                            .isoformat(timespec="seconds"),
                    "machine": host, "last_line": last,
                })
                print(f"pair {i} {side} seed {seed}: {last}", flush=True)
            record["entries"] += new[-2:]
            out.write_text(json.dumps(record, indent=1) + "\n")
    summarize(new, better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
