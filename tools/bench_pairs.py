"""Alternating parent/change pairs of the committed benchmark, recorded in
``BENCH_trajectory.jsonl``.

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
output (the benchmark's JSON result) verbatim.  As each run ends, its
entry is appended to ``--out`` as one JSON line; the script never reads or
rewrites ``--out``, so a finished run outlives a later kill.

A change-side entry names no commit, since it ran before one existed.
Every entry names its tree instead: the git tree ids of the exported
``src`` and ``perfbench``, which ``git rev-parse <commit>:src`` (and
``:perfbench``) reproduce for the commit that holds that tree.

At the end the script prints each side's runs that were not correct and
its failed/attempted operations, then applies the pair rule per
end-to-end metric of ``BENCHMARK.json``.  Medians and quartiles are taken
over each side's correct runs, and wins over the pairs whose two runs are
both correct, ties counting for neither.  The relative change of the
medians is flagged when it is worse than the metric's bound, and a gain is
resolved only when the change wins at least 9 of 10 pairs (and at least 10
pairs ran) and the gap between the medians exceeds the parent's
interquartile range.  Each metric's line gives that range relative to the
parent's median; where it is wider than the bound, a change that is neither
flagged nor a gain reads "unresolved" rather than "unchanged" or "worse,
within its bound", since the parent's own runs do not resolve the bound.
With fewer than ``MIN_PARENT_RUNS`` correct parent runs that spread is not
known at all, and every metric that is not flagged reads "unresolved: k
parent run(s)".
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: fewer correct parent runs than this leave the parent's spread unknown
#: (one run has an IQR of 0 by construction)
MIN_PARENT_RUNS = 4
#: one BLAS thread, as perfbench pins it in its children; every tool that
#: runs the package sets it before numpy loads
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


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
    env = dict(os.environ, **BLAS_PIN)
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


def summarize(entries: list[dict], metrics: list[dict]) -> list[str]:
    """The summary of ``entries`` under the pair rule, one line per item;
    ``metrics`` are the ``end_to_end`` entries of ``BENCHMARK.json``."""
    pairs: dict[int, dict[str, dict | None]] = {}
    left_out = []
    for e in entries:
        try:
            result = json.loads(e["last_line"])
        except json.JSONDecodeError:
            result = None  # the run ended before printing its result
        pairs.setdefault(e["pair"], {})[e["side"]] = result
        if not (result and result["correct"]):
            left_out.append(f"  not correct, left out: pair {e['pair']} {e['side']} "
                            f"seed {e['seed']}")

    def correct(p: dict, side: str) -> bool:
        return bool(p.get(side) and p[side]["correct"])

    lines = []
    for side in ("parent", "change"):
        runs = [p for p in pairs.values() if side in p]
        done = [p[side] for p in runs if p[side]]
        lines.append(f"{side}: {sum(correct(p, side) for p in runs)} of {len(runs)} runs "
                     f"correct; failed/attempted operations {sum(r['failed'] for r in done)}"
                     f"/{sum(r['attempted'] for r in done)}")
    lines += left_out
    both = [p for p in pairs.values() if correct(p, "parent") and correct(p, "change")]
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        side = {s: [p[s]["metrics"][name]["value"] for p in pairs.values()
                    if correct(p, s) and name in p[s]["metrics"]] for s in ("parent", "change")}
        if not side["parent"] or not side["change"]:
            continue
        q = {s: quartiles(v) for s, v in side.items()}
        med_p, med_c = q["parent"][1], q["change"][1]
        if med_p:
            rel = (med_c - med_p) / abs(med_p)
        else:
            rel = 0.0 if med_c == med_p else math.copysign(math.inf, med_c - med_p)
        won = [sign * (p["change"]["metrics"][name]["value"]
                       - p["parent"]["metrics"][name]["value"]) > 0
               for p in both if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        wins, n = sum(won), len(won)
        iqr = q["parent"][2] - q["parent"][0]
        spread = iqr / abs(med_p) if med_p else (math.inf if iqr else 0.0)
        if -sign * rel > bound:
            verdict = f"WORSE than its {bound:.0%} bound"
        elif len(side["parent"]) < MIN_PARENT_RUNS:
            verdict = f"unresolved: {len(side['parent'])} parent run(s)"
        elif sign * rel > 0 and n >= 10 and 10 * wins >= 9 * n and abs(med_c - med_p) > iqr:
            verdict = "gain resolved"
        elif sign * rel > 0:
            verdict = "gain unresolved"
        elif spread > bound:
            verdict = f"unresolved: parent spread {spread:.1%} > {bound:.0%} bound"
        else:
            verdict = f"worse, within its {bound:.0%} bound" if rel else "unchanged"
        text = "; ".join(f"{s} median {m:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] of {len(side[s])}"
                         for s, (q1, m, q3) in q.items())
        lines.append(f"  {name}: {text}; change {rel:+.2%}; better in {wins} of {n} "
                     f"pairs; gap {abs(med_c - med_p):.3g} vs parent IQR {iqr:.3g} "
                     f"({spread:.1%} of its median): {verdict}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit of the parent side")
    parser.add_argument("--pr", type=int, required=True,
                        help="PR number of the change; the parent is PR - 1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=str(ROOT / "BENCH_trajectory.jsonl"))
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    parent = git("rev-parse", args.parent).strip()
    sides = {"parent": (parent, args.pr - 1), "change": (None, args.pr)}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
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
                with open(args.out, "a") as log:
                    log.write(json.dumps(new[-1]) + "\n")
                print(f"pair {i} {side} seed {seed}: {last}", flush=True)
    print("\n".join(summarize(new, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
