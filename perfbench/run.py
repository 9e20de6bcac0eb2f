"""Benchmark of the blochlab command line, run from the root of a checkout.

    python3 perfbench/run.py --workload fiber_sweep --seed 1 --seconds 30 --trace 0

One client, closed loop: the workload's CLI invocations (see workloads.py)
run one at a time, each in a fresh process with one BLAS thread and
``--threads`` set to the number of usable cores.  Whole passes over the
workload repeat while another pass still fits in ``--seconds``; at least
one pass always runs.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s`` -- median over passes of the summed wall time of the
  workload's invocations, each from process spawn to exit;
* ``setup_s`` -- median over fresh interpreters of the time to import
  ``blochlab.cli`` and parse the workload's configs, spawn to exit;
* ``peak_rss_mb`` -- median over passes of the largest resident set of any
  process of the pass;
* ``value_rel_err_max`` -- largest relative error of any eigenvalue or
  Poincare-constant cell against the independent oracle (oracle.py);
* ``row_pass_ratio`` -- rows that exist and pass every ``*_pass`` cell,
  over rows attempted (a crashed invocation fails all its rows).

``--trace 1`` runs one untraced pass and then the same invocations through
tracing.py, and reports per-layer spans and counters, the kernel probe, and
the tracing overhead.

The run is correct when every CSV that was written has the expected rows,
the CSVs of one invocation are byte-identical across passes (traced ones
included), and no checked cell is off its reference by more than 10%.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    LOGNORMAL_N, WORKLOADS, Invocation, reference_cells, write_lognormal)

SETUP_REPEATS = 7
#: a cell this far off its reference is not the quantity asked for at all
WRONG_ANSWER_REL = 0.1
#: every child is killed once the run has lasted this long
RUN_DEADLINE_S = 170.0

SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import blochlab.cli as cli\n"
    "t = time.perf_counter() - t\n"
    "for p in sys.argv[1:]:\n"
    "    with open(p, encoding='utf-8') as fh:\n"
    "        cli.parse_config(fh.read())\n"
    "print(repr(t))\n"
)


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int


@dataclass
class Pass:
    children: list[Child] = field(default_factory=list)
    csv: dict[str, bytes | None] = field(default_factory=dict)
    codes: dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)


class Runner:
    """Spawns children with the pinned environment, under one deadline."""

    def __init__(self, root: Path, run_dir: Path):
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.threads = len(os.sched_getaffinity(0))

    def spawn(self, argv: list[str], log: Path) -> Child:
        timeout = max(self.deadline - time.monotonic(), 1.0)
        t0 = time.perf_counter()
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, cwd=self.run_dir)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime, proc.returncode)

    def run_pass(self, invs: list[Invocation], label: str, traced: bool) -> Pass:
        result = Pass()
        for inv in invs:
            out = self.run_dir / label / inv.name
            out.mkdir(parents=True)
            cli = ["--config", str(self.run_dir / "cfg" / f"{inv.name}.cfg"),
                   "--out", str(out), "--threads", str(self.threads)]
            if traced:
                argv = [sys.executable, str(HERE / "tracing.py"),
                        "--spans", str(out / "spans.json"), "--", *cli]
            else:
                argv = [sys.executable, "-m", "blochlab.cli", *cli]
            child = self.spawn(argv, out / "log.txt")
            result.children.append(child)
            result.codes[inv.name] = child.code
            path = out / inv.csv_name
            result.csv[inv.name] = path.read_bytes() if path.exists() else None
        return result


def machine_record() -> dict:
    rec = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                rec["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    rec["caches"] = caches
    import numpy as np
    import scipy

    rec["numpy"] = np.__version__
    rec["scipy"] = scipy.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        rec["blas"] = "unknown"
    return rec


def parse_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def check_outputs(invs, passes: list[Pass], traced: Pass | None, oracle,
                  file_field) -> dict:
    """Row outcomes of the untraced passes, oracle errors of the first one,
    and byte equality of every repeat, the traced one included."""
    problems: list[str] = []
    attempted = failed = 0
    for p in passes:
        for inv in invs:
            data = p.csv[inv.name]
            attempted += inv.rows
            if p.codes[inv.name] not in (0, 2) or data is None:
                failed += inv.rows          # crashed: its rows are missing
                continue
            rows = parse_rows(data)
            if len(rows) != inv.rows:
                problems.append(f"{inv.name}: {len(rows)} rows, expected {inv.rows}")
            failed += max(inv.rows - len(rows), 0)
            failed += sum(any(v == "fail" for k, v in r.items() if k.endswith("_pass"))
                          for r in rows)
    worst = (0.0, "")
    first = passes[0]
    for inv in invs:
        data = first.csv[inv.name]
        for p in passes[1:] + ([traced] if traced else []):
            if p.codes[inv.name] != first.codes[inv.name] or p.csv[inv.name] != data:
                problems.append(f"{inv.name}: output differs between repeats")
        if data is None:
            continue
        for i, row in enumerate(parse_rows(data)):
            for cell, spec in reference_cells(inv, row, file_field):
                ref = oracle.get(spec)
                err = abs(float(row[cell]) - ref) / abs(ref)
                if err > worst[0]:
                    worst = (err, f"{inv.name} row {i} {cell}")
                if not err <= WRONG_ANSWER_REL:
                    problems.append(f"{inv.name} row {i} {cell}: {row[cell]} vs {ref!r}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "rel_err_max": worst[0], "rel_err_where": worst[1]}


def experiment_rows(run_dir: Path, label: str, invs) -> list[float]:
    seconds = []
    for inv in invs:
        if not inv.command.startswith("experiment:"):
            continue
        sidecar = run_dir / label / inv.name / inv.csv_name.replace(".csv", ".json")
        if sidecar.exists():
            seconds += json.loads(sidecar.read_text())["wall_times"]["row_seconds"]
    return seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "blochlab" / "cli.py").is_file():
        print("error: no blochlab sources under ./src; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    import oracle as oracle_mod

    run_dir = root / ".bench_run" / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "cfg").mkdir(parents=True)
    invs = WORKLOADS[args.workload]
    runner = Runner(root, run_dir)
    machine = machine_record()
    load_before = os.getloadavg()

    # inputs from the seed, then the configs that name them
    file_field = None
    if any("{field}" in inv.config for inv in invs):
        dump = run_dir / "lognormal.blf"
        write_lognormal(dump, args.seed)
        file_field = oracle_mod.file_field(dump, LOGNORMAL_N)
    cfg_paths = []
    for inv in invs:
        path = run_dir / "cfg" / f"{inv.name}.cfg"
        text = inv.config.replace("{field}", str(run_dir / "lognormal.blf"))
        path.write_text(text, encoding="utf-8")
        cfg_paths.append(str(path))

    # untimed warm-up compiles the bytecode; every later import reads it
    runner.spawn([sys.executable, "-c", "import blochlab.cli"], run_dir / "warmup.log")
    setup, imports = [], []
    for i in range(SETUP_REPEATS):
        log = run_dir / f"setup{i}.log"
        child = runner.spawn([sys.executable, "-c", SETUP_CODE, *cfg_paths], log)
        if child.code != 0:
            print(f"error: setup probe failed:\n{log.read_text()}", file=sys.stderr)
            return 1
        setup.append(child.wall_s)
        imports.append(float(log.read_text().split()[-1]))

    passes: list[Pass] = []
    t_start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(invs, f"pass{len(passes)}", traced=False))
        elapsed = time.perf_counter() - t_start
        if args.trace or elapsed + passes[-1].wall_s > args.seconds:
            break
    traced = runner.run_pass(invs, "traced", traced=True) if args.trace else None

    oracle_mod.symbol_checks()
    oracle = oracle_mod.Oracle(root / ".bench_run" / "oracle_local.json")
    checked = check_outputs(invs, passes, traced, oracle, file_field)
    oracle.save()
    load_after = os.getloadavg()

    if args.trace:
        metrics = layer_metrics(runner, invs, passes[0], traced, imports)
    else:
        metrics = {
            "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(max(c.rss_mb for c in p.children)
                                              for p in passes), "MB"),
            "value_rel_err_max": (checked["rel_err_max"], "1"),
            "row_pass_ratio": (1.0 - checked["failed"] / checked["attempted"], "1"),
        }

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"load average before {load_before}, after {load_after}")
    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} untraced "
          f"pass(es), largest error at {checked['rel_err_where'] or '-'}")
    for i, inv in enumerate(invs):
        walls = " ".join(f"{p.children[i].wall_s:.3f}" for p in passes)
        print(f"  {inv.name}: exit {passes[0].codes[inv.name]}, wall {walls} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in checked["problems"]:
        print(f"check failed: {problem}")
    result = {
        "correct": not checked["problems"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_metrics(runner: Runner, invs, untraced: Pass, traced: Pass,
                  imports: list[float]) -> dict:
    """Per-layer metrics: trace spans and counters, sidecar row times,
    process figures and the kernel probe."""
    totals: dict[str, float] = {}
    for inv in invs:
        spans = runner.run_dir / "traced" / inv.name / "spans.json"
        if not spans.exists():
            continue
        for name, value in json.loads(spans.read_text())["totals"].items():
            totals[name] = totals.get(name, 0.0) + value
    probe_out = runner.run_dir / "probe.json"
    child = runner.spawn([sys.executable, str(HERE / "tracing.py"), "--probe",
                          str(probe_out)], runner.run_dir / "probe.log")
    if child.code != 0:
        raise RuntimeError(f"kernel probe failed:\n{(runner.run_dir / 'probe.log').read_text()}")
    totals.update(json.loads(probe_out.read_text()))

    from tracing import LAYER_METRICS

    nbytes = totals.get("sparse_linalg.matvec.bytes_computed", 0.0)
    totals["sparse_linalg.matvec.flops_per_byte"] = (
        totals.get("sparse_linalg.matvec.flops", 0.0) / nbytes if nbytes else 0.0)
    metrics = {name: (totals.get(name, 0.0), unit) for name, unit in LAYER_METRICS}
    rows = experiment_rows(runner.run_dir, "pass0", invs)
    metrics["experiments.rows"] = (float(len(rows)), "count")
    metrics["experiments.row_s.max"] = (max(rows, default=0.0), "s")
    metrics["experiments.row_s.sum"] = (sum(rows), "s")
    metrics["experiments.straggler_share"] = (
        max(rows) / sum(rows) if rows else 0.0, "1")
    metrics["process.import_s"] = (statistics.median(imports), "s")
    metrics["process.cpu_s"] = (sum(c.cpu_s for c in untraced.children), "s")
    metrics["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
