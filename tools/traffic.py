"""The ``src/blochlab`` lines that no benchmark invocation runs.

    python3 tools/traffic.py

Every invocation of the workloads that ``BENCHMARK.json`` names, as
``perfbench/workloads.py`` defines them (imported without bytecode, so
nothing is written under ``perfbench/``), runs in this process through
``blochlab.cli.main`` at ``--threads 1``, with one BLAS thread and the
lognormal field of seed 1 (``write_lognormal(path, 1)``), under a
``sys.settrace`` line tracer that follows only frames of files in
``src/blochlab``.  The package is imported under the tracer too, so its
module-level lines count.  For each module the script then prints the
executable lines (those of its compiled code objects) that no invocation
reached, as ranges of consecutive executable lines, and every invocation
that did not exit 0.  Outputs go to a temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import types
from collections import defaultdict
from pathlib import Path

# a script's own directory leads sys.path; a module loaded by path needs it
sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_pairs import ROOT  # noqa: E402
from csv_bytes import FIELD_SEED, benchmark_invocations  # noqa: E402

PACKAGE = ROOT / "src" / "blochlab"


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the compiled code objects of ``path`` hold."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for *_, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def trace_runs(configs: list[str], workdir: Path) -> tuple[dict[Path, set[int]], list[int]]:
    """``({module path: lines reached}, exit codes)`` of ``blochlab.cli.main``
    run on each config text at ``--threads 1``, in this process, under a line
    tracer of the files in ``src/blochlab``; ``blochlab.cli`` is imported
    under it, from ``src/``, unless this process has imported it already."""
    hits: dict[Path, set[int]] = defaultdict(set)
    inside: dict[str, Path | None] = {}  # co_filename -> module path, None outside

    def module(filename: str) -> Path | None:
        if filename not in inside:
            path = Path(filename).resolve()
            inside[filename] = path if path.parent == PACKAGE else None
        return inside[filename]

    def on_line(frame, event, arg):
        if event == "line":
            hits[module(frame.f_code.co_filename)].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        path = module(frame.f_code.co_filename)
        if path is None:
            return None
        hits[path].add(frame.f_lineno)  # a def line holds the frame's first instruction
        return on_line

    sys.path.insert(0, str(ROOT / "src"))
    codes, previous = [], sys.gettrace()
    sys.settrace(on_call)
    try:
        import blochlab.cli

        for i, text in enumerate(configs):
            cfg = workdir / f"run{i}.cfg"
            cfg.write_text(text, encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes.append(blochlab.cli.main(["--config", str(cfg), "--out",
                                                str(workdir / f"out{i}"), "--threads", "1"]))
    finally:
        sys.settrace(previous)
        sys.path.remove(str(ROOT / "src"))
    return dict(hits), codes


def ranges(lines: list[int], executable: list[int]) -> str:
    """``lines``, a sorted subset of the sorted ``executable``, as ranges of
    lines that are consecutive in ``executable``: ``"3-5, 9"``."""
    position = {line: k for k, line in enumerate(executable)}
    runs: list[list[int]] = []
    for line in lines:
        if runs and position[line] == position[runs[-1][-1]] + 1:
            runs[-1].append(line)
        else:
            runs.append([line])
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in runs)


def main(argv: list[str]) -> int:
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    invocations, write_lognormal = benchmark_invocations()
    with tempfile.TemporaryDirectory(prefix="traffic_") as tmp:
        tmp = Path(tmp)
        dump = tmp / "lognormal.blf"
        write_lognormal(dump, FIELD_SEED)
        configs = [inv.config.replace("{field}", str(dump)) for _, inv in invocations]
        hits, codes = trace_runs(configs, tmp)
    for (workload, inv), code in zip(invocations, codes):
        if code != 0:
            print(f"{workload}/{inv.name}: exit {code}")
    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        executable = sorted(executable_lines(path))
        unreached = [line for line in executable if line not in hits.get(path, ())]
        total, missed = total + len(executable), missed + len(unreached)
        print(f"{path.relative_to(ROOT)}: {len(unreached)} of {len(executable)} "
              f"executable lines unreached" + (f": {ranges(unreached, executable)}"
                                               if unreached else ""))
    print(f"{missed} of {total} executable lines unreached by {len(codes)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
