"""``tools/traffic.py``: the package lines that a run reaches."""

import importlib.util
import inspect
import os
from pathlib import Path

import pytest

from blochlab import experiments
from blochlab.bloch import bloch_lambda1
from blochlab.capacity import annulus_energy

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
traffic = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traffic)


def _lines(fn) -> tuple[Path, set[int]]:
    source, start = inspect.getsourcelines(fn)
    return Path(inspect.getfile(fn)).resolve(), set(range(start, start + len(source)))


def _line(fn, text: str) -> int:
    """The one line of ``fn``'s source that holds ``text``."""
    source, start = inspect.getsourcelines(fn)
    (line,) = [start + k for k, code in enumerate(source) if text in code]
    return line


def _config(tmp_path, text) -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def test_a_bloch_run_reaches_its_solve_and_not_the_annulus(tmp_path):
    hits, codes = traffic.trace_runs(
        [_config(tmp_path, "command = bloch\na = constant(2)\nn = 8\neta = (0.3, 0.2)\n")],
        tmp_path)
    assert codes == [0] * len(traffic.THREADS)  # one run per thread count
    for fn, reached in ((bloch_lambda1, True), (annulus_energy, False)):
        path, lines = _lines(fn)
        assert bool(lines & hits.get(path, set())) == reached, fn.__name__


def test_ranges_join_lines_consecutive_among_the_executable():
    # 4 is not executable, so 3 and 5 are one range
    assert traffic.ranges([1, 3, 5, 9], [1, 2, 3, 5, 7, 9]) == "1, 3-5, 9"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs 2 usable cores")
def test_two_momenta_at_two_threads_reach_the_pool(tmp_path, monkeypatch):
    # the path perfbench's runs take: at --threads 2 the two solves go to a
    # forked pool, whose workers the tracer does not follow
    monkeypatch.setattr(traffic, "THREADS", [2])
    hits, codes = traffic.trace_runs(
        [_config(tmp_path, "command = bloch\na = constant(2)\nn = 8\n"
                           "eta = (0.3, 0.2); (0.1, 0.1)\n")], tmp_path)
    assert codes == [0]
    reached = hits[Path(inspect.getfile(experiments)).resolve()]
    assert _line(experiments.map_tasks, ".Pool(") in reached
    assert _line(experiments._pooled, "return") not in reached  # only a worker runs it
