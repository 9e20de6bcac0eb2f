"""``tools/traffic.py``: the package lines that a run reaches."""

import importlib.util
import inspect
from pathlib import Path

from blochlab.bloch import bloch_lambda1
from blochlab.capacity import annulus_energy

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("traffic", ROOT / "tools" / "traffic.py")
traffic = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traffic)


def _lines(fn) -> tuple[Path, set[int]]:
    source, start = inspect.getsourcelines(fn)
    return Path(inspect.getfile(fn)).resolve(), set(range(start, start + len(source)))


def test_a_bloch_run_reaches_its_solve_and_not_the_annulus(tmp_path):
    hits, codes = traffic.trace_runs(
        ["command = bloch\na = constant(2)\nn = 8\neta = (0.3, 0.2)\n"], tmp_path)
    assert codes == [0]
    for fn, reached in ((bloch_lambda1, True), (annulus_energy, False)):
        path, lines = _lines(fn)
        assert bool(lines & hits.get(path, set())) == reached, fn.__name__


def test_ranges_join_lines_consecutive_among_the_executable():
    # 4 is not executable, so 3 and 5 are one range
    assert traffic.ranges([1, 3, 5, 9], [1, 2, 3, 5, 7, 9]) == "1, 3-5, 9"
