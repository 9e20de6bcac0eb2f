"""``tools/process_phases.py``: one tiny config measured in this checkout."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "process_phases", ROOT / "tools" / "process_phases.py")
process_phases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(process_phases)


def test_each_side_reports_a_run_inside_its_process(tmp_path):
    # the same tree on both sides: every wall holds its run, and the report
    # has one line per side, then the summed medians
    cfg = tmp_path / "bloch.cfg"
    cfg.write_text("command = bloch\na = constant(1)\nn = 8\neta = (0.1, 0.2)\n",
                   encoding="utf-8")
    trees = {side: ROOT for side in process_phases.SIDES}
    result = process_phases.measure(trees, {"tiny/bloch": cfg}, 1, tmp_path / "out")
    for side in process_phases.SIDES:
        ((wall, run),) = result["tiny/bloch"][side]
        assert 0 < run < wall
        assert (tmp_path / "out" / side / "tiny_bloch" / "0" / "bloch.csv").exists()
    lines = process_phases.report(result)
    assert len(lines) == 1 + 2 + 2
    assert lines[1].startswith("tiny/bloch") and " rest " in lines[2]
    assert lines[3].startswith("sum of medians") and " rest " in lines[4]
