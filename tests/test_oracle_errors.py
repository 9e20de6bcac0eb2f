"""``tools/oracle_errors.py`` on a synthetic ``experiment:pw_thm22`` pass,
whose references are in the committed oracle cache."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("oracle_errors", ROOT / "tools" / "oracle_errors.py")
oracle_errors = importlib.util.module_from_spec(spec)
spec.loader.exec_module(oracle_errors)


def _cached_pw_thm22() -> list[tuple[float, int, float]]:
    # (eps, m, reference) of the committed pw_thm22 references
    cache = json.loads((ROOT / "perfbench" / "oracle_cache.json").read_text())
    cells = []
    for key, ref in cache.items():
        spec = json.loads(key)
        field = spec["field"]
        if spec["kind"] == "pw" and field["kind"] == "two_phase" and field["s"] == 1:
            cells.append((field["rho"], field["n"], ref["value"]))
    return sorted(cells, reverse=True)


def test_each_cell_against_its_cached_reference(tmp_path, capsys):
    cells = _cached_pw_thm22()
    assert [m for _, m, _ in cells] == [16, 32, 64]
    offsets = [3e-9, -2e-10, 0.0]
    out = tmp_path / "inclusions" / "pass0" / "pw_thm22"
    out.mkdir(parents=True)
    lines = ["eps,n,m,eta1,eta2,pw_constant"]
    for (eps, m, ref), off in zip(cells, offsets):
        lines.append(f"{eps!r},{round(m / eps)},{m},0.25,0,{ref * (1 + off)!r}")
    (out / "experiment_pw_thm22.csv").write_text("\n".join(lines) + "\n")
    before = sorted(p.name for p in (ROOT / "perfbench").iterdir())

    errors = oracle_errors.cell_errors(tmp_path / "inclusions")
    assert [(name, i, cell) for name, i, cell, *_ in errors] == [
        ("pw_thm22", i, "pw_constant") for i in range(3)]
    for (*_, err), off in zip(errors, offsets):
        assert err == pytest.approx(abs(off), rel=1e-6, abs=1e-15)

    assert oracle_errors.main([str(tmp_path / "inclusions")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 4 and printed[-1].startswith("largest: 3e-09 at pw_thm22 row 0")
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == before
    assert not (tmp_path / "oracle_local.json").exists()


def test_a_reference_below_the_shipped_constant_is_marked(tmp_path, capsys):
    # the shipped constant is a lower bound: only a reference more than
    # 1e-10 below it is marked, not one within that or one above it
    cells = _cached_pw_thm22()
    offsets = [5e-11, 2e-10, -5e-9]
    out = tmp_path / "inclusions" / "pass0" / "pw_thm22"
    out.mkdir(parents=True)
    lines = ["eps,n,m,eta1,eta2,pw_constant"]
    for (eps, m, ref), off in zip(cells, offsets):
        lines.append(f"{eps!r},{round(m / eps)},{m},0.25,0,{ref * (1 + off)!r}")
    (out / "experiment_pw_thm22.csv").write_text("\n".join(lines) + "\n")
    before = sorted(p.name for p in (ROOT / "perfbench").iterdir())

    assert oracle_errors.main([str(tmp_path / "inclusions")]) == 0
    printed = capsys.readouterr().out.splitlines()
    marked = [line.endswith("reference below lower bound") for line in printed[:3]]
    assert marked == [False, True, False]
    assert printed[-1].startswith("largest: 5e-09 at pw_thm22 row 2")
    assert sorted(p.name for p in (ROOT / "perfbench").iterdir()) == before


def test_a_pass_without_checked_cells_is_an_error(tmp_path):
    (tmp_path / "inclusions" / "pass0").mkdir(parents=True)
    assert oracle_errors.main([str(tmp_path / "inclusions")]) == 1
