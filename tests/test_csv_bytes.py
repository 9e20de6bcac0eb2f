"""``tools/csv_bytes.py``: the cell diff it prints for two CSVs that differ,
the verdict per invocation, the exit status, and one tiny config run in
this checkout."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("csv_bytes", ROOT / "tools" / "csv_bytes.py")
csv_bytes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(csv_bytes)

OLD = "eps,lambda1,pass\n0.5,2.0,pass\n0.25,4.0,pass\n"


def test_identical_texts_have_no_diff():
    assert csv_bytes.cell_diffs(OLD, OLD) == []


def test_each_differing_cell_with_its_relative_change():
    new = "eps,lambda1,pass\n0.5,2.0000000002,pass\n0.25,4.0,fail\n"
    (value, verdict) = csv_bytes.cell_diffs(OLD, new)
    row, column, old, changed, rel = value
    assert (row, column, old, changed) == (0, "lambda1", "2.0", "2.0000000002")
    assert rel == pytest.approx(1e-10, rel=1e-6)
    assert verdict == (1, "pass", "pass", "fail", None)


def test_a_row_or_column_on_one_side_only():
    # a missing row reads None on every column; a new column on every row
    assert csv_bytes.cell_diffs(OLD, "eps,lambda1,pass\n0.5,2.0,pass\n") == [
        (1, "eps", "0.25", None, None), (1, "lambda1", "4.0", None, None),
        (1, "pass", "pass", None, None)]
    wider = "eps,lambda1,pass,gap\n0.5,2.0,pass,1\n0.25,4.0,pass,0\n"
    assert csv_bytes.cell_diffs(OLD, wider) == [
        (0, "gap", None, "1", None), (1, "gap", None, "0", None)]


def test_every_benchmark_config_is_written_and_parses(tmp_path):
    # the configs that csv_bytes runs: one per invocation,
    # the lognormal one reading the dump written beside them
    from blochlab.config import parse_config

    configs = csv_bytes.write_configs(tmp_path)
    assert [(w, inv.name) for w, inv, _ in configs] == [
        (w, inv.name) for w, inv in csv_bytes.benchmark_invocations()[0]]
    texts = [cfg.read_text(encoding="utf-8") for *_, cfg in configs]
    assert all(parse_config(text) for text in texts)
    assert sum(str(tmp_path / "lognormal.blf") in text for text in texts) == 1


def test_a_side_whose_own_runs_differ_is_reported():
    same = {side: [OLD.encode()] * 2 for side in csv_bytes.SIDES}
    assert csv_bytes.compare("x", same) == (True, ["x: identical"])
    new = OLD.replace("4.0", "4.5").encode()
    drift = dict(same, change=[OLD.encode(), new])
    assert csv_bytes.compare("x", drift) == (False, [
        "x: the change's own runs differ: 1 cell(s) differ",
        "  row 1, lambda1: 4.0 -> 4.5 (+1.25e-01)"])
    missing = dict(same, parent=[None, OLD.encode()])
    assert csv_bytes.compare("x", missing) == (False, ["x: no CSV from the parent"])


def test_the_exit_status_is_one_on_any_difference(monkeypatch, capsys):
    # main over faked trees and runs: the count of identical CSVs, then 0 or 1
    for name in ("export_commit", "export_worktree"):
        monkeypatch.setattr(csv_bytes, name, lambda *args: None)
    monkeypatch.setattr(csv_bytes, "write_configs", lambda tmp: [])
    for change, code in ((OLD, 0), (OLD.replace("4.0", "4.5"), 1)):
        result = {("w/x", 1): {"parent": [OLD.encode()], "change": [change.encode()]}}
        monkeypatch.setattr(csv_bytes, "measure", lambda *args: result)
        assert csv_bytes.main(["HEAD"]) == code
        assert capsys.readouterr().out.splitlines()[-1] == f"{1 - code} of 1 CSVs identical"


def test_both_sides_of_one_tiny_config(tmp_path):
    # the same tree on both sides: its CSVs match at every thread count
    cfg = tmp_path / "bloch.cfg"
    cfg.write_text("command = bloch\na = constant(1)\nn = 8\neta = (0.1, 0.2)\n",
                   encoding="utf-8")
    trees = {side: ROOT for side in csv_bytes.SIDES}
    result = csv_bytes.measure(trees, [("tiny/bloch", cfg, "bloch.csv")], 1, tmp_path / "out")
    assert list(result) == [("tiny/bloch", t) for t in csv_bytes.THREADS]
    for csvs in result.values():
        assert csv_bytes.compare("tiny/bloch", csvs) == (True, ["tiny/bloch: identical"])
