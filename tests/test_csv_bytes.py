"""``tools/csv_bytes.py``: the cell diff it prints for two CSVs that differ."""

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
    # the configs that csv_bytes and process_phases run: one per invocation,
    # the lognormal one reading the dump written beside them
    from blochlab.config import parse_config

    configs = csv_bytes.write_configs(tmp_path)
    assert [(w, inv.name) for w, inv, _ in configs] == [
        (w, inv.name) for w, inv in csv_bytes.benchmark_invocations()[0]]
    texts = [cfg.read_text(encoding="utf-8") for *_, cfg in configs]
    assert all(parse_config(text) for text in texts)
    assert sum(str(tmp_path / "lognormal.blf") in text for text in texts) == 1
