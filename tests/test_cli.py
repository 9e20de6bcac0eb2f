import inspect
import json
import math
import os
import re
import resource
from pathlib import Path

import numpy as np
import pytest

from blochlab.cli import (
    _HARNESS_KEYWORDS, _csv_cell, _harness, main, run_and_emit, write_csv,
)
from blochlab.config import _SCHEMA, EXPERIMENTS, parse_config
from blochlab.fieldio import write_field_dump
from blochlab.sparse_linalg import ConvergenceError


def run_main(argv):
    return main([str(a) for a in argv])


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_csv_cell_formats():
    assert _csv_cell(None) == ""
    assert _csv_cell(True) == "pass"
    assert _csv_cell(False) == "fail"
    assert _csv_cell(np.True_) == "pass"
    assert _csv_cell(3) == "3"
    assert _csv_cell(0.1) == "0.10000000000000001"
    assert _csv_cell(1.0) == "1"
    assert _csv_cell("word") == "word"


def test_write_csv_layout(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b"], [{"a": 1, "b": None}, {"a": 0.5, "b": True}])
    assert p.read_bytes() == b"a,b\n1,\n0.5,pass\n"


def test_bloch_command_matches_symbol(tmp_path):
    n = 16
    cfg = parse_config(
        f"command = bloch\na = constant(1)\nn = {n}\neta = (0.3, 0.2)\n"
    )
    code, paths = run_and_emit(cfg, out_dir=tmp_path)
    assert code == 0
    header, row = paths[0].read_text().splitlines()
    assert header == "eta1,eta2,lambda1,residual,iterations"
    cells = row.split(",")
    h = 2 * math.pi / n
    expect = sum(4 * math.sin(e * h / 2) ** 2 / h**2 for e in (0.3, 0.2))
    assert abs(float(cells[2]) - expect) < 1e-9
    assert float(cells[3]) < 1e-9


def test_homogenize_constant(tmp_path):
    cfg = parse_config("command = homogenize\na = constant(2)\nn = 8\n")
    code, paths = run_and_emit(cfg, out_dir=tmp_path)
    assert code == 0
    header, row = paths[0].read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["q11"]) == pytest.approx(2.0, abs=1e-12)
    assert float(vals["q22"]) == pytest.approx(2.0, abs=1e-12)
    assert abs(float(vals["q12"])) < 1e-12
    assert float(vals["defect"]) < 1e-12


def test_csv_bytes_stable_across_reruns(tmp_path):
    text = (
        "command = dispersion\n"
        "a = two_phase(eps=1/2, beta=4, rho=1/2)\n"
        "n = 16\neta = (0.25, 0.0)\n"
    )
    _, paths_a = run_and_emit(parse_config(text), out_dir=tmp_path / "a")
    _, paths_b = run_and_emit(parse_config(text), out_dir=tmp_path / "b")
    assert paths_a[0].read_bytes() == paths_b[0].read_bytes()


def test_experiment_csv_bytes_stable(tmp_path):
    # the in-process and the pooled run of each config write the same bytes
    configs = {
        "experiment_thm22.csv": "command = experiment:thm22\neps = 1/2\nn = 32\n",
        "experiment_gap_map.csv":
            "command = experiment:gap_map\neps = 1/3\nt_list = 1, 1/4\n",
        "experiment_thm31.csv": "command = experiment:thm31\neps = 1/3\n",
        "bloch.csv": "command = bloch\na = two_phase(eps=1/2, beta=4, rho=1/2)\n"
                     "n = 16\neta = (0.25, 0.0); (0.1, -0.2)\n",
    }
    workers = min(2, len(os.sched_getaffinity(0)))
    for csv_name, text in configs.items():
        out = tmp_path / csv_name
        _, pa = run_and_emit(parse_config(text), out_dir=out / "a", threads=1)
        _, pb = run_and_emit(parse_config(text), out_dir=out / "b", threads=2)
        assert pa[0].name == csv_name
        assert pa[0].read_bytes() == pb[0].read_bytes()
        sidecar = json.loads(pb[1].read_text())
        assert sidecar["threads"] == 2 and sidecar["workers"] == workers
        assert all(t > 0 for t in sidecar["wall_times"]["row_seconds"])


def test_capacity_and_homogenize_rows_are_tasks(tmp_path):
    # one task per sweep rung and one for homogenize: the same bytes in
    # process and pooled, with the row times in the sidecar only
    configs = {
        "capacity.csv": ("command = capacity\neps = 1/3, 1/4\ngamma = 2\n",
                         min(2, len(os.sched_getaffinity(0)))),
        "homogenize.csv": ("command = homogenize\n"
                           "a = two_phase(eps=1/2, beta=4, rho=1/2)\nn = 16\n", 1),
    }
    for csv_name, (text, workers) in configs.items():
        out = tmp_path / csv_name
        _, pa = run_and_emit(parse_config(text), out_dir=out / "a", threads=1)
        _, pb = run_and_emit(parse_config(text), out_dir=out / "b", threads=2)
        assert pa[0].name == csv_name
        assert pa[0].read_bytes() == pb[0].read_bytes()
        assert b"runtime_seconds" not in pa[0].read_bytes()
        for path, n_workers in ((pa[1], 1), (pb[1], workers)):
            sidecar = json.loads(path.read_text())
            assert sidecar["workers"] == n_workers
            seconds = sidecar["wall_times"]["row_seconds"]
            assert len(seconds) == len(pa[0].read_text().splitlines()) - 1
            assert all(t > 0 for t in seconds)


def test_sidecar_contents(tmp_path):
    cfg = parse_config("command = experiment:thm22\neps = 1/2\nn = 32\n")
    _, paths = run_and_emit(cfg, out_dir=tmp_path, threads=3)
    meta = json.loads(paths[1].read_text())
    assert meta["command"] == "experiment:thm22"
    assert meta["threads"] == 3
    assert meta["workers"] == min(3, len(os.sched_getaffinity(0)))
    assert meta["q_normalization"] == "cell-average"
    assert "gap" in meta["columns"]
    assert set(meta["checks"]) >= {"gap_nonincreasing_pass"}
    assert meta["wall_times"]["total_seconds"] > 0
    rss = meta["peak_rss_mb"]
    assert 0 < rss["process"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if meta["workers"] > 1:
        assert rss["workers"] > 0
    else:
        assert rss["workers"] is None
    assert "command = experiment:thm22" in meta["config"]
    assert "package_version" in meta and "git_describe" in meta


def test_capacity_annulus_mode(tmp_path):
    cfg = parse_config("command = capacity\nr = 0.28\nn = 256\n")
    code, paths = run_and_emit(cfg, out_dir=tmp_path)
    assert code == 0
    header, row = paths[0].read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["rel_error"]) < 0.02


def test_capacity_needs_a_mode(tmp_path):
    cfg = parse_config("command = capacity\n")
    rc = run_main(["--config", write_cfg(tmp_path, "command = capacity\n")])
    assert rc == 1
    with pytest.raises(Exception):
        run_and_emit(cfg, out_dir=tmp_path)


def test_from_file_field(tmp_path):
    rng = np.random.default_rng(67)
    vals = np.exp(0.3 * rng.standard_normal(64))
    dump = tmp_path / "medium.blf"
    write_field_dump(dump, vals, (8, 8))
    cfg = parse_config(f"command = homogenize\na = from_file(path={dump})\nn = 8\n")
    code, paths = run_and_emit(cfg, out_dir=tmp_path)
    assert code == 0
    header, row = paths[0].read_text().splitlines()
    q11 = float(dict(zip(header.split(","), row.split(",")))["q11"])
    assert 1.0 / np.mean(1.0 / vals) - 1e-9 <= q11 <= vals.mean() + 1e-9


def test_main_success_prints_paths(tmp_path, capsys):
    p = write_cfg(tmp_path, "command = homogenize\na = constant(1)\nn = 8\n")
    rc = run_main(["--config", p, "--out", tmp_path / "out"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("homogenize.csv")
    assert lines[1].endswith("homogenize.json")


def test_main_has_no_seed_flag(tmp_path):
    # start vectors use a fixed internal seed: there is nothing to override
    p = write_cfg(tmp_path, "command = homogenize\na = constant(1)\nn = 8\n")
    with pytest.raises(SystemExit) as exc:
        run_main(["--config", p, "--seed", 99])
    assert exc.value.code == 2


def test_main_missing_config(tmp_path, capsys):
    rc = run_main(["--config", tmp_path / "nope.cfg"])
    assert rc == 1
    assert "cannot read config" in capsys.readouterr().err


def test_main_bad_config(tmp_path, capsys):
    p = write_cfg(tmp_path, "command = fly\n")
    rc = run_main(["--config", p])
    assert rc == 1
    assert "unknown command" in capsys.readouterr().err


def test_main_pooled_failure_exits_one(tmp_path, capsys, monkeypatch):
    # a solve that fails inside a pool worker still ends the run with exit 1
    import blochlab.cli

    def fail(*args, **kwargs):
        raise ConvergenceError("eigensolver did not converge", [1.0, 0.5])

    monkeypatch.setattr(blochlab.cli, "bloch_lambda1", fail)  # inherited by fork
    p = write_cfg(tmp_path, "command = bloch\na = constant(1)\nn = 8\n"
                            "eta = (0.1, 0.0); (0.2, 0.0)\n")
    rc = run_main(["--config", p, "--out", tmp_path / "out", "--threads", 2])
    assert rc == 1
    assert "ConvergenceError: eigensolver did not converge" in capsys.readouterr().err


def test_main_exit_two_on_failed_checks(tmp_path, capsys):
    # reversed ladder: the gap grows instead of shrinking, so the
    # monotonicity column fails while files are still written
    p = write_cfg(tmp_path, "command = experiment:thm22\neps = 1/4, 1/2\nn = 64\n")
    rc = run_main(["--config", p, "--out", tmp_path / "out"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "assertion columns" in captured.err
    csv_text = (tmp_path / "out" / "experiment_thm22.csv").read_text()
    assert "fail" in csv_text


README = Path(__file__).resolve().parents[1] / "README.md"

#: the smallest config of every table kind, keyed as in README's column block
_SMALLEST = {
    "homogenize": "command = homogenize\na = constant(1)\nn = 8\n",
    "bloch": "command = bloch\na = constant(1)\nn = 8\neta = (0.1, 0.2)\n",
    "dispersion": "command = dispersion\na = constant(1)\nn = 8\neta = (0.1, 0.2)\n",
    "pw": "command = pw\na = two_phase(eps=1/2, beta=4, rho=1/2)\nn = 16\n"
          "eta = (1.0, 0.0)\n",
    "capacity (annulus mode)": "command = capacity\nr = 0.28\nn = 64\n",
    "capacity (sweep mode)": "command = capacity\neps = 1/3\ngamma = 2\n",
    "experiment:thm22": "command = experiment:thm22\neps = 1/2\nn = 32\n",
    "experiment:thm31": "command = experiment:thm31\neps = 1/3\n",
    "experiment:gap_map": "command = experiment:gap_map\neps = 1/3\nt_list = 1, 1/4\n",
    "experiment:pw_thm22": "command = experiment:pw_thm22\neps = 1/2\n",
    "experiment:pw_fiber": "command = experiment:pw_fiber\neps = 1/3\n",
}


def _readme_column_orders() -> dict[str, str]:
    """README's normative column orders; a line that starts with a space
    continues the table above it."""
    section = README.read_text(encoding="utf-8").split(
        "### Normative CSV column orders", 1)[1].split("Floats are written", 1)[0]
    orders: dict[str, str] = {}
    for block in re.findall(r"```\n(.*?)```", section, re.S):
        for line in block.splitlines():
            if line[:1].isspace():
                orders[name] += line.strip()
                continue
            name, columns, *mode = line.split(maxsplit=2)
            name = f"{name} {mode[0]}" if mode else name
            orders[name] = columns
    return orders


def test_csv_headers_match_readme(tmp_path):
    orders = _readme_column_orders()
    assert set(orders) == set(_SMALLEST)
    for name, text in _SMALLEST.items():
        cfg = parse_config(text)
        _, paths = run_and_emit(cfg, out_dir=tmp_path / name)
        header = paths[0].read_text().splitlines()[0]
        d = len(cfg.eta[0]) if cfg.eta else 0
        expect = re.sub(r"(\w+)1,\.\.\.,\1d",
                        lambda m: ",".join(f"{m[1]}{k}" for k in range(1, d + 1)),
                        orders[name])
        assert header == expect, name


def test_experiment_keys_are_harness_parameters():
    # a key the schema admits for an experiment is a keyword its harness reads
    run_keys = {key for key, (_, cmds) in _SCHEMA.items() if cmds == "*"}
    assert run_keys == {"command", "out", "q_normalization"}
    for name in EXPERIMENTS:
        params = inspect.signature(_harness(name)).parameters
        keys = [key for key, (_, cmds) in _SCHEMA.items()
                if cmds != "*" and f"experiment:{name}" in cmds]
        assert keys, name
        for key in keys:
            assert _HARNESS_KEYWORDS[key] in params, (name, key)
