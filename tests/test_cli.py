import ast
import csv
import importlib
import inspect
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import blochlab.cli
from blochlab.cli import _csv_cell, _harness, main, run_and_emit, write_csv
from blochlab.config import _COMMANDS, _KINDS, EXPERIMENTS, ConfigError, parse_config
from blochlab.fieldio import write_field_dump
from blochlab.sparse_linalg import ConvergenceError


#: the allocator policy ``main`` applies; the fixture below keeps it out of
#: the test process, and the test of the policy puts it back
_USE_ONE_HEAP = blochlab.cli._use_one_heap


@pytest.fixture(autouse=True)
def _default_allocator(monkeypatch):
    # a main run in this process would otherwise switch its allocator for
    # every later test; the CLI's own policy is tested in subprocesses
    monkeypatch.setattr(blochlab.cli, "_use_one_heap", lambda: None)


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


def test_bloch_command_on_two_cells_per_axis(tmp_path):
    # a 4-cell pencil, solved by the block eigensolver like any other
    cfg = parse_config(
        "command = bloch\na = constant(2)\nn = 2\neta = (0.3, 0.2); (0.1, -0.2)\n"
    )
    code, paths = run_and_emit(cfg, out_dir=tmp_path)
    assert code == 0
    h = math.pi
    for row in paths[0].read_text().splitlines()[1:]:
        cells = [float(c) for c in row.split(",")]
        expect = 2 * sum(4 * math.sin(e * h / 2) ** 2 / h**2 for e in cells[:2])
        assert abs(cells[2] - expect) <= 1e-14 * expect


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
    # one task per sweep rung and one for homogenize: the same bytes at every
    # thread count, with the row times in the sidecar only; capacity rows
    # never assemble, so they run in this process, never on a pool
    configs = {
        "capacity.csv": ("command = capacity\neps = 1/3, 1/4\ngamma = 2\n", 1),
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


def _peak_rss_now_mb() -> float:
    """This process's peak RSS, read as the sidecar reads it: ``VmHWM``
    where ``/proc/self/status`` has it (it never falls), else
    ``ru_maxrss``.  On Linux the two are different kernel counters, and
    ``VmHWM`` may read above a ``ru_maxrss`` taken at the same moment."""
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_sidecar_contents(tmp_path):
    text = "# one rung\ncommand = experiment:thm22\neps = 1/2\nn = 32\n"
    cfg = parse_config(text)
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
    assert 0 < rss["process"] <= _peak_rss_now_mb()
    if meta["workers"] > 1:
        assert rss["workers"] > 0
    else:
        assert rss["workers"] is None
    assert meta["config"] == text  # the text as read, comment included
    assert "package_version" in meta and "git_describe" in meta


def test_sidecar_run_time_ends_before_the_outputs(tmp_path, monkeypatch):
    # total_seconds is taken once the table is computed: a slow git_describe
    # (a subprocess in a checkout) is not part of the run
    def slow_git_describe():
        time.sleep(0.3)
        return "unknown"

    cfg = parse_config("command = bloch\na = constant(1)\nn = 8\neta = (0.1, 0.2)\n")
    run_and_emit(cfg, out_dir=tmp_path / "warm")  # the first run imports scipy
    monkeypatch.setattr(blochlab.cli, "git_describe", slow_git_describe)
    _, paths = run_and_emit(cfg, out_dir=tmp_path)
    meta = json.loads(paths[1].read_text())
    assert meta["git_describe"] == "unknown"
    assert 0 < meta["wall_times"]["total_seconds"] < 0.3


def test_experiment_keys_reach_the_harness(tmp_path):
    # an experiment's one eta tuple, eps ladder and t_list reach its harness
    # as the floats the config wrote; the gap map's t = 1/4 check fails by
    # design, and the files are written either way
    def run(text, expect_code):
        code, (csv_path, json_path) = run_and_emit(parse_config(text), out_dir=tmp_path)
        assert code == expect_code
        header, *rows = csv_path.read_text().splitlines()
        rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
        return rows, json.loads(json_path.read_text())["table_meta"]

    rows, meta = run("command = experiment:thm22\neps = 1/2\neta = (0.2, 0.1)\n", 0)
    assert [(r["eps"], r["eta1"], r["eta2"]) for r in rows] == [
        ("0.5", "0.20000000000000001", "0.10000000000000001")]
    assert meta["eta"] == [0.2, 0.1]
    rows, meta = run("command = experiment:gap_map\neps = 1/3\neta = (0.1, 0.2, 0.25)\n"
                     "t_list = 1, 1/4\n", 2)
    assert [(float(r["eps"]), float(r["t"])) for r in rows] == [(1 / 3, 1.0), (1 / 3, 0.25)]
    assert meta["eta"] == [0.1, 0.2, 0.25] and meta["t_list"] == [1.0, 0.25]


def test_capacity_annulus_mode(tmp_path):
    cfg = parse_config("command = capacity\nr = 0.28\nn = 256\n")
    code, paths = run_and_emit(cfg, out_dir=tmp_path)
    assert code == 0
    header, row = paths[0].read_text().splitlines()
    vals = dict(zip(header.split(","), row.split(",")))
    assert float(vals["rel_error"]) < 0.02


def test_capacity_needs_a_mode(tmp_path):
    with pytest.raises(ConfigError, match="either r .* or eps and gamma"):
        parse_config("command = capacity\n")
    rc = run_main(["--config", write_cfg(tmp_path, "command = capacity\n")])
    assert rc == 1


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


def test_from_file_path_with_parenthesized_commas(tmp_path):
    # a comma inside parentheses does not split the constructor's arguments
    dump = tmp_path / "p(1,2)" / "dump(3,4).bin"
    dump.parent.mkdir()
    write_field_dump(dump, np.full(64, 2.0), (8, 8))
    p = write_cfg(tmp_path, f"command = bloch\na = from_file(path={dump})\nn = 8\n"
                            "eta = (0.3, 0.2)\n")
    assert run_main(["--config", p, "--out", tmp_path / "out"]) == 0
    header, row = (tmp_path / "out" / "bloch.csv").read_text().splitlines()
    h = 2 * math.pi / 8
    expect = 2 * sum(4 * math.sin(e * h / 2) ** 2 / h**2 for e in (0.3, 0.2))
    assert abs(float(row.split(",")[2]) - expect) <= 1e-9 * expect


def test_main_success_prints_paths(tmp_path, capsys):
    text = "command = homogenize\r\na = constant(1)\r\nn = 8\r\n"
    p = write_cfg(tmp_path, text)
    rc = run_main(["--config", p, "--out", tmp_path / "out"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].endswith("homogenize.csv")
    assert lines[1].endswith("homogenize.json")
    # the sidecar records the file's text, line ends included
    assert json.loads(Path(lines[1]).read_text())["config"] == text


def test_main_pw_experiment_rejects_third_eta_component(tmp_path, capsys):
    p = write_cfg(tmp_path, "command = experiment:pw_thm22\neps = 1/2\n"
                            "eta = (0.25, 0.0, 9)\n")
    rc = run_main(["--config", p, "--out", tmp_path / "out"])
    assert rc == 1
    assert "eta must have two components" in capsys.readouterr().err


#: the directory holding the ``blochlab`` package under test
_PACKAGE_ROOT = Path(blochlab.cli.__file__).resolve().parents[1]


def _python(code: str, *args, **env) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports the package under
    test, with ``env`` set in its environment."""
    return _interpreter(["-c", code, *args], **env)


def _interpreter(args, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args`` that imports the package under test,
    with ``env`` set in its environment and standard output and error to
    pipes, buffered as pipes are by default (``PYTHONUNBUFFERED`` is
    dropped)."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [str(_PACKAGE_ROOT)] + ([path] if path else [])))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)


_IMPORT_PROBE = r"""
import json, sys
import blochlab.cli as cli

report = {"blochlab": [m for m in sys.modules if m.split(".")[0] == "blochlab"],
          "scipy_at_import": [m for m in sys.modules if m.startswith("scipy")]}
report["parsed"] = [cli.parse_config(text).command for text in (
    "command = homogenize\na = two_phase(eps=1/4, beta=16, rho=1/4)\nn = 128\n",
    "command = bloch\na = constant(1)\nn = 8\neta = (0.1, 0.2)\n",
    "command = dispersion\na = fiber(eps=1/3, gamma=2)\nn = 156\neta = (0.2, 0.2, 0.3)\n",
    "command = pw\na = fiber_lattice(eps=1/3, r=0.1, beta=10)\nn = 378\neta = (1, 0)\n",
    "command = capacity\neps = 1/3, 1/4\ngamma = 2\nn = 64\nR = 1.5\n",
    "command = capacity\nr = 0.28\n",
    "command = experiment:thm22\neps = 1/2, 1/4\nn = 128\n",
    "command = experiment:thm31\neps = 1/3, 1/4\nn = 360\ngamma = 2\n",
    "command = experiment:gap_map\neps = 1/3, 1/4\ngamma = 2\nt_list = 1, 1/4\n",
    "command = experiment:pw_thm22\neps = 1/2, 1/4\n",
    "command = experiment:pw_fiber\neps = 1/3\ngamma = 2\n",
)]
report["scipy_after_parse"] = [m for m in sys.modules if m.startswith("scipy")]
report["capacity_codes"] = [
    cli.run_and_emit(cli.parse_config(text), out_dir=sys.argv[1], threads=threads)[0]
    for text in ("command = capacity\nr = 0.28\nn = 64\n",
                 "command = capacity\neps = 1/3, 1/4\ngamma = 2\nn = 216\n")
    for threads in (1, 2)]
report["scipy_after_runs"] = [m for m in sys.modules if m.startswith("scipy")]
print(json.dumps(report))
"""


def test_import_loads_every_module_and_no_scipy(tmp_path):
    # perfbench's tracer needs every module loaded by `import blochlab.cli`;
    # scipy loads only at an unpooled run's first sparse assembly or before
    # a pool forks, so config parsing (grid planning included, for every
    # command) and the capacity command, in both modes and at any thread
    # count, never pay for it
    proc = _python(_IMPORT_PROBE, tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    expected = {"blochlab"} | {f"blochlab.{p.stem}" for p in
                               (_PACKAGE_ROOT / "blochlab").glob("*.py")
                               if p.stem != "__init__"}
    assert set(report["blochlab"]) == expected
    assert report["scipy_at_import"] == []
    assert set(report["parsed"]) == set(_COMMANDS)
    assert report["scipy_after_parse"] == []
    assert report["capacity_codes"] == [0, 0, 0, 0]
    assert report["scipy_after_runs"] == []


_POOL_PROBE = r"""
import json, sys
import blochlab.cli
from blochlab.experiments import map_tasks

def sparse_loaded(i):
    return "scipy.sparse" in sys.modules

done, pool, _ = map_tasks(sparse_loaded, [(i,) for i in range(4)], workers=2)
print(json.dumps({"pool": pool, "loaded": [v for v, _ in done],
                  "parent": "scipy.sparse" in sys.modules}))
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a pool of one runs its tasks in this process")
def test_pooled_tasks_start_with_scipy_loaded():
    # every pooled task assembles: the parent loads the sparse carrier before
    # it forks, so no worker imports it and no task's time holds the import
    proc = _python(_POOL_PROBE)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report == {"pool": 2, "loaded": [True] * 4, "parent": True}


_FORK_PROBE = r"""
import os
import blochlab.cli
from blochlab.experiments import map_tasks

print(len(os.listdir("/proc/self/task")))
map_tasks(abs, [(-1,), (-2,)], workers=2)
map_tasks(abs, [(-1,), (-2,)], workers=2)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a pool of one runs its tasks in this process")
@pytest.mark.skipif(not Path("/proc/self/task").exists(),
                    reason="threads are counted in /proc/self/task")
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_pool_warns_when_forking_a_threaded_parent(blas_threads):
    # numpy's BLAS starts its threads at import, before blochlab could pin
    # them; a pool forked from such a parent warns and names the fix, at
    # each of the probe's two calls.  The second call must not count the
    # first pool's lingering handler threads: a single-threaded parent
    # never warns
    proc = _python(_FORK_PROBE, OPENBLAS_NUM_THREADS=str(blas_threads))
    assert proc.returncode == 0, proc.stderr
    threads = int(proc.stdout)
    if blas_threads > 1 and threads == 1:
        pytest.skip("this numpy's BLAS starts no thread of its own")
    assert threads == blas_threads
    warning = (f"RuntimeWarning: forking 2 pool workers from a process with "
               f"{threads} threads; set OPENBLAS_NUM_THREADS=1 before the run")
    assert proc.stderr.count(warning) == (2 if threads > 1 else 0), proc.stderr
    assert ("RuntimeWarning" in proc.stderr) == (threads > 1), proc.stderr


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="on one core BLAS starts no second thread")
@pytest.mark.skipif(not Path("/proc/self/task").exists(),
                    reason="threads are counted in /proc/self/task")
@pytest.mark.parametrize("blas_threads", [1, 2])
def test_sidecar_records_the_thread_count(tmp_path, blas_threads):
    # the CLI's thread count as its run starts: an unpinned BLAS shows here
    cfg = write_cfg(tmp_path, "command = capacity\nr = 0.28\nn = 64\n")
    main = "import sys, blochlab.cli; sys.exit(blochlab.cli.main(sys.argv[1:]))"
    proc = _python(main, "--config", cfg, "--out", tmp_path / "out",
                   OPENBLAS_NUM_THREADS=str(blas_threads))
    assert proc.returncode == 0, proc.stderr
    threads = json.loads((tmp_path / "out" / "capacity.json").read_text())["os_threads"]
    if blas_threads > 1 and threads == 1:
        pytest.skip("this numpy's BLAS starts no thread of its own")
    assert threads == blas_threads


#: the allocator record of a CLI sidecar: glibc's mallopt takes both
#: settings; elsewhere none is applied
_ALLOCATOR = ({"M_MMAP_MAX": 0, "M_TRIM_THRESHOLD": 1 << 30}
              if platform.libc_ver()[0] == "glibc" else None)

_IN_PROCESS = r"""
import sys, blochlab.cli as cli
with open(sys.argv[1], encoding="utf-8") as fh:
    cli.run_and_emit(cli.parse_config(fh.read()), out_dir=sys.argv[2],
                     threads=int(sys.argv[3]))
"""


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("text", [
    "command = experiment:thm31\neps = 1/3, 1/4\n",
    "command = experiment:thm22\neps = 1/2, 1/4\nn = 64\n",
], ids=["thm31", "thm22"])
def test_allocator_policy_keeps_the_csv_bytes(tmp_path, text, threads):
    # the CLI serves its arrays from one untrimmed heap, a library caller
    # from the default allocator: where an array lives moves no bit
    cfg = write_cfg(tmp_path, text)
    main = "import sys, blochlab.cli; sys.exit(blochlab.cli.main(sys.argv[1:]))"
    proc = _python(main, "--config", cfg, "--out", tmp_path / "cli",
                   "--threads", threads)
    assert proc.returncode == 0, proc.stderr
    proc = _python(_IN_PROCESS, cfg, tmp_path / "lib", threads)
    assert proc.returncode == 0, proc.stderr
    name = parse_config(text).command.replace(":", "_")
    csvs = [(tmp_path / side / f"{name}.csv").read_bytes() for side in ("cli", "lib")]
    assert csvs[0] == csvs[1]
    sidecars = [json.loads((tmp_path / side / f"{name}.json").read_text())
                for side in ("cli", "lib")]
    assert [s["allocator"] for s in sidecars] == [_ALLOCATOR, None]


class _Libc:
    """A libc whose ``mallopt`` records its calls and accepts each."""

    def __init__(self, calls: list):
        def mallopt(param, value):
            calls.append((param, value))
            return 1
        self.mallopt = mallopt


@pytest.mark.parametrize("has_mallopt", [True, False])
def test_main_applies_the_allocator_policy(tmp_path, monkeypatch, has_mallopt):
    # main hands mallopt both settings and records them; a libc without
    # mallopt runs the same, and the sidecar says that nothing was applied
    import ctypes

    calls = []
    monkeypatch.setattr(blochlab.cli, "_use_one_heap", _USE_ONE_HEAP)
    monkeypatch.setattr(blochlab.cli, "_allocator", None)
    monkeypatch.setattr(ctypes, "CDLL",
                        lambda name: _Libc(calls) if has_mallopt else object())
    text = "command = capacity\nr = 0.28\nn = 64\n"
    cfg = write_cfg(tmp_path, text)
    assert run_main(["--config", cfg, "--out", tmp_path / "cli"]) == 0
    assert set(calls) == ({(-4, 0), (-1, 1 << 30)} if has_mallopt else set())
    _, (reference, _) = run_and_emit(parse_config(text), out_dir=tmp_path / "lib")
    assert (tmp_path / "cli" / "capacity.csv").read_bytes() == reference.read_bytes()
    sidecar = json.loads((tmp_path / "cli" / "capacity.json").read_text())
    assert sidecar["allocator"] == ({"M_MMAP_MAX": 0, "M_TRIM_THRESHOLD": 1 << 30}
                                    if has_mallopt else None)


_AFTER_A_LARGE_CHILD = r"""
import subprocess, sys
import blochlab.cli as cli
ballast = "b = b'x' * (300 << 20)"
subprocess.run([sys.executable, "-c", ballast], check=True)
text = "command = experiment:thm22\neps = 1/2\nn = 32\n"
cli.run_and_emit(cli.parse_config(text), out_dir=sys.argv[1], threads=2)
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="a pool of one runs its tasks in this process")
def test_sidecar_workers_peak_is_this_runs_pool(tmp_path):
    # a 300 MB child reaped before the run is no worker of its pool
    proc = _python(_AFTER_A_LARGE_CHILD, tmp_path)
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "experiment_thm22.json").read_text())
    assert meta["workers"] == 2
    assert 0 < meta["peak_rss_mb"]["workers"] < 300
    assert meta["allocator"] is None  # a library caller keeps its allocator


def test_package_exports_resolve():
    # a deleted name must not linger in the export list
    import blochlab

    assert len(set(blochlab.__all__)) == len(blochlab.__all__)
    for name in blochlab.__all__:
        assert hasattr(blochlab, name), name


#: public names of the library that no other library or perfbench code
#: names, each with the reason it stays public
_USER_FACING = {
    "canonical_momentum": "the first-zone error message tells users to fold "
                          "momenta with it",
    "write_field_dump": "the writer of the documented field-dump format",
}


def test_every_public_helper_is_reached_by_the_library():
    # no public helper that only tests reach: each public top-level function
    # and class of a module is named (not in a string) by other src/ code or
    # by perfbench, or is user-facing for the reason given above
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "blochlab"
    paths = [*package.glob("*.py"), *(root / "perfbench").glob("*.py")]
    public, named = set(), set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            if (path.parent == package and path.name != "__init__.py"
                    and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not own.startswith("_")):
                public.add(own)
            nodes = list(ast.walk(stmt))
            refs = {n.id for n in nodes if isinstance(n, ast.Name)}
            refs |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            named |= refs - {own}  # a definition does not reach itself
    assert public - named == set(_USER_FACING)


#: the one allowlist of the rule below, the experiment harnesses: their
#: keywords arrive as config keys through _experiment_table's **kw, and
#: test_experiment_keys_are_harness_parameters checks them
_HARNESSES = {"run_thm22", "run_thm31", "run_gap_map", "run_pw"}


def test_every_public_option_is_set_by_the_library():
    # a setting no run varies is a constant of its owner: every defaulted
    # parameter of a public top-level function is supplied, by keyword,
    # position or functools.partial, by some src/ or perfbench call to a
    # callable of that name.  A setting that every caller passes with the
    # same one value is still an option that should be a constant; that
    # case is left to review, since a call's value is not known here.
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "blochlab"
    options = {}
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                a = stmt.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                options[stmt.name] = (positional, defaulted)

    def name(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    supplied = {fn: set() for fn in options}
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").glob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            callee, args = name(call.func), call.args
            if callee == "partial" and args:
                callee, args = name(args[0]), args[1:]
            if callee not in options:
                continue
            starred = [isinstance(arg, ast.Starred) for arg in args] + [True]
            supplied[callee].update(options[callee][0][:starred.index(True)])
            supplied[callee].update(kw.arg for kw in call.keywords if kw.arg)
    unset = {f"{fn}.{p}" for fn, (_, defaulted) in options.items()
             if fn not in _HARNESSES for p in defaulted if p not in supplied[fn]}
    assert not unset, f"no library call sets {sorted(unset)}"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="VmHWM is read from /proc/self/status")
def test_sidecar_rss_excludes_the_launcher(tmp_path):
    # Linux carries ru_maxrss over exec; the sidecar must report the CLI's
    # own peak, not that of a launcher holding 100 MB
    cfg = write_cfg(tmp_path, "command = capacity\nr = 0.28\nn = 64\n")
    launcher = (
        "import subprocess, sys\n"
        "ballast = b'x' * (100 << 20)\n"
        "argv = [sys.executable, '-m', 'blochlab.cli', *sys.argv[1:]]\n"
        "sys.exit(subprocess.run(argv).returncode)\n"
    )
    proc = _python(launcher, "--config", cfg, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    meta = json.loads((tmp_path / "out" / "capacity.json").read_text())
    assert 0 < meta["peak_rss_mb"]["process"] < 100


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


def test_main_passes_the_requested_thread_count_through(tmp_path):
    # pool_size is the one clamp: the sidecar records 0 as asked, 1 worker ran
    p = write_cfg(tmp_path, "command = bloch\na = constant(1)\nn = 8\n"
                            "eta = (0.1, 0.0); (0.2, 0.0)\n")
    for threads in (0, 1):
        assert run_main(["--config", p, "--out", tmp_path / str(threads),
                         "--threads", threads]) == 0
    assert ((tmp_path / "0" / "bloch.csv").read_bytes()
            == (tmp_path / "1" / "bloch.csv").read_bytes())
    meta = json.loads((tmp_path / "0" / "bloch.json").read_text())
    assert meta["threads"] == 0 and meta["workers"] == 1


def test_main_exit_two_on_failed_checks(tmp_path, capsys):
    # a valid one-rung ladder whose excess, 0.671, lies below the band's
    # gamma/2 = 1: the band column fails while files are still written
    p = write_cfg(tmp_path, "command = experiment:thm31\neps = 1/3\n")
    rc = run_main(["--config", p, "--out", tmp_path / "out"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "assertion columns" in captured.err
    rows = list(csv.DictReader((tmp_path / "out" / "experiment_thm31.csv").read_text().splitlines()))
    assert [row["excess_band_pass"] for row in rows] == ["fail"]


def _cli(*args) -> subprocess.CompletedProcess:
    """``python -m blochlab.cli`` on ``args``.  Its standard output is a
    pipe, so what it prints stays buffered until the process flushes it."""
    return _interpreter(["-m", "blochlab.cli", *args])


def test_process_exits_zero_with_every_output_complete(tmp_path):
    # the entry point ends the process without finalization: the printed
    # paths, the CSV and the sidecar are all complete when it does
    cfg = write_cfg(tmp_path, "command = bloch\na = constant(1)\nn = 8\n"
                              "eta = (0.1, 0.2); (0.3, 0.0)\n")
    out = tmp_path / "out"
    proc = _cli("--config", cfg, "--out", out, "--threads", 2)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [str(out / "bloch.csv"), str(out / "bloch.json")]
    text = (out / "bloch.csv").read_text()
    assert text.endswith("\n") and len(list(csv.DictReader(text.splitlines()))) == 2
    sidecar = json.loads((out / "bloch.json").read_text())
    assert len(sidecar["wall_times"]["row_seconds"]) == 2


def test_process_exits_one_on_an_error(tmp_path):
    proc = _cli("--config", write_cfg(tmp_path, "command = fly\n"), "--out", tmp_path)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "unknown command" in proc.stderr


def test_process_exits_two_on_failed_checks(tmp_path):
    # the config of test_main_exit_two_on_failed_checks, across the process
    # boundary: the message, the paths and the failing row all arrive
    cfg = write_cfg(tmp_path, "command = experiment:thm31\neps = 1/3\n")
    out = tmp_path / "out"
    proc = _cli("--config", cfg, "--out", out)
    assert proc.returncode == 2
    assert "assertion columns" in proc.stderr
    assert proc.stdout.splitlines() == [str(out / "experiment_thm31.csv"),
                                        str(out / "experiment_thm31.json")]
    rows = list(csv.DictReader((out / "experiment_thm31.csv").read_text().splitlines()))
    assert [row["excess_band_pass"] for row in rows] == ["fail"]


def test_process_exits_the_normal_way_on_a_usage_error():
    # argparse's SystemExit never reaches the entry point's exit
    proc = _cli("--threads", 2)
    assert proc.returncode == 2
    assert "--config" in proc.stderr


_FINALIZED = "import atexit\natexit.register(print, 'finalized')\n"


@pytest.mark.parametrize("text, code", [
    ("command = capacity\nr = 0.28\nn = 64\n", 0), ("command = fly\n", 1)])
def test_main_returns_to_a_library_caller(tmp_path, text, code):
    # main returns its code; the interpreter goes on and finalizes as usual
    caller = (_FINALIZED + "import sys, blochlab.cli as cli\n"
              "print('returned', cli.main(sys.argv[1:]))\n")
    proc = _python(caller, "--config", write_cfg(tmp_path, text), "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [f"returned {code}", "finalized"]


def test_entry_point_skips_finalization(tmp_path):
    cfg = write_cfg(tmp_path, "command = capacity\nr = 0.28\nn = 64\n")
    proc = _python(_FINALIZED + "import blochlab.cli as cli\ncli.entry_point()\n",
                   "--config", cfg, "--out", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(tmp_path / "out" / name)
                                        for name in ("capacity.csv", "capacity.json")]


def test_console_script_is_the_module_entry_point():
    # `blochlab` and `python -m blochlab.cli` end the process the same way
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((_PACKAGE_ROOT.parent / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["blochlab"].partition(":")
    assert getattr(importlib.import_module(module), name) is blochlab.cli.entry_point
    source = ast.parse(Path(blochlab.cli.__file__).read_text())
    (block,) = [stmt for stmt in source.body if isinstance(stmt, ast.If)
                and ast.unparse(stmt.test) == "__name__ == '__main__'"]
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_git_describe_reports_only_the_package_checkout(tmp_path):
    # a copy of the package inside another repository (a virtualenv in a
    # project) is not that repository's checkout; at its src/blochlab it is
    outer = tmp_path / "outer"
    outer.mkdir()
    for args in (["init", "-q"], ["commit", "-q", "--allow-empty", "-m", "outer"],
                 ["tag", "v9.9-outer"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=outer, check=True, capture_output=True)
    probe = "import blochlab.cli as cli; print(cli.__file__, cli.git_describe())"
    reports = []
    for copy in (outer / "venv" / "lib", outer / "src"):
        shutil.copytree(_PACKAGE_ROOT / "blochlab", copy / "blochlab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(copy)))
        assert proc.returncode == 0, proc.stderr
        where, describe = proc.stdout.split()
        assert Path(where) == copy / "blochlab" / "cli.py"
        reports.append(describe)
    assert reports == ["unknown", "v9.9-outer"]


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
    # a key the command table admits for an experiment is a keyword of its
    # harness, under the same name, and every keyword of a harness function
    # but workers and the family _harness binds is reached by the keys of
    # the experiments it runs (gamma of run_pw only by pw_fiber); only
    # command applies to every command
    command_keys = {key for keys in _COMMANDS.values() for key in keys[0] + keys[1]}
    assert set(_KINDS) - command_keys == {"command"}
    reached = {}
    for name in EXPERIMENTS:
        harness = _harness(name)
        params = set(inspect.signature(harness).parameters) - {"workers", "family"}
        required, optional = _COMMANDS[f"experiment:{name}"]
        assert not required and set(optional) <= params, name
        reached.setdefault(getattr(harness, "func", harness), set()).update(optional)
    for fn, keys in reached.items():
        params = set(inspect.signature(fn).parameters) - {"workers", "family"}
        assert keys == params, fn.__name__


def test_config_keys_match_readme():
    # README's config key table lists exactly the keys the parser knows
    table = README.read_text(encoding="utf-8").split(
        "| key | meaning | applies to |", 1)[1].split("\n\n", 1)[0]
    keys = {key for cell in re.findall(r"^\| ([^|]*) \|", table, re.M)
            for key in re.findall(r"`(\w+)`", cell)}
    assert keys == {"command", *_KINDS}
