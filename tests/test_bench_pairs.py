"""``tools/bench_pairs.py``: the pair rule of its summary, on synthetic runs,
and its log, ``BENCH_trajectory.jsonl``, one JSON object per line, which
each run appends to and nothing rewrites."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "row_pass_ratio", "better": "higher", "bound": 0.02},
]


def entry(pair, side, correct=True, failed=0, **metrics):
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {k: {"value": v} for k, v in metrics.items()}}
    return {"pair": pair, "side": side, "seed": 100 + pair, "last_line": json.dumps(result)}


def line(lines, name):
    (found,) = [text for text in lines if text.strip().startswith(name + ":")]
    return found


def test_clear_gain_is_resolved_and_a_slower_wall_is_flagged():
    entries = []
    for i in range(10):
        entries.append(entry(i, "parent", peak_rss_mb=63.7 + 0.01 * i, wall_s=2.0,
                             row_pass_ratio=1.0))
        entries.append(entry(i, "change", peak_rss_mb=60.4 + 0.01 * i, wall_s=2.6,
                             row_pass_ratio=1.0))
    lines = bench_pairs.summarize(entries, METRICS)
    assert lines[0].startswith("parent: 10 of 10 runs correct; failed/attempted operations 0/100")
    peak = line(lines, "peak_rss_mb")
    assert "better in 10 of 10 pairs" in peak and peak.endswith("gain resolved")
    assert line(lines, "wall_s").endswith("WORSE than its 25% bound")
    assert line(lines, "row_pass_ratio").endswith("unchanged")


def test_eight_wins_or_a_gap_inside_the_parent_spread_leave_a_gain_unresolved():
    eight = [entry(i, side, peak_rss_mb=(60.0 if side == "change" and i < 8 else 64.0))
             for i in range(10) for side in ("parent", "change")]
    assert line(bench_pairs.summarize(eight, METRICS), "peak_rss_mb").endswith(
        "gain unresolved")
    # 10 of 10 wins, but the parent's quartiles span 3.5 MB against a 1 MB gap
    spread = [entry(i, side, peak_rss_mb=(60.0 + 0.5 * i - (side == "change")))
              for i in range(10) for side in ("parent", "change")]
    peak = line(bench_pairs.summarize(spread, METRICS), "peak_rss_mb")
    assert "better in 10 of 10 pairs" in peak and peak.endswith("gain unresolved")


def test_runs_that_are_not_correct_stay_out_of_the_medians():
    entries = []
    for i in range(10):
        entries.append(entry(i, "parent", peak_rss_mb=64.0, row_pass_ratio=1.0))
        entries.append(entry(i, "change", peak_rss_mb=60.0, row_pass_ratio=1.0))
    entries[1] = entry(0, "change", correct=False, failed=4, peak_rss_mb=1.0,
                       row_pass_ratio=0.6)
    entries[3] = dict(entries[3], last_line="Traceback (most recent call last):")
    lines = bench_pairs.summarize(entries, METRICS)
    assert lines[1] == "change: 8 of 10 runs correct; failed/attempted operations 4/90"
    assert "  not correct, left out: pair 0 change seed 100" in lines
    assert "  not correct, left out: pair 1 change seed 101" in lines
    peak = line(lines, "peak_rss_mb")
    assert "change median 60 [q1 60, q3 60] of 8" in peak
    assert "better in 8 of 8 pairs" in peak and peak.endswith("gain unresolved")
    assert line(lines, "row_pass_ratio").endswith("unchanged")


def test_a_parent_spread_wider_than_the_bound_leaves_the_metric_unresolved():
    # wall_s: parent 2.0 .. 3.8 s, IQR 1.1 s around a 2.9 s median (37.9%)
    entries = []
    for i in range(10):
        entries.append(entry(i, "parent", wall_s=2.0 + 0.2 * i, peak_rss_mb=60.0 + 0.01 * i,
                             row_pass_ratio=1.0))
        entries.append(entry(i, "change", wall_s=2.05 + 0.2 * i, peak_rss_mb=60.5 + 0.01 * i,
                             row_pass_ratio=1.0))
    lines = bench_pairs.summarize(entries, METRICS)
    wall = line(lines, "wall_s")
    assert "vs parent IQR 1.1 (37.9% of its median)" in wall
    assert wall.endswith("unresolved: parent spread 37.9% > 25% bound")
    # equal medians inside the same spread are no more resolved
    same = [entry(i, side, wall_s=2.0 + 0.2 * i) for i in range(10) for side in ("parent", "change")]
    assert line(bench_pairs.summarize(same, METRICS), "wall_s").endswith(
        "unresolved: parent spread 37.9% > 25% bound")
    # a tight parent keeps the two verdicts
    assert line(lines, "peak_rss_mb").endswith("worse, within its 15% bound")
    assert line(lines, "row_pass_ratio").endswith("unchanged")


def test_one_pair_leaves_every_metric_but_a_flagged_one_unresolved():
    # one parent run has an IQR of 0 by construction: no spread is known
    entries = [entry(0, "parent", wall_s=2.41, peak_rss_mb=62.0, row_pass_ratio=1.0),
               entry(0, "change", wall_s=2.59, peak_rss_mb=60.4, row_pass_ratio=1.0)]
    lines = bench_pairs.summarize(entries, METRICS)
    assert line(lines, "wall_s").endswith("unresolved: 1 parent run(s)")
    assert line(lines, "peak_rss_mb").endswith("unresolved: 1 parent run(s)")
    assert line(lines, "row_pass_ratio").endswith("unresolved: 1 parent run(s)")
    entries[1] = entry(0, "change", wall_s=3.5, peak_rss_mb=60.4, row_pass_ratio=1.0)
    assert line(bench_pairs.summarize(entries, METRICS), "wall_s").endswith(
        "WORSE than its 25% bound")


ENTRY_KEYS = {"commit", "tree", "pr", "side", "pair", "workload", "command", "seed",
              "date", "machine", "last_line"}


@pytest.fixture
def stubbed(monkeypatch, tmp_path):
    """``bench_pairs.main`` with no git, export or benchmark run, over a log
    that already holds two lines; ``runs`` holds the log's bytes as each
    run starts, and a run raises when ``fail_at`` is its index."""
    log = tmp_path / "log.jsonl"
    log.write_text('{"pair": 0, "old": 1}\n{"pair": 1, "old": 2}\n')
    state = {"runs": [], "fail_at": None}

    def run_side(tree, workload, seed, seconds):
        state["runs"].append(log.read_bytes())
        if len(state["runs"]) - 1 == state["fail_at"]:
            raise RuntimeError("killed")
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0}}}
        return ["python3", "perfbench/run.py"], json.dumps(result)

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc123\n")
    monkeypatch.setattr(bench_pairs, "export_commit", lambda commit, dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "export_worktree", lambda dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "git_tree_id", lambda path: "tree-" + path.name)
    monkeypatch.setattr(bench_pairs, "machine", lambda: {"nproc": 1})
    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "HEAD", "--pr", "7", "--workload", "inclusions",
        "--pairs", "2", "--seed", "40", "--seconds", "1", "--out", str(log)])
    return log, state


def test_each_run_appends_one_line_and_the_old_lines_stay(stubbed):
    log, state = stubbed
    old = log.read_bytes()
    assert bench_pairs.main() == 0
    runs = state["runs"] + [log.read_bytes()]
    for before, after in zip(runs, runs[1:]):
        assert after.startswith(before) and after.count(b"\n") == before.count(b"\n") + 1
    assert runs[0] == old and len(runs) == 5
    new = [json.loads(text) for text in log.read_text().splitlines()[2:]]
    assert [(e["pair"], e["side"], e["seed"], e["pr"]) for e in new] == [
        (0, "parent", 40, 6), (0, "change", 40, 7), (1, "change", 41, 7), (1, "parent", 41, 6)]
    assert all(set(e) == ENTRY_KEYS for e in new)


def test_a_run_killed_mid_pair_keeps_the_finished_run(stubbed):
    log, state = stubbed
    old = log.read_bytes()
    state["fail_at"] = 1  # pair 0's second side
    with pytest.raises(RuntimeError, match="killed"):
        bench_pairs.main()
    lines = log.read_text().splitlines()
    assert log.read_bytes().startswith(old) and len(lines) == 3
    kept = json.loads(lines[2])
    assert (kept["pair"], kept["side"], kept["commit"]) == (0, "parent", "abc123")


def test_committed_trajectory_is_one_entry_per_line():
    lines = (ROOT / "BENCH_trajectory.jsonl").read_text().splitlines()
    entries = [json.loads(text) for text in lines]
    assert entries and all(set(e) == ENTRY_KEYS for e in entries)
    assert all(e["side"] in ("parent", "change") for e in entries)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    # one call of the tool: a workload's pairs from one first seed
    calls: dict[tuple, list] = {}
    for e in entries:
        calls.setdefault((e["workload"], e["seed"] - e["pair"]), []).append(e)
    for run in calls.values():
        lines = bench_pairs.summarize(run, metrics)
        assert lines[0].startswith("parent: ") and lines[1].startswith("change: ")
