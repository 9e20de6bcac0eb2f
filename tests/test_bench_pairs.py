"""The pair rule of ``tools/bench_pairs.py``'s summary, on synthetic runs."""

import importlib.util
import json
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
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
