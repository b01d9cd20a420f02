"""tools/bench_pairs.py: the paired comparison's summary, on planted
numbers, and its exit status, on stand-in checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
summarize = bench_pairs.summarize

PARENT = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # quartiles 1.225, 1.45, 1.675


def test_ties_count_for_neither_side():
    change = [1.0, 1.1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2.0]
    s = summarize(PARENT, change, "lower")
    assert (s["wins"], s["losses"], s["pairs"]) == (7, 1, 10)
    assert not s["rule_holds"]


def test_nine_of_ten_with_a_gap_beyond_the_iqr_holds():
    change = [p - 0.6 for p in PARENT[:9]] + [2.5]
    s = summarize(PARENT, change, "lower")
    assert (s["wins"], s["losses"]) == (9, 1)
    assert s["parent"] == pytest.approx((1.225, 1.45, 1.675))
    assert s["parent"][1] - s["change"][1] > s["parent"][2] - s["parent"][0]
    assert s["rule_holds"]
    # eight wins are too few, whatever the gap
    assert not summarize(PARENT, change[:8] + [2.5, 2.5], "lower")["rule_holds"]


def test_a_gap_below_the_parent_iqr_does_not_hold():
    change = [p - 0.4 for p in PARENT]  # 10/10 wins, gap 0.4 < IQR 0.45
    s = summarize(PARENT, change, "lower")
    assert s["wins"] == 10 and not s["rule_holds"]


def test_higher_is_better_counts_the_other_way():
    s = summarize(PARENT, [p + 0.6 for p in PARENT], "higher")
    assert s["wins"] == 10 and s["rule_holds"]
    assert summarize(PARENT, [p + 0.6 for p in PARENT], "lower")["losses"] == 10


def test_ratio_quartiles_are_per_pair_and_outside_the_rule():
    # each pair's change/parent is 0.9, whatever the spread across pairs
    s = summarize(PARENT, [0.9 * p for p in PARENT], "lower")
    assert s["ratio"] == pytest.approx((0.9, 0.9, 0.9))
    assert s["wins"] == 10 and not s["rule_holds"]  # gap 0.145 < IQR 0.45
    ratios = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.95, 1.0]
    change = [p * r for p, r in zip(PARENT, ratios)]
    assert summarize(PARENT, change, "lower")["ratio"] == pytest.approx((0.6125, 0.725, 0.8375))
    # the ratio reads the same way whichever direction is better
    assert summarize(PARENT, change, "higher")["ratio"] == pytest.approx((0.6125, 0.725, 0.8375))


def _checkout(root: Path, failed: int) -> Path:
    """A stand-in checkout whose perfbench/run.py prints a fixed result."""
    metrics = {m: {"value": 1.0, "unit": "s"}
               for m in ("setup_s", "run_s", "round_s", "peak_rss_mb", "final_accuracy")}
    result = {"correct": True, "attempted": 3, "failed": failed, "metrics": metrics}
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(f"print({json.dumps(json.dumps(result))})\n")
    return root


def test_exit_status_reports_failed_runs(tmp_path, capsys):
    good, bad = _checkout(tmp_path / "a", 0), _checkout(tmp_path / "b", 1)
    argv = ["--workload", "desk", "--seed", "1", "--seconds", "0", "--pairs", "2"]
    assert bench_pairs.main([str(good), str(good), *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "run_s (s, lower is better)" in out[2] and "wins 0/2 losses 0" in out[2]
    assert out[2].endswith("rule does not hold change/parent 1 [1, 1]")
    runs = json.loads(out[-1])["runs"]
    assert len(runs["change"]) == 2
    for run in runs["parent"] + runs["change"]:
        host = run["host"]
        assert host["nproc"] >= 1 and len(host["loadavg"]) == 3
        assert set(host) == {"nproc", "loadavg", *bench_pairs.THREAD_VARS}
    assert bench_pairs.main([str(good), str(bad), *argv]) != 0
