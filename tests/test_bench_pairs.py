"""tools/bench_pairs.py: the paired comparison's summary, on planted
numbers, and its exports and exit status, on a stand-in git repository."""

import importlib.util
import json
import subprocess
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


def _git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=repo, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A stand-in repository, the current directory, with no commit yet;
    commit(run_s=..., failed=..., code=...) commits a perfbench/run.py that
    appends its working directory to runs.log beside the repository, then
    prints a fixed result and exits with code, and returns the commit."""
    root, log = tmp_path / "repo", tmp_path / "runs.log"
    root.mkdir()
    _git(root, "init", "-q")
    monkeypatch.chdir(root)

    def commit(run_s=1.0, failed=0, code=0):
        metrics = {m: {"value": 1.0, "unit": "s"}
                   for m in ("setup_s", "run_s", "round_s", "peak_rss_mb", "final_accuracy")}
        metrics["run_s"]["value"] = run_s
        result = {"correct": True, "attempted": 3, "failed": failed, "metrics": metrics}
        (root / "perfbench").mkdir(exist_ok=True)
        (root / "perfbench" / "run.py").write_text(
            "import os, sys\n"
            f"with open({str(log)!r}, 'a') as fh:\n"
            "    fh.write(os.getcwd() + '\\n')\n"
            f"print({json.dumps(json.dumps(result))})\n"
            f"sys.exit({code})\n"
        )
        _git(root, "add", "-A")
        _git(root, "-c", "user.name=bench", "-c", "user.email=bench@example.com",
             "-c", "commit.gpgsign=false", "commit", "-q", "-m", f"run_s {run_s}")
        return _git(root, "rev-parse", "HEAD")

    def runs():
        """The working directories of the runs so far."""
        return log.read_text().splitlines() if log.exists() else []

    commit.runs = runs
    return commit


ARGV = ["--workload", "desk", "--seed", "1", "--seconds", "0", "--pairs", "2"]


def test_each_side_runs_its_own_commit_in_an_export(repo, capsys):
    parent = repo(run_s=1.0)
    change = repo(run_s=2.0)
    assert bench_pairs.main(["HEAD~1", "HEAD", *ARGV]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["commits"] == {"parent": parent, "change": change}
    assert [r["metrics"]["run_s"]["value"] for r in last["runs"]["parent"]] == [1.0, 1.0]
    assert [r["metrics"]["run_s"]["value"] for r in last["runs"]["change"]] == [2.0, 2.0]
    # pair 0 runs parent then change, pair 1 the other way, each in its own
    # export, and no export is left behind
    dirs = repo.runs()
    assert len(dirs) == 4 and dirs[0] == dirs[3] != dirs[1] == dirs[2]
    assert all(Path(d) != Path.cwd() and not Path(d).exists() for d in dirs)


def test_exports_are_removed_when_a_run_fails(repo):
    repo(code=3)
    with pytest.raises(SystemExit, match="^parent: .* exited with code 3"):
        bench_pairs.main(["HEAD", "HEAD", *ARGV])
    dirs = repo.runs()
    assert len(dirs) == 1 and not Path(dirs[0]).exists()


@pytest.mark.parametrize("revs, pairs, refusal", [
    (["HEAD", "no-such-rev"], "2", "'no-such-rev' names no commit"),
    (["HEAD~5", "HEAD"], "2", "'HEAD~5' names no commit"),
    (["HEAD", "HEAD"], "0", None),
])
def test_bad_revision_or_pairs_is_refused_before_any_run(repo, capsys, revs, pairs, refusal):
    repo()
    argv = [*revs, "--workload", "desk", "--seed", "1", "--seconds", "0", "--pairs", pairs]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    if refusal is None:  # argparse's usage error
        assert exc.value.code == 2
        assert "--pairs: must be at least 1, got 0" in capsys.readouterr().err
    else:
        assert refusal in str(exc.value.code)
    assert repo.runs() == []


def test_exit_status_reports_failed_runs(repo, capsys):
    good, bad = repo(failed=0), repo(failed=1)
    assert bench_pairs.main([good, good, *ARGV]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "run_s (s, lower is better)" in out[2] and "wins 0/2 losses 0" in out[2]
    assert out[2].endswith("rule does not hold change/parent 1 [1, 1]")
    runs = json.loads(out[-1])["runs"]
    assert len(runs["change"]) == 2
    for run in runs["parent"] + runs["change"]:
        host = run["host"]
        assert host["nproc"] >= 1 and len(host["loadavg"]) == 3
        assert set(host) == {"nproc", "loadavg", *bench_pairs.THREAD_VARS}
    assert bench_pairs.main([good, bad, *ARGV]) != 0
