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
    commit(run_s=..., failed=..., code=..., counts=...) commits a
    perfbench/run.py that appends its working directory to runs.log beside
    the repository, then prints a fixed result and exits with code, and
    returns the commit. With --trace 1 the result's metrics are the work
    counts in counts (default TRACED) plus a traced time."""
    root, log = tmp_path / "repo", tmp_path / "runs.log"
    root.mkdir()
    _git(root, "init", "-q")
    monkeypatch.chdir(root)

    def commit(run_s=1.0, failed=0, code=0, counts=None):
        metrics = {m: {"value": 1.0, "unit": "s"}
                   for m in ("setup_s", "run_s", "round_s", "peak_rss_mb", "final_accuracy")}
        metrics["run_s"]["value"] = run_s
        result = {"correct": True, "attempted": 3, "failed": failed, "metrics": metrics}
        traced = {k: {"value": v, "unit": "count"} for k, v in (counts or TRACED).items()}
        traced["trace.run_s"] = {"value": run_s, "unit": "s"}
        traced = {**result, "metrics": traced}
        (root / "perfbench").mkdir(exist_ok=True)
        (root / "perfbench" / "run.py").write_text(
            "import os, sys\n"
            f"with open({str(log)!r}, 'a') as fh:\n"
            "    fh.write(os.getcwd() + '\\n')\n"
            "traced = sys.argv[sys.argv.index('--trace') + 1] == '1'\n"
            f"print({json.dumps(json.dumps(traced))} if traced "
            f"else {json.dumps(json.dumps(result))})\n"
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
# the count metrics of BENCHMARK.json's per_layer, as a traced run reports them
TRACED = {"datapool.view_calls": 6.0, "classifier.sgd_steps": 2100.0,
          "classifier.forward_rows": 1013611.0, "scoring.unlabeled_rows": 399900.0,
          "gmm.em_iters": 400.0, "gmm.em_capped": 2.0}


def test_each_side_runs_its_own_commit_in_an_export(repo, capsys):
    parent = repo(run_s=1.0)
    change = repo(run_s=2.0)
    assert bench_pairs.main(["HEAD~1", "HEAD", *ARGV]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert last["commits"] == {"parent": parent, "change": change}
    assert [r["metrics"]["run_s"]["value"] for r in last["runs"]["parent"]] == [1.0, 1.0]
    assert [r["metrics"]["run_s"]["value"] for r in last["runs"]["change"]] == [2.0, 2.0]
    # pair 0 runs parent then change, pair 1 the other way, each in its own
    # export, then one traced run per side in the same exports, and no
    # export is left behind
    dirs = repo.runs()
    assert len(dirs) == 6 and dirs[0] == dirs[3] == dirs[4] != dirs[1] == dirs[2] == dirs[5]
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


def test_traced_work_counts_are_printed_with_their_exact_differences(repo, capsys):
    parent = repo(counts={**TRACED, "classifier.forward_rows": 1013611.0})
    change = repo(counts={**TRACED, "classifier.forward_rows": 1013600.0,
                          "gmm.em_capped": 0.0})
    assert bench_pairs.main([parent, change, *ARGV]) == 0
    out = capsys.readouterr().out.splitlines()
    counts = [line for line in out if "(count, traced, seed 1)" in line]
    # every count metric of BENCHMARK.json, in its order, and no time metric
    assert [line.split()[0] for line in counts] == list(TRACED)
    assert ("classifier.forward_rows (count, traced, seed 1): parent 1013611 "
            "change 1013600 difference -11") in counts
    assert counts[-1].endswith("parent 2 change 0 difference -2")
    last = json.loads(out[-1])["counts"]
    assert last["classifier.forward_rows"] == {
        "parent": 1013611.0, "change": 1013600.0, "difference": -11.0}
    assert last["datapool.view_calls"]["difference"] == 0.0


def test_a_commit_against_itself_differs_by_zero_counts(repo, capsys):
    repo()
    assert bench_pairs.main(["HEAD", "HEAD", *ARGV]) == 0
    out = capsys.readouterr().out.splitlines()
    last = json.loads(out[-1])["counts"]
    assert set(last) == set(TRACED)
    assert all(c["difference"] == 0 for c in last.values())
    assert sum(line.endswith(" difference 0") for line in out) == len(TRACED)


def test_a_count_a_side_does_not_report_is_null(repo, capsys):
    parent = repo(counts={k: v for k, v in TRACED.items() if k != "gmm.em_capped"})
    change = repo()
    assert bench_pairs.main([parent, change, *ARGV]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "gmm.em_capped (count, traced, seed 1): parent null change 2 difference null" in out
    assert json.loads(out[-1])["counts"]["gmm.em_capped"] == {
        "parent": None, "change": 2.0, "difference": None}
