"""tools/report_digest.py: the digest that backs byte-identity claims."""

import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import activeadapt.harness as harness
from activeadapt import (
    LoopConfig,
    SfdaConfig,
    ShiftConfig,
    Strategy,
    TrainConfig,
    generate_shifted_dataset,
)
from activeadapt.harness import RoundReport, run_active_loop

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_digest.py"
_spec = importlib.util.spec_from_file_location("report_digest", _PATH)
report_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digest)


def _report(r, accuracy):
    return RoundReport(r, accuracy, {"CC": 3}, None, [7, 9], [0.25, 0.5], 0.5)


def test_digest_is_sha256_of_sorted_json_lines():
    runs = [[_report(1, 0.75), _report(2, 0.8)], [_report(1, 0.7)]]
    lines = [
        json.dumps(rep.to_dict(), sort_keys=True) + "\n" for reports in runs for rep in reports
    ]
    want = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert report_digest.digest(runs) == want


def test_digest_sees_order_and_last_bit():
    a, b = _report(1, 0.75), _report(2, 0.8)
    base = report_digest.digest([[a, b]])
    assert report_digest.digest([[b, a]]) != base
    assert report_digest.digest([[a, _report(2, 0.8000000000000002)]]) != base


def test_repeated_run_has_the_same_digest():
    shift = ShiftConfig(C=3, d_in=4, n_source=40, n_target=60, seed=7)
    cfg = LoopConfig(budget=6, rounds=2, d_feat=16, pretrain_epochs=3,
                     train=TrainConfig(epochs_per_round=2, batch_size=16, seed=1), seed=1)
    digests = {
        report_digest.digest([run_active_loop(cfg, generate_shifted_dataset(shift))])
        for _ in range(2)
    }
    assert len(digests) == 1


def _keep_blas_env(monkeypatch):
    """main() pins BLAS threads in os.environ; restore them afterwards."""
    for var in report_digest.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "1")


def _fake_runs(name, seed):
    """Two runs whose reports name the workload and seed."""
    return [[_report(1, 0.5), _report(2, 0.25 + seed)], [_report(len(name), 0.125)]]


@pytest.mark.parametrize("argv, want", [
    (["--workload", "desk", "--workload", "pool-200k", "--seed", "1", "--seed", "2"],
     ["desk 1", "desk 2", "pool-200k 1", "pool-200k 2"]),
    (["--workload", "pool-200k", "--workload", "desk", "--workload", "pool-200k", "--seed", "3"],
     ["pool-200k 3", "desk 3"]),
    (["--workload", "desk", "--workload", "all", "--seed", "1"],
     ["desk 1", "pool-200k 1", "wide 1", "desk-sfda 1", "desk-random 1", "desk-entropy 1",
      "desk-least_confidence 1"]),
    (["--workload", "desk-least_confidence", "--workload", "desk-sfda", "--seed", "4"],
     ["desk-least_confidence 4", "desk-sfda 4"]),
    (["--workload", "desk-random", "--workload", "desk-entropy", "--workload", "desk",
      "--seed", "2"], ["desk-random 2", "desk-entropy 2", "desk 2"]),
])
def test_every_workload_given_is_digested(argv, want, monkeypatch, capsys):
    """--workload repeats like --seed; each name is digested once, in the
    order first given, and all means every workload."""
    _keep_blas_env(monkeypatch)
    monkeypatch.setattr(report_digest, "workload_runs", _fake_runs)
    assert report_digest.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    expect = []
    for pair in want:
        name, seed = pair.split()
        expect.append(f"{pair} {report_digest.digest(_fake_runs(name, int(seed)))}")
    assert lines == expect


def test_accuracy_appends_each_runs_final_accuracy(monkeypatch, capsys):
    """--accuracy puts every run's last-round accuracy after the digest, in
    run order, exactly as repr prints it."""
    _keep_blas_env(monkeypatch)
    monkeypatch.setattr(report_digest, "workload_runs", _fake_runs)
    argv = ["--workload", "desk", "--workload", "desk-sfda", "--seed", "3", "--seed", "1"]
    assert report_digest.main(argv + ["--accuracy"]) == 0
    with_acc = capsys.readouterr().out.splitlines()
    assert report_digest.main(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert with_acc == [
        f"{plain[0]} 3.25 0.125", f"{plain[1]} 1.25 0.125",
        f"{plain[2]} 3.25 0.125", f"{plain[3]} 1.25 0.125",
    ]


def test_accuracy_of_a_real_run_is_its_last_report(monkeypatch, capsys):
    """On a real (tiny) loop the appended figure is the last round's
    accuracy of each run."""
    _keep_blas_env(monkeypatch)
    shift = ShiftConfig(C=3, d_in=4, n_source=40, n_target=60, seed=7)
    cfg = LoopConfig(budget=6, rounds=2, d_feat=16, pretrain_epochs=3,
                     train=TrainConfig(epochs_per_round=2, batch_size=16, seed=1), seed=1)
    runs = [run_active_loop(cfg, generate_shifted_dataset(shift))]
    monkeypatch.setattr(report_digest, "workload_runs", lambda name, seed: runs)
    assert report_digest.main(["--workload", "desk", "--seed", "1", "--accuracy"]) == 0
    line = capsys.readouterr().out.split()
    assert line == ["desk", "1", report_digest.digest(runs), repr(runs[0][-1].accuracy)]


@pytest.mark.parametrize("name, changes", [
    ("desk-sfda", {"sfda": SfdaConfig()}),
    ("desk-random", {"strategy": Strategy.RANDOM}),
    ("desk-entropy", {"strategy": Strategy.ENTROPY}),
    ("desk-least_confidence", {"strategy": Strategy.LEAST_CONFIDENCE}),
])
def test_desk_variants_run_the_desk_jobs_with_one_change(name, changes, monkeypatch, tmp_path):
    """Beside the variant's change, every job has the loss report on."""
    seen = []
    monkeypatch.setattr(harness, "run_active_loop", lambda cfg, pool: seen.append(cfg) or [])
    report_digest.workload_runs(name, 5)
    activeadapt, workloads = report_digest._engine()
    desk = workloads.make("desk", activeadapt, 5, tmp_path)
    assert seen == [dataclasses.replace(job.cfg, **changes, loss_report=True)
                    for job in desk.jobs]
    assert len(seen) == 3 and seen != [job.cfg for job in desk.jobs]


def test_perfbench_jobs_run_with_only_the_loss_report_turned_on(monkeypatch, tmp_path):
    """perfbench leaves the loss report off; the digests cover the losses."""
    seen = []
    monkeypatch.setattr(harness, "run_active_loop", lambda cfg, pool: seen.append(cfg) or [])
    report_digest.workload_runs("desk", 5)
    activeadapt, workloads = report_digest._engine()
    desk = workloads.make("desk", activeadapt, 5, tmp_path)
    assert not any(job.cfg.loss_report for job in desk.jobs)
    assert seen == [dataclasses.replace(job.cfg, loss_report=True) for job in desk.jobs]


def test_unknown_workload_is_an_error(monkeypatch, capsys):
    _keep_blas_env(monkeypatch)
    monkeypatch.setattr(report_digest, "workload_runs", lambda name, seed: [])
    with pytest.raises(SystemExit) as err:
        report_digest.main(["--workload", "desk", "--workload", "nope", "--seed", "1"])
    assert err.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def test_dump_writes_each_runs_reports(monkeypatch, capsys, tmp_path):
    """--dump DIR writes <workload>-<seed>.json per line printed: one list
    of round-report dicts per run, and the printed lines are unchanged."""
    _keep_blas_env(monkeypatch)
    monkeypatch.setattr(report_digest, "workload_runs", _fake_runs)
    argv = ["--workload", "desk", "--workload", "desk-sfda", "--seed", "2"]
    assert report_digest.main(argv) == 0
    plain = capsys.readouterr().out
    dump = tmp_path / "new" / "dump"
    assert report_digest.main(argv + ["--dump", str(dump)]) == 0
    assert capsys.readouterr().out == plain
    assert sorted(p.name for p in dump.iterdir()) == ["desk-2.json", "desk-sfda-2.json"]
    for name in ("desk", "desk-sfda"):
        want = [[rep.to_dict() for rep in reports] for reports in _fake_runs(name, 2)]
        assert json.loads((dump / f"{name}-2.json").read_text()) == want


def test_workload_names_are_perfbenchs():
    """Read from workloads.py's source, they are the tuple it defines."""
    _, workloads = report_digest._engine()
    assert report_digest.workload_names() == workloads.NAMES


@pytest.mark.parametrize("extra, threads", [([], "1"), (["--blas-threads", "2"], "2"),
                                            (["--blas-threads", "4"], "4")])
def test_blas_threads_set_every_thread_variable(extra, threads, monkeypatch, capsys):
    """Each run sees the three thread variables at N, 1 by default, and the
    printed lines do not change."""
    _keep_blas_env(monkeypatch)
    for var in report_digest.BLAS_THREAD_VARS:
        monkeypatch.setenv(var, "7")
    seen = []

    def runs(name, seed):
        seen.append([os.environ[var] for var in report_digest.BLAS_THREAD_VARS])
        return _fake_runs(name, seed)

    monkeypatch.setattr(report_digest, "workload_runs", runs)
    assert report_digest.main(["--workload", "desk", "--seed", "1"] + extra) == 0
    assert seen == [[threads] * 3]
    assert capsys.readouterr().out == f"desk 1 {report_digest.digest(_fake_runs('desk', 1))}\n"


@pytest.mark.parametrize("value", ["0", "-1", "two"])
def test_a_bad_thread_count_is_an_error(value, monkeypatch, capsys):
    _keep_blas_env(monkeypatch)
    monkeypatch.setattr(report_digest, "workload_runs", lambda name, seed: [])
    with pytest.raises(SystemExit) as err:
        report_digest.main(["--workload", "desk", "--seed", "1", "--blas-threads", value])
    assert err.value.code == 2
    assert "--blas-threads" in capsys.readouterr().err


# In a fresh interpreter: load the tool, run main with a fake workload_runs
# that records whether numpy was imported before the first run, then run it
# with an unknown workload name.
_FRESH = f"""
import importlib.util, os, sys
spec = importlib.util.spec_from_file_location("report_digest", {str(_PATH)!r})
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
seen = []
tool.workload_runs = lambda name, seed: seen.append(
    ("numpy" in sys.modules, os.environ["OPENBLAS_NUM_THREADS"])) or []
assert tool.main(["--workload", "desk", "--seed", "1", "--blas-threads", "2"]) == 0
try:
    tool.main(["--workload", "nope", "--seed", "1"])
except SystemExit as exc:
    seen.append(exc.code)
print(seen, "numpy" in sys.modules)
"""


def test_thread_variables_are_set_before_numpy_is_imported():
    """Argument parsing and the workload-name check import no numpy, so the
    thread variables are set before BLAS starts."""
    proc = subprocess.run([sys.executable, "-c", _FRESH], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "[(False, '2'), 2] False"
