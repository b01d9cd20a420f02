"""tools/report_diff.py: how far two report dumps differ, field by field."""

import copy
import importlib.util
import json
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
_spec = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_diff)


def _round(r):
    return {
        "round": r,
        "accuracy": 0.5 + 0.125 * r,
        "partition_sizes": {"CC": 40, "UC": 30, "UI": 20, "CI": 10 - r},
        "selected_ids": [10 * r, 10 * r + 1, 10 * r + 2],
        "selected_posteriors": [0.75, 0.5, 0.25],
        "selected_error_rate": 0.5,
        "gmm": {
            "pi": [0.25, 0.25, 0.25, 0.25],
            "mu": [0.0, 1.0, 2.0, 4.0],
            "sigma2": [0.5, 0.5, 1.0, 2.0],
            "n_iter": 12,
            "converged": True,
            "objective": -100.0,
        },
        "losses": {
            "supervised": 0.5,
            "consistency": 0.25,
            "entropy": 1.0,
            "total": 0.75,
            "empty_consistency_batch": False,
            "empty_entropy_batch": False,
        },
    }


RUN = [_round(1), _round(2), _round(3)]


def _dump(folder: Path, runs, stem="pool-200k-1"):
    folder.mkdir(exist_ok=True)
    (folder / f"{stem}.json").write_text(json.dumps(runs))
    return folder


def _plant(change):
    """RUN with change(reports) applied to a copy."""
    run = copy.deepcopy(RUN)
    change(run)
    return run


def _set_gmm(r, key, value):
    def change(run):
        run[r - 1]["gmm"][key] = value

    return change


def test_identical_dumps_exit_zero(tmp_path, capsys):
    a, b = _dump(tmp_path / "a", [RUN, RUN]), _dump(tmp_path / "b", [RUN, RUN])
    assert report_diff.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "pool-200k 1 run 0: identical", "pool-200k 1 run 1: identical",
    ]


@pytest.mark.parametrize("change, first, expect", [
    (lambda run: run[1]["selected_ids"].__setitem__(0, 999), 2, {"moved": 1}),
    (lambda run: run[2].update(selected_ids=[1, 2, 3]), 3, {"moved": 3}),
    (_set_gmm(1, "pi", [0.5, 0.25, 0.125, 0.125]), 1, {"pi": 0.5}),
    (_set_gmm(2, "mu", [0.0, 1.0, 2.0, 5.0]), 2, {"mu": 0.2}),
    (_set_gmm(3, "sigma2", [0.5, 0.25, 1.0, 2.0]), 3, {"sigma2": 0.5}),
    (_set_gmm(2, "objective", -80.0), 2, {"objective": 0.2}),
    (lambda run: run[0]["partition_sizes"].update(CC=47, UI=13), 1, {"partition": 7}),
    (lambda run: run[2].update(accuracy=0.875 + 0.0625), 3,
     {"accuracy": 0.0625, "final_accuracy": 0.0625}),
    (lambda run: run[1].update(accuracy=0.5), 2, {"accuracy": 0.25, "final_accuracy": 0.0}),
    (lambda run: run[0].update(gmm=None), 1,
     {key: math.inf for key in ("pi", "mu", "sigma2", "objective")}),
    (lambda run: run[1].update(selected_error_rate=0.25), 2, {"error_rate": 0.25}),
    (lambda run: run[2].update(selected_error_rate=None), 3, {"error_rate": math.inf}),
    (lambda run: run[1]["losses"].update(total=1.0), 2, {"losses": 0.25}),
    (lambda run: run[2]["losses"].update(entropy=0.8, supervised=0.45), 3, {"losses": 0.2}),
    (lambda run: run[0].pop("losses"), 1, {"losses": math.inf}),
    (lambda run: run[0]["losses"].update(empty_entropy_batch=True), 1, {}),
    (lambda run: run.pop(), 3, {}),
    (lambda run: run[1]["selected_posteriors"].__setitem__(1, 0.5 + 1e-15), 2,
     {"posteriors": (0.5 + 1e-15) - 0.5}),  # 1e-15 as the float spacing at 0.5 rounds it
    (lambda run: run[2].update(selected_posteriors=None), 3, {"posteriors": math.inf}),
    # a batch of other ids, or of the same ids in another order, is not compared
    (lambda run: run[0].update(selected_ids=[20, 21, 22], selected_posteriors=[0.0] * 3), 1,
     {"moved": 3}),
    (lambda run: run[0].update(selected_ids=[12, 11, 10], selected_posteriors=[0.0] * 3), 1,
     {}),
])
def test_each_planted_difference_is_found(tmp_path, capsys, change, first, expect):
    """One difference planted in one field of B: the first differing round
    and that field's figure move, every other figure reads 0, and the exit
    code is 1."""
    planted = _plant(change)
    got = report_diff.diff_run(RUN, planted)
    want = {"first": first, "moved": 0, "partition": 0, "accuracy": 0.0, "final_accuracy": 0.0,
            "pi": 0.0, "mu": 0.0, "sigma2": 0.0, "objective": 0.0, "losses": 0.0,
            "error_rate": 0.0, "posteriors": 0.0}
    if len(planted) < len(RUN):
        want["final_accuracy"] = planted[-1]["accuracy"] - RUN[-1]["accuracy"]
    want.update(expect)
    assert got == pytest.approx(want, rel=1e-12, abs=0)

    a, b = _dump(tmp_path / "a", [RUN, RUN]), _dump(tmp_path / "b", [RUN, planted])
    assert report_diff.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pool-200k 1 run 0: identical"
    assert lines[1].startswith(f"pool-200k 1 run 1: first differing round {first}; ")
    assert lines[1] == f"pool-200k 1 run 1: {report_diff.describe(got)}"


def test_runs_or_files_on_one_side_only(tmp_path, capsys):
    a = _dump(tmp_path / "a", [RUN, RUN])
    _dump(a, [RUN], stem="desk-3")
    b = _dump(tmp_path / "b", [RUN])
    _dump(b, [RUN], stem="desk-entropy-2")
    assert report_diff.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "desk 3: only in A",
        "desk-entropy 2: only in B",
        "pool-200k 1 run 0: identical",
        "pool-200k 1 run 1: only in A",
    ]


def test_relative_drift():
    assert report_diff.rel_drift([1.0, -2.0, 0.0], [1.0, -2.0, 0.0]) == 0.0
    assert report_diff.rel_drift([0.0, 4.0], [1.0, 3.0]) == 1.0
    assert report_diff.rel_drift([4.0, -1.0], [3.0, -1.0]) == 0.25
