"""The three subcommands, config plumbing, and failure exit codes."""

import csv
import json

import pytest

from activeadapt.cli import main


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "data": {
            "C": 3,
            "d_in": 4,
            "n_source": 40,
            "n_target": 60,
            "shift_kind": "rotation",
            "shift_magnitude": 0.4,
            "seed": 7,
        },
        "loop": {
            "budget": 6,
            "rounds": 2,
            "d_feat": 16,
            "pretrain_epochs": 5,
            "seed": 1,
            "train": {"epochs_per_round": 2, "batch_size": 16, "seed": 1},
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_reports(tmp_path, tiny_config, capsys):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_config), "--output", str(out)]) == 0
    assert (out / "round_001.json").exists()
    assert (out / "round_002.json").exists()
    assert (out / "gmm_round_001.json").exists()
    report = json.loads((out / "round_001.json").read_text())
    assert {"round", "accuracy", "partition_sizes", "selected_ids"} <= set(report)
    assert len(report["selected_ids"]) == 3
    assert isinstance(report["gmm"]["converged"], bool)
    assert report["gmm"]["converged"] or report["gmm"]["n_iter"] == 200
    gmm = json.loads((out / "gmm_round_001.json").read_text())
    assert len(gmm["pi"]) == 4
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "strategy,seed,round,accuracy,selected_error_rate"
    assert "round 2: accuracy=" in capsys.readouterr().out


def test_run_from_dataset_file(tmp_path, tiny_config):
    # build a dataset file, then point the run at it
    from activeadapt.datapool import ShiftConfig, generate_shifted_dataset, save_pool

    pool = generate_shifted_dataset(
        ShiftConfig(C=3, d_in=4, n_source=40, n_target=60, seed=7)
    )
    data_file = tmp_path / "pool.csv"
    save_pool(pool, data_file)
    cfg = json.loads(tiny_config.read_text())
    cfg["data"] = {"file": str(data_file)}
    cfg_path = tmp_path / "file_config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out_file"
    assert main(["run", "--config", str(cfg_path), "--output", str(out)]) == 0
    assert (out / "round_002.json").exists()


def test_compare_csv(tmp_path, tiny_config):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "--strategies",
            "diana,random,entropy",
            "--seeds",
            "1",
            "--config",
            str(tiny_config),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    with open(out / "aggregate.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["strategy"] for r in rows} == {"diana", "random", "entropy"}
    assert len(rows) == 3 * 2  # strategies x rounds
    for r in rows:
        assert 0.0 <= float(r["accuracy"]) <= 1.0


def test_diagnose_consistency(tmp_path, tiny_config, capsys):
    out = tmp_path / "diag"
    code = main(
        [
            "diagnose-consistency",
            "--k-sweep",
            "2,4",
            "--seeds",
            "1",
            "--config",
            str(tiny_config),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads((out / "consistency_diagnostic.json").read_text())
    assert payload[0]["rates"].keys() == {"2", "4"}
    assert "k=2:" in capsys.readouterr().out


def test_invalid_config_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"data": {"C": 1, "d_in": 2, "n_source": 5, "n_target": 5}, "loop": {"budget": 2, "rounds": 1}}))
    assert main(["run", "--config", str(bad), "--output", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_budget_mismatch_nonzero_exit(tmp_path, tiny_config):
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["budget"] = 7  # not divisible by rounds=2
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "y")]) == 1


def test_bad_k_exits_before_any_round(tmp_path, tiny_config, capsys):
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["k"] = 0
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "z"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert "k=0" in capsys.readouterr().err
    assert not (out / "round_001.json").exists()
