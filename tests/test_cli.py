"""The three subcommands, config plumbing, and failure exit codes."""

import csv
import json

import pytest

from activeadapt import cli
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
    assert not list(out.glob("gmm_round_*.json"))
    report = json.loads((out / "round_001.json").read_text())
    assert {"round", "accuracy", "partition_sizes", "selected_ids"} <= set(report)
    assert len(report["selected_ids"]) == 3
    assert isinstance(report["gmm"]["converged"], bool)
    assert report["gmm"]["converged"] or report["gmm"]["n_iter"] == 200
    assert len(report["gmm"]["pi"]) == 4
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "strategy,seed,round,accuracy,selected_error_rate"
    assert "round 2: accuracy=" in capsys.readouterr().out


def test_run_from_dataset_file(tmp_path, tiny_config):
    # build a dataset file with the benchmark's writer, then point the run at it
    from activeadapt.datapool import ShiftConfig, generate_shifted_dataset
    from test_datapool import write_dump

    pool = generate_shifted_dataset(
        ShiftConfig(C=3, d_in=4, n_source=40, n_target=60, seed=7)
    )
    data_file = tmp_path / "pool.csv"
    write_dump(pool, data_file)
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


def test_compare_prints_the_csv_it_writes(tmp_path, tiny_config, capsysbinary):
    """A budget-0 row has no selected_error_rate: stdout and the file hold
    the same bytes, an empty field and not the word None."""
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["budget"] = 0
    path = tmp_path / "b0.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "cmp"
    args = ["compare", "--strategies", "diana", "--seeds", "1", "--config", str(path)]
    assert main([*args, "--output", str(out)]) == 0
    printed = capsysbinary.readouterr().out
    written = (out / "aggregate.csv").read_bytes()
    assert printed.startswith(written) and b"None" not in printed
    header, row = written.decode().split("\r\n")[:2]
    assert header == "strategy,seed,round,accuracy,selected_error_rate"
    assert row.startswith("diana,0,0,") and row.endswith(",")


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


@pytest.mark.parametrize("command", ["run", "compare"])
def test_budget_beyond_the_pool_is_refused_before_pretraining(
    tmp_path, tiny_config, capsys, monkeypatch, command
):
    """A budget of 62 over 60 target rows is refused before any seed is
    pretrained and before the output directory is made."""
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["budget"] = 62
    path = tmp_path / "big_budget.json"
    path.write_text(json.dumps(cfg))
    seeds = pretrain_spy(monkeypatch)
    out = tmp_path / "b"
    assert main([command, "--config", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error: budget 62 exceeds unlabeled pool size 60\n"
    assert seeds == [] and not out.exists()


def test_bad_k_exits_before_any_round(tmp_path, tiny_config, capsys):
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["k"] = 0
    path = tmp_path / "k0.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "z"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert "k=0" in capsys.readouterr().err
    assert not (out / "round_001.json").exists()


def test_nan_sfda_step_rejected_when_the_config_is_read(tmp_path, tiny_config, capsys):
    """json.loads accepts NaN, and a NaN step would never end the bootstrap.
    The config refuses it before anything runs, even with no rounds to run."""
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"].update(budget=0, sfda={"t_v_step": float("nan")})
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    assert "NaN" in path.read_text()
    out = tmp_path / "n"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert "t_v_step must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, field, value", [
    ("train", "lambda_c", None),
    ("train", "lambda_e", None),
    ("train", "learning_rate", "0.1"),
    (None, "tau", "0.9"),
])
def test_non_number_rejected_before_pretraining(tmp_path, tiny_config, capsys, section, field, value):
    """A null lambda used to pass the config, pretrain the model and fail in
    round 1 on None / int; a string failed without the field's name."""
    cfg = json.loads(tiny_config.read_text())
    loop = cfg["loop"].setdefault(section, {}) if section else cfg["loop"]
    loop[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "b"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert f"error: {field}={value!r} must be a number" in capsys.readouterr().err
    assert not out.exists()


def test_nan_shift_magnitude_rejected_when_the_config_is_read(tmp_path, tiny_config, capsys):
    """A NaN magnitude would draw an unshifted rotation target with no error."""
    cfg = json.loads(tiny_config.read_text())
    cfg["data"]["shift_magnitude"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "n"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert "shift_magnitude must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "diagnose-consistency"])
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_seeds_below_one_rejected(tmp_path, tiny_config, capsys, command, seeds):
    out = tmp_path / "s"
    with pytest.raises(SystemExit) as exc:
        main([command, "--seeds", seeds, "--config", str(tiny_config), "--output", str(out)])
    assert exc.value.code != 0
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_offsets_every_seed_as_compare_does(tmp_path, tiny_config, monkeypatch):
    """Seed i pretrains on training stream train.seed + i, from model init
    [seed + i, 0] on data seed + i, as compare_strategies runs it."""
    import activeadapt.harness as harness
    from activeadapt.harness import pretrain_source

    seen = []

    def spy(model, pool, cfg, epochs=None, rng=None):
        seen.append(cfg.seed)
        return pretrain_source(model, pool, cfg, epochs, rng)

    monkeypatch.setattr(harness, "pretrain_source", spy)
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["train"]["seed"] = 7
    path = tmp_path / "seeds.json"
    path.write_text(json.dumps(cfg))
    args = ["diagnose-consistency", "--k-sweep", "2", "--seeds", "3"]
    assert main([*args, "--config", str(path), "--output", str(tmp_path / "d")]) == 0
    assert seen == [7, 8, 9]


@pytest.mark.parametrize("section, field, value", [
    ("loop", "budget", 6.0),
    ("loop", "k", True),
    ("loop", "seed", -1),
    ("train", "batch_size", 16.0),
    ("data", "n_target", 60.0),
])
def test_non_integer_count_rejected_when_the_config_is_read(
    tmp_path, tiny_config, capsys, section, field, value
):
    """A float count would only fail inside numpy, without the field's name."""
    cfg = json.loads(tiny_config.read_text())
    (cfg["loop"]["train"] if section == "train" else cfg[section])[field] = value
    path = tmp_path / "float.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "f"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert f"{field}=" in capsys.readouterr().err
    assert not out.exists()


MISSING = object()


@pytest.mark.parametrize("command", ["run", "compare", "diagnose-consistency"])
@pytest.mark.parametrize("section, value, message", [
    pytest.param("data", MISSING, "has no 'data' section", id="data"),
    pytest.param("loop", MISSING, "has no 'loop' section", id="loop"),
    # "file" in a string is a substring test; a list is no mapping of fields
    pytest.param("data", "myfile.csv", "the 'data' section is not a JSON object", id="data-str"),
    pytest.param("loop", [1], "the 'loop' section is not a JSON object", id="loop-list"),
    pytest.param("train", [1], "section's 'train' subsection is not a JSON object", id="train-list"),
    pytest.param("sfda", 0.5, "section's 'sfda' subsection is not a JSON object", id="sfda-float"),
])
def test_missing_section_is_named(tmp_path, tiny_config, capsys, command, section, value, message):
    """A section, or a subsection of 'loop', that is missing or that is not
    a JSON object is named."""
    cfg = json.loads(tiny_config.read_text())
    parent = cfg["loop"] if section in ("train", "sfda") else cfg
    if value is MISSING:
        del parent[section]
    else:
        parent[section] = value
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "m"
    assert main([command, "--config", str(path), "--output", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("body", [5, ["data", "loop"]])
def test_config_that_is_not_an_object_is_named(tmp_path, capsys, body):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(body))
    assert main(["run", "--config", str(path), "--output", str(tmp_path / "o")]) == 1
    assert "is not a JSON object" in capsys.readouterr().err


def test_capped_mixture_fit_warns_on_stderr(tmp_path, tiny_config, capsys, monkeypatch):
    """A fit that stops at its update cap says so once per round on stderr;
    stdout keeps its round lines alone."""
    import functools

    import activeadapt.harness as harness
    from activeadapt.gmm import run_em

    monkeypatch.setattr(harness, "run_em", functools.partial(run_em, max_iter=1))
    assert main(["run", "--config", str(tiny_config), "--output", str(tmp_path / "w")]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"warning: round {r}: mixture fit stopped at 1 updates without converging"
        for r in (1, 2)
    ]
    assert [line.split(":")[0] for line in captured.out.splitlines()] == [
        "round 1", "round 2", f"wrote 2 round reports to {tmp_path / 'w'}"
    ]


def test_round_that_annotates_short_of_its_budget_warns(tmp_path, capsys):
    """A source-free run whose bootstrap selects nothing says so once per
    round on stderr, naming both counts."""
    path = tmp_path / "sfda.json"
    path.write_text(json.dumps({
        "data": {"C": 5, "d_in": 8, "n_source": 100, "n_target": 400, "seed": 1,
                 "class_std": 0.05},
        "loop": {"budget": 20, "rounds": 2, "pretrain_epochs": 20, "sfda": {}},
    }))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    assert json.loads((out / "round_001.json").read_text())["selected_ids"] == []
    assert capsys.readouterr().err.splitlines() == [
        f"warning: round {r}: annotated 0 of 10 samples" for r in (1, 2)
    ]


def test_default_config_run_does_not_warn(tmp_path, capsys):
    assert main(["run", "--output", str(tmp_path / "d")]) == 0
    assert capsys.readouterr().err == ""


def test_file_config_rejects_generator_keys(tmp_path, tiny_config, capsys):
    """A data file fixes C, the sizes and the rows, so generator keys beside
    it are refused by name rather than ignored."""
    from activeadapt.datapool import ShiftConfig, generate_shifted_dataset
    from test_datapool import write_dump

    data_file = tmp_path / "pool.csv"
    pool = generate_shifted_dataset(ShiftConfig(C=3, d_in=4, n_source=40, n_target=60))
    write_dump(pool, data_file)
    cfg = json.loads(tiny_config.read_text())
    cfg["data"] = {"file": str(data_file), "C": 7, "seed": 99}
    path = tmp_path / "file_config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert "generator keys ['C', 'seed']" in capsys.readouterr().err
    assert not out.exists()


def test_each_round_is_printed_and_written_as_it_ends(tmp_path, tiny_config, capsys, monkeypatch):
    """Round 1's line and round_001.json are out before round 2's selection
    starts; aggregate.csv comes once the run is over."""
    import activeadapt.harness as harness

    real, seen = harness._select_diana, []
    out = tmp_path / "o"

    def spy(*args):
        seen.append((capsys.readouterr().out, sorted(p.name for p in out.iterdir())))
        return real(*args)

    monkeypatch.setattr(harness, "_select_diana", spy)
    assert main(["run", "--config", str(tiny_config), "--output", str(out)]) == 0
    assert seen[0] == ("", [])
    printed, written = seen[1]
    assert printed.startswith("round 1: accuracy=") and printed.count("\n") == 1
    assert written == ["round_001.json"]
    assert capsys.readouterr().out.startswith("round 2: accuracy=")
    assert (out / "aggregate.csv").exists()


def test_zero_budget_run_writes_its_evaluation_report(tmp_path, tiny_config, capsys):
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"].update(budget=0, rounds=1)
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 0
    assert json.loads((out / "round_000.json").read_text())["round"] == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("round 0: accuracy=") and len(lines) == 2


def pretrain_spy(monkeypatch):
    """The training seeds of every pretrain_source call from now on."""
    import activeadapt.harness as harness

    real, seeds = harness.pretrain_source, []

    def spy(model, pool, cfg, *args, **kw):
        seeds.append(cfg.seed)
        return real(model, pool, cfg, *args, **kw)

    monkeypatch.setattr(harness, "pretrain_source", spy)
    return seeds


def test_run_refuses_an_output_that_holds_an_earlier_run(tmp_path, tiny_config, capsys, monkeypatch):
    """A second run into a used directory would leave the first run's later
    rounds beside its own. It is refused, naming the first round report,
    before the pool is built or any seed pretrained, and the first run's
    files are left as they were."""
    out = tmp_path / "out"
    args = ["run", "--config", str(tiny_config), "--output", str(out)]
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    seeds, built = pretrain_spy(monkeypatch), []
    monkeypatch.setattr(cli, "generate_shifted_dataset", built.append)
    assert main(args) == 1
    report = out / "round_001.json"
    assert capsys.readouterr().err == (
        f"error: {report} is an earlier run's report; give an --output without one\n")
    assert seeds == [] and built == []
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_compare_refuses_a_strategy_before_pretraining(tmp_path, tiny_config, capsys, monkeypatch):
    """The source-free variant applies to diana alone, so random is refused
    before any seed is started."""
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["sfda"] = {}
    path = tmp_path / "sfda.json"
    path.write_text(json.dumps(cfg))
    seeds = pretrain_spy(monkeypatch)
    args = ["compare", "--strategies", "diana,random", "--seeds", "2", "--config", str(path)]
    assert main([*args, "--output", str(tmp_path / "c")]) == 1
    assert "only applies to the diana strategy" in capsys.readouterr().err
    assert seeds == []


@pytest.mark.parametrize("command", ["compare", "diagnose-consistency"])
def test_paired_seed_command_refuses_a_data_file(
    tmp_path, tiny_config, capsys, monkeypatch, command
):
    """A data file cannot be offset per seed, so it is refused before any
    pretraining, without an output directory."""
    cfg = json.loads(tiny_config.read_text())
    cfg["data"] = {"file": str(tmp_path / "pool.csv")}
    path = tmp_path / "file_config.json"
    path.write_text(json.dumps(cfg))
    seeds = pretrain_spy(monkeypatch)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--output", str(out)]) == 1
    assert f"{command} needs a generated dataset" in capsys.readouterr().err
    assert seeds == [] and not out.exists()


@pytest.mark.parametrize("command, flag, value, named", [
    ("compare", "--strategies", "diana,random,diana", "diana"),
    ("compare", "--strategies", "least-confidence,least_confidence", "least_confidence"),
    ("diagnose-consistency", "--k-sweep", "2,4,02", "2"),
])
def test_repeated_list_entry_is_refused(
    tmp_path, tiny_config, capsys, command, flag, value, named
):
    """A repeated entry would write its rows and print its summary twice."""
    out = tmp_path / "r"
    args = [command, flag, value, "--seeds", "1", "--config", str(tiny_config)]
    assert main([*args, "--output", str(out)]) == 1
    assert f"{flag} lists {named} more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value, named", [
    ("diagnose-consistency", "--k-sweep", "8,x", "'x' is not an integer"),
    ("diagnose-consistency", "--k-sweep", "8,,16", "'' is not an integer"),
    ("compare", "--strategies", "diana,", "'' is not one of diana, random, entropy, least_confidence"),
    ("compare", "--strategies", "diana,foo", "'foo' is not one of diana, random, entropy, least_confidence"),
])
def test_unreadable_list_entry_is_refused(
    tmp_path, tiny_config, capsys, monkeypatch, command, flag, value, named
):
    """An entry that cannot be parsed is named with its flag before the
    output directory is made or any seed is pretrained."""
    seeds = pretrain_spy(monkeypatch)
    out = tmp_path / "r"
    args = [command, flag, value, "--seeds", "1", "--config", str(tiny_config)]
    assert main([*args, "--output", str(out)]) == 1
    assert f"error: {flag}: {named}\n" == capsys.readouterr().err
    assert seeds == [] and not out.exists()


@pytest.mark.parametrize("value, named", [("0,100", "k=0"), ("4,100", "k=100")])
def test_k_sweep_out_of_range_is_refused_before_any_seed(
    tmp_path, tiny_config, capsys, monkeypatch, value, named
):
    """Every k is checked against [1, d_feat] (16 here) before the output
    directory is made or seed 0 is pretrained."""
    seeds = pretrain_spy(monkeypatch)
    out = tmp_path / "k"
    args = ["diagnose-consistency", "--k-sweep", value, "--config", str(tiny_config)]
    assert main([*args, "--output", str(out)]) == 1
    assert f"{named} must lie in [1, d_feat=16]" in capsys.readouterr().err
    assert seeds == [] and not out.exists()


def test_round_reports_carry_losses_only_with_the_loss_report_on(tmp_path, tiny_config):
    """The loss report is off by default; {"loop": {"loss_report": true}}
    writes losses in every round with a mixture fit."""
    off = tmp_path / "off"
    assert main(["run", "--config", str(tiny_config), "--output", str(off)]) == 0
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["loss_report"] = True
    path = tmp_path / "on.json"
    path.write_text(json.dumps(cfg))
    on = tmp_path / "on"
    assert main(["run", "--config", str(path), "--output", str(on)]) == 0
    for r in (1, 2):
        report_off = json.loads((off / f"round_{r:03d}.json").read_text())
        report_on = json.loads((on / f"round_{r:03d}.json").read_text())
        assert "gmm" in report_on and "losses" not in report_off
        assert set(report_on.pop("losses")) == {
            "supervised", "consistency", "entropy", "total",
            "empty_consistency_batch", "empty_entropy_batch"}
        assert report_on == report_off


@pytest.mark.parametrize("value", [1, "yes", None])
def test_loss_report_that_is_not_a_bool_is_refused(tmp_path, tiny_config, capsys, value):
    cfg = json.loads(tiny_config.read_text())
    cfg["loop"]["loss_report"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "b"
    assert main(["run", "--config", str(path), "--output", str(out)]) == 1
    assert f"loss_report={value!r} must be true or false" in capsys.readouterr().err
    assert not out.exists()


def test_run_help_names_the_loss_report_key(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert '{"loop": {"loss_report": true}}' in " ".join(capsys.readouterr().out.split())
