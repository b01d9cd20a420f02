"""The benchmark's checks accept a genuine run and reject corrupted results.

Run from the root of a checkout: python3 -m pytest perfbench -q
"""

import math

import numpy as np
import pytest

import activeadapt as aa
import checks
import spans
import workloads
from checks import CheckFailure

PER_ROUND = 20


def small_setup():
    """A small generated pool, its reference record and a two-round config."""
    pool = aa.datapool.generate_shifted_dataset(
        aa.ShiftConfig(C=3, d_in=4, n_source=150, n_target=400, seed=7))
    cfg = aa.LoopConfig(budget=2 * PER_ROUND, rounds=2, d_feat=16, pretrain_epochs=5,
                        train=aa.TrainConfig(epochs_per_round=2))
    return pool, workloads.reference_from_pool(pool), cfg


def small_run():
    """A two-round DiaNA run on the small pool. Returns the reference
    record, the config and, per round, what the checks need."""
    pool, ref, cfg = small_setup()
    rounds = []

    def capture(model, pool, report):
        rounds.append({
            "params": {k: v.copy() for k, v in model.params().items()},
            "unlabeled": np.sort(pool.unlabeled_arrays()[0]),
            "labeled_target": pool.labeled_arrays(include_source=False),
            "report": report,
        })

    aa.run_active_loop(cfg, pool, on_round_end=capture)
    return ref, cfg, rounds


@pytest.fixture(scope="module")
def run():
    return small_run()


def round2_posteriors(ref, cfg, rounds):
    first, second = rounds
    chosen = sorted(first["report"].selected_ids)
    lab_X = np.vstack([ref.source_X, ref.target_X[ref.rows(chosen)]])
    lab_y = np.concatenate([ref.source_y, ref.target_y[ref.rows(chosen)]])
    unl = first["unlabeled"]
    p = second["report"].gmm.params
    post = checks.ui_posteriors(first["params"], lab_X, lab_y, ref.target_X[ref.rows(unl)],
                                cfg.resolved_k(), p.pi, p.mu, p.sigma2)
    return unl, post


def test_genuine_run_passes_every_check():
    pool, ref, cfg = small_setup()
    checker = checks.RunChecker(ref, cfg.per_round, cfg.budget, cfg.resolved_k())
    aa.run_active_loop(cfg, pool, on_round_end=checker)
    assert checker.rounds == 2


def test_wrong_accuracy_is_rejected(run):
    ref, _, rounds = run
    last = rounds[-1]
    checks.check_accuracy(last["report"].accuracy, last["params"], ref.target_X, ref.target_y)
    wrong = last["report"].accuracy + 1.0 / ref.target_y.size
    with pytest.raises(CheckFailure, match="accuracy"):
        checks.check_accuracy(wrong, last["params"], ref.target_X, ref.target_y)


def test_selection_that_is_not_top_b_is_rejected(run):
    ref, cfg, rounds = run
    unl, post = round2_posteriors(ref, cfg, rounds)
    report = rounds[1]["report"]
    checks.check_top_b(report.selected_ids, report.selected_posteriors, unl, post)

    worst = int(unl[np.argmin(post)])
    swapped = report.selected_ids[:-1] + [worst]
    with pytest.raises(CheckFailure, match="above the batch minimum"):
        checks.check_top_b(swapped, None, unl, post)
    shifted = [p + 1e-3 for p in report.selected_posteriors]
    with pytest.raises(CheckFailure, match="posteriors differ"):
        checks.check_top_b(report.selected_ids, shifted, unl, post)


def test_non_monotone_objective_trace_is_rejected(run):
    fit = run[2][0]["report"].gmm
    p = fit.params
    checks.check_em(p.pi, p.mu, p.sigma2, fit.objective_trace, fit.n_iter, fit.objective)

    trace = list(fit.objective_trace)
    trace[1] = trace[2] + 1e-6 * max(1.0, abs(trace[2]))
    with pytest.raises(CheckFailure, match="objective fell"):
        checks.check_em(p.pi, p.mu, p.sigma2, trace, fit.n_iter, fit.objective)


def test_improper_mixture_is_rejected(run):
    fit = run[2][0]["report"].gmm
    p = fit.params
    args = (fit.objective_trace, fit.n_iter, fit.objective)
    with pytest.raises(CheckFailure, match="probability vector"):
        checks.check_em(p.pi * 1.01, p.mu, p.sigma2, *args)
    with pytest.raises(CheckFailure, match="variances"):
        checks.check_em(p.pi, p.mu, np.full(4, 1e-7), *args)


def test_over_spent_budget_is_rejected():
    ref, cfg, rounds = small_run()
    first = rounds[0]
    report = first["report"]
    spare = int(first["unlabeled"][0])
    with pytest.raises(CheckFailure, match="share"):
        checks.check_annotation(ref, 1, cfg.per_round, cfg.budget,
                                report.selected_ids + [spare], set(), ref.target_ids,
                                first["unlabeled"], first["labeled_target"])

    def overspend(model, pool, report):
        if report.round_index == 2:
            pool.annotate_batch([int(pool.unlabeled_arrays()[0][0])])
        checker(model, pool, report)

    pool, _, _ = small_setup()
    checker = checks.RunChecker(ref, cfg.per_round, cfg.budget, cfg.resolved_k())
    with pytest.raises(CheckFailure, match="not the pool minus the batch"):
        aa.run_active_loop(cfg, pool, on_round_end=overspend)


def test_wrong_annotated_label_is_rejected(run):
    ref, cfg, rounds = run
    first = rounds[0]
    X_t, y_t = first["labeled_target"]
    args = (ref, 1, cfg.per_round, cfg.budget, first["report"].selected_ids, set(),
            ref.target_ids, first["unlabeled"])
    checks.check_annotation(*args, (X_t, y_t))
    bad = y_t.copy()
    bad[0] = (bad[0] + 1) % 3
    with pytest.raises(CheckFailure, match="labels differ"):
        checks.check_annotation(*args, (X_t, bad))


def test_partition_that_misses_samples_is_rejected(run):
    sizes = dict(run[2][0]["report"].partition_sizes)
    n = sum(sizes.values())
    checks.check_partition(sizes, n)
    sizes["CC"] -= 1
    with pytest.raises(CheckFailure, match="do not sum"):
        checks.check_partition(sizes, n)


def test_layer_self_times_add_up_and_wrappers_come_off():
    tracer = spans.Tracer()
    tracer.install(aa)
    try:
        pool, _, cfg = small_setup()
        with tracer.span(spans.ROOT):
            reports = aa.harness.run_active_loop(cfg, pool)
    finally:
        tracer.uninstall()
    assert aa.harness.run_em is aa.gmm.run_em
    assert "traced" not in repr(aa.Classifier.__dict__["features"])

    m = spans.layer_metrics(tracer, n_passes=1)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(
        m["trace.run_s"], abs=1e-9)
    # pretraining on 150 source rows, then each round on source plus annotated rows
    steps = 5 * math.ceil(150 / 32) + sum(
        2 * math.ceil((150 + r * PER_ROUND) / 32) for r in (1, 2))
    assert m["classifier.sgd_steps"] == steps
    assert m["gmm.em_iters"] == sum(r.gmm.n_iter for r in reports)
    assert m["scoring.unlabeled_rows"] > 0 and m["classifier.forward_rows"] > 0
