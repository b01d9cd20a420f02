"""A seeded sweep of small DiaNA runs with source labels, every round
checked by the benchmark's own checker (perfbench/checks.py, loaded
read-only): the annotation count and rows, the partition sums, the EM fit,
the accuracy, and from round 2 on the top b of the UI posterior, which the
checker recomputes with its own forward pass, row-major log-softmax and
top-k labels. Round 1's batch is not checked, since the checker never sees
the pretrained model.

The configs cover C from 2 to 10 (the head's class-major log-sum-exp sums
in another order than the checker's row sum from 8 classes on), d_in from
C - 1, shifts of every kind up to 50 (which saturates tanh features and so
ties magnitudes in the top-k sets), 2 or 3 rounds, and d_feat and k from 1.
Numpy's divide, overflow and invalid warnings are errors; underflow in exp
is expected and ignored. The sweep took 2.0-2.6 s on a 2-vCPU host, most
of it in EM (about 8,000 iterations over its 252 rounds).

The checker refuses source-free and baseline runs (they report no mixture
fit), so a second sweep of such runs, drawn the same way, checks the pool
around every round instead, and that a second run of the same config gives
the same reports. A source-free batch may be short (the bootstrap can find
fewer inconsistent rows than its share); those are counted, not refused.
Its 120 runs, each made twice, took 0.65-0.75 s on the same host.
"""

import dataclasses

import numpy as np

from activeadapt.classifier import TrainConfig
from activeadapt.datapool import ShiftConfig, ShiftKind, generate_shifted_dataset
from activeadapt.harness import LoopConfig, Strategy, run_active_loop
from activeadapt.sampler import SfdaConfig
from test_harness import _perfbench

N_RUNS = 100
N_OTHER_RUNS = 120


def reference(checks, pool):
    """The checker's record of a freshly built pool, as perfbench's
    workloads.reference_from_pool makes it."""
    source_X, source_y = pool.labeled_arrays(include_source=True)
    ids, X = pool.target_arrays()
    order = np.argsort(ids)
    ids, X = ids[order], X[order]
    return checks.Reference(source_X, source_y, ids, X, pool.evaluation_labels(ids))


def draw_run(rng):
    """One run's ShiftConfig and LoopConfig."""
    C = int(rng.integers(2, 11))
    shift = ShiftConfig(
        C=C,
        d_in=int(rng.integers(C - 1, C + 4)),
        n_source=int(rng.integers(C, 6 * C + 1)),
        n_target=int(rng.integers(4 * C, 240)),
        shift_kind=ShiftKind(rng.choice([k.value for k in ShiftKind])),
        shift_magnitude=float(rng.choice([0.0, 0.5, 50.0])),
        class_separation=float(rng.choice([0.0, 4.0])),
        class_std=float(rng.choice([0.0, 0.05, 1.0])),
        seed=int(rng.integers(0, 2**31)),
    )
    rounds = int(rng.integers(2, 4))
    per_round = int(rng.integers(1, shift.n_target // rounds + 1))
    d_feat = int(rng.choice([1, 4, 16]))
    loop = LoopConfig(
        budget=rounds * per_round,
        rounds=rounds,
        k=int(rng.integers(1, d_feat + 1)),
        d_feat=d_feat,
        train=TrainConfig(epochs_per_round=2, batch_size=16, seed=int(rng.integers(0, 2**31))),
        pretrain_epochs=3,
        seed=int(rng.integers(0, 2**31)),
    )
    return shift, loop


def test_small_diana_runs_pass_the_benchmark_checker():
    checks = _perfbench("checks")
    rng = np.random.default_rng(2023)
    classes = set()
    for _ in range(N_RUNS):
        shift, loop = draw_run(rng)
        classes.add(shift.C)
        pool = generate_shifted_dataset(shift)
        checker = checks.RunChecker(reference(checks, pool), loop.per_round, loop.budget,
                                    loop.resolved_k())
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            reports = run_active_loop(loop, pool, on_round_end=checker)
        assert len(reports) == checker.rounds == loop.rounds, (shift, loop)
    assert classes == set(range(2, 11))


def target_ids(pool):
    """The pool's labeled target ids, as a set, and its unlabeled ids."""
    ids, _ = pool.target_arrays()
    return set(ids[: pool.sizes[1]].tolist()), set(pool.unlabeled_arrays()[0].tolist())


def checked_run(shift, loop):
    """Run loop on a fresh pool, checking the pool around every round:
    the batch was unlabeled before it, no id is annotated twice, and the
    labeled target pool grows by exactly the batch. Returns every report's
    to_dict(), or the message of a source-free run's refusal to bootstrap
    when its predictions never cover every class."""
    pool = generate_shifted_dataset(shift)
    before = target_ids(pool)

    def check(model, pool, report):
        nonlocal before
        (labeled, unlabeled), batch = before, set(report.selected_ids)
        assert len(batch) == len(report.selected_ids), "an id selected twice"
        assert batch <= unlabeled, "a batch id was not unlabeled"
        before = target_ids(pool)
        assert before == (labeled | batch, unlabeled - batch)

    try:
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            return [r.to_dict() for r in run_active_loop(loop, pool, on_round_end=check)]
    except ValueError as e:
        if loop.sfda is None or "never cover every class" not in str(e):
            raise
        return str(e)


def test_small_source_free_and_baseline_runs_keep_the_pool_and_repeat():
    """Source-free, random, entropy and least_confidence runs in turn, each
    run twice with equal outcomes. Every baseline batch holds per_round ids.
    Of the 30 source-free runs, 22 are refused by the bootstrap (3
    pretraining epochs rarely predict every class), and 5 of the 20 rounds
    of the other 8 annotate fewer than per_round ids, all of them none."""
    rng = np.random.default_rng(2024)
    kinds = [None, Strategy.RANDOM, Strategy.ENTROPY, Strategy.LEAST_CONFIDENCE]
    refused = short = 0
    for i in range(N_OTHER_RUNS):
        shift, loop = draw_run(rng)
        kind = kinds[i % len(kinds)]
        if kind is None:
            loop = dataclasses.replace(loop, sfda=SfdaConfig())
        else:
            loop = dataclasses.replace(loop, strategy=kind)
        reports = checked_run(shift, loop)
        assert checked_run(shift, loop) == reports, (shift, loop)
        if isinstance(reports, str):
            refused += 1
            continue
        assert len(reports) == loop.rounds, (shift, loop)
        sizes = [len(r["selected_ids"]) for r in reports]
        if kind is None:
            short += sum(n < loop.per_round for n in sizes)
        else:
            assert sizes == [loop.per_round] * loop.rounds, (shift, loop)
    print(f"source-free runs refused: {refused}, short source-free batches: {short}")
