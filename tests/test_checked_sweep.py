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
"""

import numpy as np
import pytest

from activeadapt.classifier import TrainConfig
from activeadapt.datapool import ShiftConfig, ShiftKind, generate_shifted_dataset
from activeadapt.harness import LoopConfig, run_active_loop
from test_harness import _perfbench

N_RUNS = 100


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
