"""A run's reports depend only on the config and the pool's rows.

One table of transformations that must leave every round report's
sorted-key JSON unchanged. Each applies to a short loop of every strategy
on a generated pool at C = 2, 3, 4, 5, 7 and 10:

- shuffled: the rows given to DataPool in a seeded permutation;
- file: the pool read back with load_pool from a file written in shuffled
  line order;
- ids: every id renamed by the increasing map 3 * id + 7, the selected ids
  mapped back before comparing;
- blocks: numerics.ROW_BLOCK set small, so every pool pass, the
  partition's included, spans several blocks;
- blas: the loop run in two fresh interpreters whose BLAS runs on 1 and 2
  threads (tests/blas_threads.py), for a few (strategy, C) pairs. Its
  diana run at C = 5 has SKETCH_ROWS + per_round target rows, so round 1
  fits the mixture on a sketch and round 2 on exactly SKETCH_ROWS scores.

A case that drifts today is marked xfail(strict=True), so it stays visible
and the fix that makes it hold has to remove the mark.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from activeadapt import gmm, harness, numerics
from activeadapt.classifier import TrainConfig
from activeadapt.datapool import DataPool, ShiftConfig, generate_shifted_dataset, load_pool
from activeadapt.harness import LoopConfig, Strategy, run_active_loop
from activeadapt.sampler import SfdaConfig
from blas_threads import last_words_by_thread_count

STRATEGIES = {
    "diana": {},
    "sfda": {"sfda": SfdaConfig()},
    "random": {"strategy": Strategy.RANDOM},
    "entropy": {"strategy": Strategy.ENTROPY},
    "least_confidence": {"strategy": Strategy.LEAST_CONFIDENCE},
}
CLASS_COUNTS = (2, 3, 4, 5, 7, 10)
N_TARGET = 300

# case name: (ROW_BLOCK, {strategy: the class counts whose reports drift}).
# A block's head product moves a few log-probabilities by ulps at these C
# (ROADMAP item 14). Measured with numpy 2.4's OpenBLAS 0.3.31 on an x86-64
# Xeon; its kernels are picked by CPU at run time, so another CPU may drift
# at other cases. The names keep the ids these cases had when they also
# set a partition block size (the second number); the partition now cuts
# by ROW_BLOCK like every pool pass.
BLOCK_SIZES = {
    "blocks97x50": (97, {"diana": (2, 3), "sfda": (3,)}),
    "blocks151x7": (151, {"diana": (2, 3), "sfda": (3,)}),
    "blocks2x3": (2, {"diana": (2, 3, 10), "sfda": (2, 3)}),
}


def pool_rows(C=5, n_target=200, d_in=8, shift_kind="rotation"):
    """A generated pool's ids, X, labels and source flags, in id order: 60
    source rows, which hold ids 0..59, then n_target target rows (seed 3)."""
    pool = generate_shifted_dataset(ShiftConfig(
        C=C, d_in=d_in, n_source=60, n_target=n_target, shift_kind=shift_kind, seed=3))
    X_s, y_s = pool.source_arrays()
    t_ids, X_t = pool.target_arrays()
    ids = np.concatenate([np.arange(len(y_s)), t_ids])
    y = np.concatenate([y_s, pool.evaluation_labels(t_ids)])
    return ids, np.vstack([X_s, X_t]), y, ids < len(y_s)


def shuffled_rows(rows, seed):
    """pool_rows' arrays in one seeded row permutation."""
    perm = np.random.default_rng(seed).permutation(rows[0].size)
    return tuple(a[perm] for a in rows)


@functools.cache
def case_rows(C, n_target=N_TARGET):
    return pool_rows(C, n_target, d_in=max(8, C), shift_kind="mixed")


def loop_config(strategy) -> LoopConfig:
    return LoopConfig(budget=20, rounds=2, d_feat=16, pretrain_epochs=5,
                      train=TrainConfig(epochs_per_round=2, batch_size=16, seed=2),
                      seed=5, loss_report=True, **STRATEGIES[strategy])


def same_id(i):
    return i


def reports(strategy, pool, id_back=same_id) -> list[str]:
    """Each round report of the strategy's loop on pool as sorted-key JSON,
    its selected ids passed through id_back."""
    out = []
    for rep in run_active_loop(loop_config(strategy), pool):
        d = rep.to_dict()
        d["selected_ids"] = [id_back(i) for i in d["selected_ids"]]
        out.append(json.dumps(d, sort_keys=True))
    return out


@functools.cache
def plain_reports(strategy, C) -> list[str]:
    return reports(strategy, DataPool(C, *case_rows(C)))


# -- the in-process transformations: (C, rows, tmp_path, monkeypatch) ->
# (the transformed pool, the map from its ids back to the rows' ids)

def shuffled(C, rows, tmp_path, monkeypatch):
    return DataPool(C, *shuffled_rows(rows, seed=0)), same_id


def from_shuffled_file(C, rows, tmp_path, monkeypatch):
    ids, X, y, source = shuffled_rows(rows, seed=1)
    lines = [f"{X.shape[1]},{C}"] + [
        ",".join([str(i), "S" if s else "T", str(c), *map(repr, x.tolist())])
        for i, x, c, s in zip(ids, X, y, source)
    ]
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join(lines) + "\n")
    return load_pool(path), same_id


def renamed_ids(C, rows, tmp_path, monkeypatch):
    ids, X, y, source = rows
    return DataPool(C, 3 * ids + 7, X, y, source), lambda i: (i - 7) // 3


def small_blocks(size):
    def transform(C, rows, tmp_path, monkeypatch):
        monkeypatch.setattr(numerics, "ROW_BLOCK", size)
        return DataPool(C, *rows), same_id
    return transform


TRANSFORMS = {
    "shuffled": shuffled,
    "file": from_shuffled_file,
    "ids": renamed_ids,
    **{name: small_blocks(size) for name, (size, _) in BLOCK_SIZES.items()},
}


# -- the BLAS row: every run below in each of two interpreters

BLAS_CASES = [("diana", 5), *((s, C) for C in (3, 10) for s in ("diana", "sfda", "entropy"))]
SKETCHED = ("diana", 5)

_BLAS_SCRIPT = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
import test_invariance
print(test_invariance.blas_row())
"""


def blas_row() -> str:
    """Run BLAS_CASES in this interpreter. Returns one word of JSON: the
    SHA-256 of each run's reports, and the unlabeled score counts run_em
    was given in the SKETCHED run, which has SKETCH_ROWS + per_round target
    rows."""
    real_em, fitted, out = harness.run_em, [], {}
    for strategy, C in BLAS_CASES:
        n_target = N_TARGET
        if (strategy, C) == SKETCHED:
            n_target = gmm.SKETCH_ROWS + loop_config(strategy).per_round
            harness.run_em = lambda ts: fitted.append(ts.unlabeled_scores.size) or real_em(ts)
        pool = DataPool(C, *case_rows(C, n_target))
        text = "".join(reports(strategy, pool))
        out[f"{strategy}-C{C}"] = hashlib.sha256(text.encode()).hexdigest()
        harness.run_em = real_em
    out["fitted"] = fitted
    return json.dumps(out, separators=(",", ":"))


@functools.cache
def blas_rows() -> dict:
    """{n: blas_row()'s JSON from an interpreter whose BLAS runs on n
    threads} for n = 1 and 2."""
    tests = Path(__file__).resolve().parent
    script = _BLAS_SCRIPT.format(src=str(tests.parent / "src"), tests=str(tests))
    words = last_words_by_thread_count(script, "one CPU: BLAS cannot split work across threads")
    return {n: json.loads(word) for n, word in words.items()}


# -- the table

def _case(transform, strategy, C, drifting=()):
    marks = [pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 14: the head product's rows depend on their row block"
    ))] if C in drifting else []
    return pytest.param(transform, strategy, C, id=f"{transform}-{strategy}-C{C}", marks=marks)


CASES = [
    _case(name, strategy, C)
    for name in ("shuffled", "file", "ids") for strategy in STRATEGIES for C in CLASS_COUNTS
] + [
    _case(name, strategy, C, drifts.get(strategy, ()))
    for name, (_, drifts) in BLOCK_SIZES.items() for strategy in STRATEGIES for C in CLASS_COUNTS
] + [_case("blas", strategy, C) for strategy, C in BLAS_CASES]


@pytest.mark.parametrize("transform, strategy, C", CASES)
def test_reports_do_not_change(transform, strategy, C, tmp_path, monkeypatch):
    if transform == "blas":
        rows = blas_rows()
        assert rows[1][f"{strategy}-C{C}"] == rows[2][f"{strategy}-C{C}"]
        if (strategy, C) == SKETCHED:  # round 1 fits a sketch, round 2 whole scores
            sketch, whole = rows[1]["fitted"]
            assert sketch < gmm.SKETCH_ROWS == whole
        return
    want = plain_reports(strategy, C)
    pool, id_back = TRANSFORMS[transform](C, case_rows(C), tmp_path, monkeypatch)
    assert reports(strategy, pool, id_back) == want
