"""Checks of an adaptation run against the benchmark's own computations.

Nothing here calls the engine's numerics: the forward pass, centroids,
top-k overlap labels, scores and mixture posteriors are recomputed in plain
numpy, and the labels come from the benchmark's record of the inputs. Every
check raises CheckFailure with a reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CATEGORIES = ("CC", "UC", "UI", "CI")
UI = CATEGORIES.index("UI")
LOG_PROB_FLOOR = np.log(1e-12)
VARIANCE_FLOOR = 1e-6
CHUNK = 16384  # rows per block, so the checks stay small next to the engine


class CheckFailure(Exception):
    pass


@dataclass
class Reference:
    """The benchmark's record of one pool's inputs, target ids sorted."""

    source_X: np.ndarray
    source_y: np.ndarray
    target_ids: np.ndarray
    target_X: np.ndarray
    target_y: np.ndarray

    def rows(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=int)
        pos = np.searchsorted(self.target_ids, ids)
        if ids.size and (pos.max() >= self.target_ids.size or
                         (self.target_ids[pos] != ids).any()):
            raise CheckFailure("ids outside the target domain")
        return pos


def _logits(params, X):
    F = np.tanh(X @ params["W_hidden"] + params["b_hidden"])
    return F, F @ params["W_out"] + params["b_out"]


def _logsumexp(a):
    m = a.max(axis=1)
    return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


def _topk_mask(F, k):
    """Top-k entries of each row by magnitude; among equal magnitudes the
    smaller index wins."""
    mag = np.abs(F)
    kth = -np.sort(-mag, axis=1)[:, k - 1 : k]
    mask = mag > kth
    tied = mag == kth
    room = k - mask.sum(axis=1, keepdims=True)
    return mask | (tied & (np.cumsum(tied, axis=1) <= room))


def check_accuracy(reported: float, params, X, y) -> None:
    """The reported target accuracy equals the share of target rows whose
    argmax logit matches the recorded label."""
    correct = 0
    for s in range(0, len(y), CHUNK):
        _, z = _logits(params, X[s : s + CHUNK])
        correct += int(np.sum(np.argmax(z, axis=1) == y[s : s + CHUNK]))
    expected = correct / len(y)
    if not abs(reported - expected) <= 0.5 / len(y):
        raise CheckFailure(f"reported accuracy {reported!r}, recomputed {expected!r}")


def check_annotation(ref: Reference, round_index: int, per_round: int, budget: int,
                     selected, chosen_before: set, unlabeled_before, unlabeled_after,
                     labeled_target) -> None:
    """One round annotates exactly its share of the budget: distinct ids,
    never annotated before, taken out of the unlabeled pool, and carrying the
    recorded labels."""
    sel = [int(i) for i in selected]
    if len(sel) != per_round:
        raise CheckFailure(f"round {round_index} annotated {len(sel)} ids, share is {per_round}")
    if len(set(sel)) != len(sel):
        raise CheckFailure(f"round {round_index} selected an id twice")
    if chosen_before & set(sel):
        raise CheckFailure(f"round {round_index} re-annotated ids")
    before = set(np.asarray(unlabeled_before).tolist())
    if not set(sel) <= before:
        raise CheckFailure(f"round {round_index} selected ids outside the unlabeled pool")
    chosen = chosen_before | set(sel)
    if len(chosen) != round_index * per_round or len(chosen) > budget:
        raise CheckFailure(f"{len(chosen)} ids annotated after round {round_index}")
    if set(np.asarray(unlabeled_after).tolist()) != before - set(sel):
        raise CheckFailure(f"unlabeled pool after round {round_index} is not the pool minus the batch")
    X_t, y_t = labeled_target
    pos = ref.rows(sorted(chosen))
    want = np.column_stack([ref.target_X[pos], ref.target_y[pos]])
    got = np.column_stack([np.asarray(X_t, dtype=float), np.asarray(y_t, dtype=float)])
    if got.shape != want.shape:
        raise CheckFailure(f"{got.shape[0]} labeled target rows, expected {want.shape[0]}")
    order_w = np.lexsort(want.T[::-1])
    order_g = np.lexsort(got.T[::-1])
    if not np.array_equal(want[order_w], got[order_g]):
        raise CheckFailure("annotated rows or labels differ from the recorded ones")


def check_em(pi, mu, sigma2, trace, n_iter: int, objective: float) -> None:
    """A semi-supervised EM fit: non-decreasing objective, proper weights,
    floored variances."""
    pi, mu, sigma2 = (np.asarray(v, dtype=float) for v in (pi, mu, sigma2))
    trace = np.asarray(trace, dtype=float)
    if not all(np.isfinite(v).all() for v in (pi, mu, sigma2, trace)):
        raise CheckFailure("non-finite mixture parameters or objective")
    if n_iter < 1 or trace.size != n_iter + 1 or trace[-1] != objective:
        raise CheckFailure("objective trace does not match the iteration count")
    tol = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
    drops = np.flatnonzero(trace[1:] < trace[:-1] - tol)
    if drops.size:
        i = int(drops[0])
        raise CheckFailure(f"EM objective fell at iteration {i + 1}: {trace[i]!r} -> {trace[i + 1]!r}")
    if abs(pi.sum() - 1.0) > 1e-9 or (pi < 0).any():
        raise CheckFailure(f"mixture weights {pi.tolist()} are not a probability vector")
    if (sigma2 < VARIANCE_FLOOR).any():
        raise CheckFailure(f"variances {sigma2.tolist()} below {VARIANCE_FLOOR}")


def check_partition(sizes: dict, n_remaining: int) -> None:
    """Partition sizes cover the remaining unlabeled pool exactly."""
    if set(sizes) != set(CATEGORIES) or any(int(v) < 0 for v in sizes.values()):
        raise CheckFailure(f"bad partition sizes {sizes}")
    if sum(int(v) for v in sizes.values()) != n_remaining:
        raise CheckFailure(f"partition sizes {sizes} do not sum to {n_remaining}")


def ui_posteriors(params, lab_X, lab_y, X, k: int, pi, mu, sigma2) -> np.ndarray:
    """Uncertain-inconsistent posterior of each row of X, computed the way
    the method defines it, from the model and labeled set a round started
    with."""
    C = params["W_out"].shape[1]
    F_lab, _ = _logits(params, lab_X)
    A = np.zeros((C, F_lab.shape[1]))
    for c in range(C):
        A[c] = F_lab[lab_y == c].mean(axis=0)
    c_mask = _topk_mask(A, k).astype(np.int64)
    pi, mu, sigma2 = (np.asarray(v, dtype=float) for v in (pi, mu, sigma2))
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi)
    out = np.empty(len(X))
    for s in range(0, len(X), CHUNK):
        F, z = _logits(params, X[s : s + CHUNK])
        inter = _topk_mask(F, k).astype(np.int64) @ c_mask.T
        sim = np.argmax(inter / (2 * k - inter), axis=1)
        logp = z - _logsumexp(z)[:, None]
        score = -np.maximum(logp[np.arange(len(sim)), sim], LOG_PROB_FLOOR)
        lw = log_pi - 0.5 * (np.log(2 * np.pi * sigma2) + (score[:, None] - mu) ** 2 / sigma2)
        out[s : s + CHUNK] = np.exp(lw[:, UI] - _logsumexp(lw))
    return out


def check_top_b(selected, reported_posteriors, unl_ids, post, tol: float = 1e-9) -> None:
    """No unselected sample ranks above a selected one, and the reported
    posteriors of the batch match the recomputed ones."""
    unl_ids = np.asarray(unl_ids, dtype=int)
    order = np.argsort(unl_ids)
    at = np.searchsorted(unl_ids, selected, sorter=order)
    pos = order[np.minimum(at, unl_ids.size - 1)]
    if (unl_ids[pos] != np.asarray(selected)).any():
        raise CheckFailure("selected ids outside the unlabeled pool")
    chosen = np.zeros(unl_ids.size, dtype=bool)
    chosen[pos] = True
    if (~chosen).any() and post[~chosen].max() > post[chosen].min() + tol:
        j = int(np.argmax(np.where(chosen, -np.inf, post)))
        raise CheckFailure(
            f"unselected id {int(unl_ids[j])} has posterior {post[j]!r}, "
            f"above the batch minimum {post[chosen].min()!r}"
        )
    if reported_posteriors is not None and not np.allclose(
        reported_posteriors, post[pos], rtol=0.0, atol=tol
    ):
        raise CheckFailure("reported batch posteriors differ from the recomputed ones")


class RunChecker:
    """on_round_end callback checking every round of one DiaNA run against
    the benchmark's reference data."""

    def __init__(self, ref: Reference, per_round: int, budget: int, k: int):
        self.ref = ref
        self.per_round = per_round
        self.budget = budget
        self.k = k
        self.rounds = 0
        self.chosen: set[int] = set()
        self.unlabeled = ref.target_ids
        self.prev_params = None

    def __call__(self, model, pool, report) -> None:
        ref = self.ref
        r = report.round_index
        if r != self.rounds + 1:
            raise CheckFailure(f"round {r} reported after round {self.rounds}")
        unl_after, _ = pool.unlabeled_arrays()
        if report.gmm is None:
            raise CheckFailure(f"round {r} reports no mixture fit")
        g = report.gmm
        check_em(g.params.pi, g.params.mu, g.params.sigma2, g.objective_trace,
                 g.n_iter, g.objective)
        if self.prev_params is not None:
            lab_pos = ref.rows(sorted(self.chosen))
            lab_X = np.vstack([ref.source_X, ref.target_X[lab_pos]])
            lab_y = np.concatenate([ref.source_y, ref.target_y[lab_pos]])
            unl_X = ref.target_X[ref.rows(self.unlabeled)]
            post = ui_posteriors(self.prev_params, lab_X, lab_y, unl_X, self.k,
                                 g.params.pi, g.params.mu, g.params.sigma2)
            check_top_b(report.selected_ids, report.selected_posteriors,
                        self.unlabeled, post)
        check_annotation(ref, r, self.per_round, self.budget, report.selected_ids,
                         self.chosen, self.unlabeled, unl_after,
                         pool.labeled_arrays(include_source=False))
        check_partition(report.partition_sizes, unl_after.size)
        params = {k: np.array(v, copy=True) for k, v in model.params().items()}
        check_accuracy(report.accuracy, params, ref.target_X, ref.target_y)
        self.rounds = r
        self.chosen |= {int(i) for i in report.selected_ids}
        self.unlabeled = np.sort(unl_after)
        self.prev_params = params
