"""End-to-end active adaptation loops against the simulated oracle.

One run: pretrain on source, then R rounds of
score -> fit mixture -> select -> partition -> annotate -> train.
Baseline strategies (random / entropy / least-confidence) run the same loop
with another selection rule. They fit no mixture, so they build no
consistency or entropy pools and train with the supervised loss only, which
isolates acquisition quality in comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .classifier import (
    Classifier,
    LossBreakdown,
    TrainConfig,
    _row_blocks,
    augment,
    backward_and_step,
    combined_loss,
    draw_perturbation,
)
from .datapool import DataPool, generate_shifted_dataset
from .gmm import EmFit, GmmTrainSet, component_posteriors, run_em
from .sampler import (
    SfdaConfig,
    partition_unlabeled,
    select_active_batch,
    sfda_bootstrap,
    loss_quantile_split,
)
from .scoring import (
    Category,
    _scores_at,
    compute_centroids,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_labels,
    similarity_labels,
)


class Strategy(Enum):
    DIANA = "diana"
    RANDOM = "random"
    ENTROPY = "entropy"
    LEAST_CONFIDENCE = "least_confidence"


@dataclass
class LoopConfig:
    """Knobs for one adaptation run.

    budget is split evenly over rounds (rounds must divide budget); k
    defaults to d_feat // 8.
    """

    budget: int
    rounds: int
    tau: float = 0.95
    k: int | None = None
    d_feat: int = 64
    train: TrainConfig = field(default_factory=TrainConfig)
    strategy: Strategy = Strategy.DIANA
    sfda: SfdaConfig | None = None
    pretrain_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.strategy, str):
            self.strategy = Strategy(self.strategy)
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.rounds < 1:
            raise ValueError("rounds must be positive")
        if self.budget > 0 and self.budget % self.rounds != 0:
            raise ValueError(
                f"rounds ({self.rounds}) must divide budget ({self.budget})"
            )
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        k = self.resolved_k()
        if not 1 <= k <= self.d_feat:
            raise ValueError(f"k={k} must lie in [1, d_feat={self.d_feat}]")
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be nonnegative")
        if self.sfda is not None and self.strategy is not Strategy.DIANA:
            raise ValueError("the source-free variant only applies to the diana strategy")

    @property
    def per_round(self) -> int:
        return self.budget // self.rounds if self.budget else 0

    def resolved_k(self) -> int:
        return self.k if self.k is not None else max(1, self.d_feat // 8)


@dataclass
class RoundReport:
    round_index: int
    accuracy: float
    partition_sizes: dict[str, int]
    gmm: EmFit | None
    selected_ids: list[int]
    selected_posteriors: list[float] | None
    selected_error_rate: float | None
    losses: LossBreakdown | None = None

    def to_dict(self) -> dict:
        out = {
            "round": self.round_index,
            "accuracy": self.accuracy,
            "partition_sizes": self.partition_sizes,
            "selected_ids": self.selected_ids,
            "selected_posteriors": self.selected_posteriors,
            "selected_error_rate": self.selected_error_rate,
        }
        if self.gmm is not None:
            fit = self.gmm
            out["gmm"] = {
                "pi": fit.params.pi.tolist(),
                "mu": fit.params.mu.tolist(),
                "sigma2": fit.params.sigma2.tolist(),
                "n_iter": fit.n_iter,
                "converged": fit.converged,
                "objective": fit.objective,
            }
        if self.losses is not None:
            out["losses"] = dataclasses.asdict(self.losses)
        return out


# -- training helpers --------------------------------------------------------


# Purposes of a round's companion streams, [train.seed, 2, r, purpose]. The
# round's labeled permutations are the only draws from [train.seed, 2, r].
CC_WINDOWS, UC_WINDOWS, PERTURBATION = 1, 2, 3


def _windows(rng, n: int, size: int, count: int) -> np.ndarray:
    """(count, take) row indices into range(n), take = min(size, n):
    consecutive take-row windows of a permutation of range(n), and a fresh
    permutation whenever fewer than take of its rows are left, so no window
    repeats a row or spans two permutations. Only the windows used are
    drawn: each permutation's are one sample without replacement, a uniform
    permutation's prefix."""
    take = min(size, n)
    per = n // take
    parts = [
        rng.choice(n, min(per, count - i) * take, replace=False)
        for i in range(0, count, per)
    ]
    return np.concatenate(parts).reshape(count, take)


def _train_epochs(model, X, y, cc, uc, cfg: TrainConfig, epochs: int, key):
    """SGD epochs over the labeled set; each step pairs its labeled batch
    with companion batches from the consistency and entropy pools when they
    are active.

    Each purpose reads its own stream. key seeds the labeled one, which
    draws one permutation of the labeled rows per epoch; without active
    pools key may also be a Generator, used as it is. Purpose p reads
    default_rng([*key, p]): the consistency windows (CC_WINDOWS), the
    entropy windows (UC_WINDOWS) and the perturbation (PERTURBATION).

    Every draw is made once per epoch, before its steps. The labeled rows
    are gathered in permutation order; each active pool gives one window of
    take = min(batch_size, pool size) rows per step (_windows); the epoch's
    consistency rows are perturbed in one augment call, from one noise and
    one dropout draw. A step only slices.
    """
    use_cc = cc is not None and len(cc[1]) > 0 and cfg.lambda_c != 0.0
    use_uc = uc is not None and uc.shape[0] > 0 and cfg.lambda_e != 0.0
    cc_batch = (np.zeros((0, model.d_in)), np.zeros(0, dtype=int))
    uc_batch = np.zeros((0, model.d_in))
    rng = np.random.default_rng(key)
    n, size = len(y), cfg.batch_size
    starts = range(0, n, size)
    if use_cc:
        X_cc, y_cc = cc
        cc_rng = np.random.default_rng([*key, CC_WINDOWS])
        perturb_rng = np.random.default_rng([*key, PERTURBATION])
    if use_uc:
        uc_rng = np.random.default_rng([*key, UC_WINDOWS])
    for _ in range(epochs):
        perm = rng.permutation(n)
        X_perm, y_perm = X[perm], y[perm]
        if use_cc:
            pick = _windows(cc_rng, len(y_cc), size, len(starts))
            cc_rows, cc_labels = X_cc[pick], y_cc[pick]
            cc_rows = augment(cc_rows, cfg, *draw_perturbation(perturb_rng, cc_rows.shape, cfg))
        if use_uc:
            uc_rows = uc[_windows(uc_rng, uc.shape[0], size, len(starts))]
        for step, start in enumerate(starts):
            batch = slice(start, start + size)
            if use_cc:
                cc_batch = (cc_rows[step], cc_labels[step])
            if use_uc:
                uc_batch = uc_rows[step]
            backward_and_step(model, (X_perm[batch], y_perm[batch]), cc_batch, uc_batch, cfg)
    return model


def pretrain_source(
    model: Classifier, pool: DataPool, cfg: TrainConfig, epochs: int | None = None, rng=None
) -> Classifier:
    """Supervised training on the source pool only."""
    X, y = pool.source_arrays()
    if y.size == 0:
        raise ValueError("source pool is empty")
    if len(np.unique(y)) != pool.C:
        raise ValueError("source pool must cover every class")
    epochs = cfg.epochs_per_round if epochs is None else epochs
    key = rng if rng is not None else [cfg.seed, 1]
    return _train_epochs(model, X, y, None, None, cfg, epochs, key)


def evaluate(model: Classifier, pool: DataPool) -> float:
    """Accuracy over the full target domain, annotated samples included."""
    ids, X = pool.target_arrays()
    if ids.size == 0:
        raise ValueError("no target samples to evaluate")
    truth = pool.evaluation_labels(ids)
    return float(np.mean(model.predict(X) == truth))


# -- per-round selection -----------------------------------------------------


@dataclass
class _Selection:
    """A round's batch and, after a mixture fit, the rest of the pool's
    partition sizes and the training pools it feeds: copies of remaining
    rows, so the loop drops the selection when its round ends."""

    ids: list[int]
    posteriors: list[float] | None = None
    gmm: EmFit | None = None
    sizes: dict[str, int] = field(default_factory=dict)
    cc: tuple[np.ndarray, np.ndarray] | None = None  # rows and similarity labels
    uc: np.ndarray | None = None


def _select_diana(model, pool, cfg: LoopConfig, b: int) -> _Selection:
    """Score, fit, select the top b and partition the rest of the pool. The
    partition runs before annotation: the model and centroids it needs are
    the ones the batch was selected with. It reads only the remaining
    pool's scores, and the CC/UC rows are taken from the whole pool's rows
    by index, so the round holds one copy of the unlabeled rows."""
    u_ids, u_X = pool.unlabeled_arrays()
    k = cfg.resolved_k()
    X_lab, y_lab = pool.labeled_arrays(include_source=cfg.sfda is None)
    # with source rows the labeled set covers every class (a pool
    # invariant), so only a source-free round can bootstrap
    if len(np.unique(y_lab)) < pool.C:
        return _Selection(sfda_bootstrap(model, u_ids, u_X, cfg.sfda, b, k).active_ids)
    centroids = compute_centroids(model, X_lab, y_lab)
    l_scores = info_scores_labeled(model, X_lab, y_lab)
    l_obs = observation_labels(model, X_lab, y_lab, cfg.tau)
    scores, sim = info_scores_unlabeled(model, centroids, u_X, k)
    fit = run_em(GmmTrainSet(l_scores, l_obs, scores))
    ids = select_active_batch(u_ids, scores, fit.params, b)

    order = np.argsort(u_ids)
    rows = order[np.searchsorted(u_ids, ids, sorter=order)]
    ui_post = component_posteriors(scores[rows], fit.params)[:, Category.UI - 1]
    rest = np.delete(np.arange(u_ids.size), rows)
    part = partition_unlabeled(
        u_ids[rest], None, model, centroids, fit.params, k, scores=scores[rest]
    )
    cc, uc = rest[part.cats == Category.CC], rest[part.cats == Category.UC]
    return _Selection(ids, ui_post.tolist(), fit, part.sizes, (u_X[cc], sim[cc]), u_X[uc])


def _select_baseline(model, pool, cfg: LoopConfig, b: int, round_index: int) -> _Selection:
    u_ids, u_X = pool.unlabeled_arrays()
    if cfg.strategy is Strategy.RANDOM:
        rng = np.random.default_rng([cfg.seed, 3, round_index])
        take = rng.choice(u_ids, size=min(b, u_ids.size), replace=False)
        return _Selection([int(i) for i in take])
    logp = model.log_proba(u_X)
    if cfg.strategy is Strategy.ENTROPY:
        key = np.sum(np.exp(logp) * logp, axis=1)  # ascending = max entropy first
    else:  # least confidence: smallest max-probability first
        key = logp.max(axis=1)
    order = np.lexsort((u_ids, key))
    return _Selection([int(i) for i in u_ids[order[: min(b, u_ids.size)]]])


# -- the loop ----------------------------------------------------------------


def run_active_loop(
    cfg: LoopConfig, pool: DataPool, on_round_end=None
) -> list[RoundReport]:
    """Run pretraining plus R selection/training rounds, annotating the pool
    in place. Returns one report per round (a single evaluation-only report
    when budget is 0). on_round_end, when given, is called with
    (model, pool, report) after every round.

    Every strategy runs this loop. Only a diana round with a mixture fit
    builds the confident-consistent and uncertain-consistent pools, so
    baseline and source-free bootstrap rounds train on the supervised loss
    alone, whatever lambda_c and lambda_e are.

    Randomness is derived from the config seeds so a run is reproducible:
    model init uses [seed, 0], pretraining uses [train.seed, 1], and random
    selection in round r uses [seed, 3, r]. Round r's training gives each
    purpose its own stream: the labeled permutations use [train.seed, 2, r],
    and the consistency windows, the entropy windows and the perturbation
    use [train.seed, 2, r, p] with p = CC_WINDOWS, UC_WINDOWS and
    PERTURBATION (1, 2, 3). So a round without companion pools (a baseline
    or source-free bootstrap round) draws only its labeled permutations,
    and one purpose's draws never shift another's.
    """
    n_unlabeled = pool.sizes[2]
    if cfg.budget > n_unlabeled:
        raise ValueError(
            f"budget {cfg.budget} exceeds unlabeled pool size {n_unlabeled}"
        )
    pool.check_invariants()
    model = Classifier.initialize(
        pool.d_in, cfg.d_feat, pool.C, np.random.default_rng([cfg.seed, 0])
    )
    pretrain_source(model, pool, cfg.train, cfg.pretrain_epochs)
    if cfg.budget == 0:
        return [RoundReport(0, evaluate(model, pool), {}, None, [], None, None)]

    reports = []
    use_source = cfg.sfda is None
    for r in range(1, cfg.rounds + 1):
        if cfg.strategy is Strategy.DIANA:
            sel = _select_diana(model, pool, cfg, cfg.per_round)
        else:
            sel = _select_baseline(model, pool, cfg, cfg.per_round, r)

        # annotation order is canonical so downstream training does not
        # depend on how the strategy happened to order its picks
        pool.annotate_batch(sorted(sel.ids))
        X_l, y_l = pool.labeled_arrays(include_source=use_source)
        err_rate = None
        if sel.ids:
            # the batch is the last rows annotated, with its oracle labels
            n = len(sel.ids)
            err_rate = float(np.mean(model.predict(X_l[-n:]) != y_l[-n:]))

        _train_epochs(
            model, X_l, y_l, sel.cc, sel.uc, cfg.train, cfg.train.epochs_per_round,
            [cfg.train.seed, 2, r],
        )

        losses = None
        if sel.gmm is not None:
            losses = combined_loss(
                model, X_l, y_l, *sel.cc, sel.uc, cfg.train.lambda_c, cfg.train.lambda_e
            )

        reports.append(
            RoundReport(
                round_index=r,
                accuracy=evaluate(model, pool),
                partition_sizes=sel.sizes,
                gmm=sel.gmm,
                selected_ids=sel.ids,
                selected_posteriors=sel.posteriors,
                selected_error_rate=err_rate,
                losses=losses,
            )
        )
        del sel  # its CC/UC pools must not outlive the round
        pool.check_invariants()
        if on_round_end is not None:
            on_round_end(model, pool, reports[-1])
    return reports


# -- comparisons and diagnostics --------------------------------------------

AGGREGATE_FIELDS = ["strategy", "seed", "round", "accuracy", "selected_error_rate"]


def aggregate_rows(strategy: Strategy, seed: int, reports) -> list[dict]:
    """One aggregate row (AGGREGATE_FIELDS) per round report of a run."""
    return [
        {
            "strategy": strategy.value,
            "seed": seed,
            "round": rep.round_index,
            "accuracy": rep.accuracy,
            "selected_error_rate": rep.selected_error_rate,
        }
        for rep in reports
    ]


def compare_strategies(shift_cfg, loop_cfg: LoopConfig, strategies, n_seeds: int):
    """Run each strategy on freshly generated pools over n_seeds paired
    seeds. Returns aggregate rows (one per strategy/seed/round)."""
    rows = []
    for seed_i in range(n_seeds):
        data_cfg = dataclasses.replace(shift_cfg, seed=shift_cfg.seed + seed_i)
        for strat in strategies:
            strat = Strategy(strat)
            train = dataclasses.replace(loop_cfg.train, seed=loop_cfg.train.seed + seed_i)
            cfg = dataclasses.replace(
                loop_cfg, strategy=strat, seed=loop_cfg.seed + seed_i, train=train
            )
            reports = run_active_loop(cfg, generate_shifted_dataset(data_cfg))
            rows += aggregate_rows(strat, seed_i, reports)
    return rows


def write_aggregate_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def consistency_diagnostic(
    model: Classifier, pool: DataPool, ks, quantiles=(0.25, 0.5, 0.75)
):
    """Consistency rates of low-loss vs high-loss unlabeled subsets: the
    fraction of each subset whose predicted class equals its
    similarity-based label.

    Losses use the hidden true labels, so this is a validation diagnostic,
    not part of the adaptation loop. One feature pass over the unlabeled
    pool, one row block at a time, gives the losses, the predictions and the
    similarity labels for every k. Returns
    {k: {quantile: {"low": rate, "high": rate}}}; an empty subset raises.
    """
    X_lab, y_lab = pool.labeled_arrays(include_source=True)
    u_ids, u_X = pool.unlabeled_arrays()
    truth = pool.evaluation_labels(u_ids)
    centroids = compute_centroids(model, X_lab, y_lab)
    losses = np.empty(u_ids.size)
    consistent = {k: np.empty(u_ids.size, dtype=bool) for k in ks}
    for rows in _row_blocks(u_ids.size):
        F = model.features(u_X[rows])
        losses[rows] = _scores_at(model._head_log_proba(F), truth[rows])
        pred = np.argmax(F @ model.W_out + model.b_out, axis=1)
        for k, flags in consistent.items():
            flags[rows] = pred == similarity_labels(F, centroids, k)
    out = {}
    for k, flags in consistent.items():
        out[k] = {}
        for q in quantiles:
            split = loss_quantile_split(losses, q)
            if not all(subset.any() for subset in split):
                raise ValueError("consistency rate of an empty subset is undefined")
            low, high = (float(np.mean(flags[subset])) for subset in split)
            out[k][q] = {"low": low, "high": high}
    return out
