"""End-to-end active adaptation loops against the simulated oracle.

One run: pretrain on source, then R rounds of
score -> fit mixture -> select and annotate -> partition -> train.
Baseline strategies (random / entropy / least-confidence) swap the selection
rule and train with the supervised loss only, which isolates acquisition
quality in comparisons.
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
    backward_and_step,
    combined_loss,
)
from .datapool import DataPool, generate_shifted_dataset
from .gmm import EmFit, GmmTrainSet, component_posteriors, run_em
from .sampler import (
    SfdaConfig,
    partition_unlabeled,
    select_active_batch,
    sfda_bootstrap,
    consistency_rate,
    loss_quantile_split,
)
from .scoring import (
    Category,
    compute_centroids,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_labels,
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
    alpha_override: float | None = None
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
            out["gmm"] = {
                "pi": self.gmm.params.pi.tolist(),
                "mu": self.gmm.params.mu.tolist(),
                "sigma2": self.gmm.params.sigma2.tolist(),
                "n_iter": self.gmm.n_iter,
                "converged": self.gmm.converged,
                "objective": self.gmm.objective,
            }
        if self.losses is not None:
            out["losses"] = dataclasses.asdict(self.losses)
        return out


# -- training helpers --------------------------------------------------------


def _epoch_batches(n: int, batch_size: int, rng):
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _aux_batch(n_pool: int, batch_size: int, rng):
    take = min(batch_size, n_pool)
    return rng.choice(n_pool, size=take, replace=False)


_EMPTY = (np.zeros((0, 1)), np.zeros(0, dtype=int))


def _train_epochs(model, X, y, cc, uc, cfg: TrainConfig, epochs: int, rng):
    """SGD epochs over the labeled set; each step draws companion batches
    from the consistency and entropy pools when they are active."""
    use_cc = cc is not None and len(cc[1]) > 0 and cfg.lambda_c != 0.0
    use_uc = uc is not None and uc.shape[0] > 0 and cfg.lambda_e != 0.0
    for _ in range(epochs):
        for idx in _epoch_batches(len(y), cfg.batch_size, rng):
            cc_batch = _EMPTY
            uc_batch = np.zeros((0, model.d_in))
            if use_cc:
                pick = _aux_batch(len(cc[1]), cfg.batch_size, rng)
                cc_batch = (cc[0][pick], cc[1][pick])
            if use_uc:
                pick = _aux_batch(uc.shape[0], cfg.batch_size, rng)
                uc_batch = uc[pick]
            backward_and_step(model, (X[idx], y[idx]), cc_batch, uc_batch, cfg, rng)
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
    rng = np.random.default_rng(rng if rng is not None else [cfg.seed, 1])
    return _train_epochs(model, X, y, None, None, cfg, epochs, rng)


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
    ids: list[int]
    posteriors: list[float] | None
    gmm: EmFit | None
    centroids: object | None  # CentroidSet when the scoring pipeline ran
    pool_ids: np.ndarray  # the unlabeled pool the selection ranked, in pool order
    pool_X: np.ndarray
    pool_scores: np.ndarray | None = None  # scores of the scored pool
    pool_sim: np.ndarray | None = None  # similarity labels of the scored pool


def _rows_of(pool_ids: np.ndarray, ids) -> np.ndarray:
    """Rows of pool_ids that hold ids, in the order of ids."""
    ids = np.asarray(ids, dtype=int)
    hit = np.flatnonzero(np.isin(pool_ids, ids))
    hit = hit[np.argsort(pool_ids[hit])]
    return hit[np.searchsorted(pool_ids[hit], ids)]


def _score_and_fit(model, pool, cfg: LoopConfig, include_source: bool):
    X_lab, y_lab = pool.labeled_arrays(include_source=include_source)
    centroids = compute_centroids(model, X_lab, y_lab)
    l_scores = info_scores_labeled(model, X_lab, y_lab)
    l_obs = observation_labels(model, X_lab, y_lab, cfg.tau)
    u_ids, u_X = pool.unlabeled_arrays()
    u_scores, u_sim = info_scores_unlabeled(model, centroids, u_X, cfg.resolved_k())
    trainset = GmmTrainSet(l_scores, l_obs, u_scores, alpha=cfg.alpha_override)
    fit = run_em(trainset)
    return centroids, fit, u_ids, u_X, u_scores, u_sim


def _select_diana(model, pool, cfg: LoopConfig, b: int) -> _Selection:
    if cfg.sfda is not None:
        _, y_t = pool.labeled_arrays(include_source=False)
        if len(np.unique(y_t)) < pool.C:
            u_ids, u_X = pool.unlabeled_arrays()
            res = sfda_bootstrap(model, u_ids, u_X, cfg.sfda, b, cfg.resolved_k())
            return _Selection(res.active_ids, None, None, res.centroids, u_ids, u_X)
    centroids, fit, u_ids, u_X, u_scores, u_sim = _score_and_fit(
        model, pool, cfg, include_source=cfg.sfda is None
    )
    ids = select_active_batch(u_ids, u_scores, fit.params, b)
    batch_scores = u_scores[_rows_of(u_ids, ids)]
    ui_post = component_posteriors(batch_scores, fit.params)[:, Category.UI - 1]
    return _Selection(ids, ui_post.tolist(), fit, centroids, u_ids, u_X, u_scores, u_sim)


def _select_baseline(model, pool, cfg: LoopConfig, b: int, round_index: int) -> _Selection:
    u_ids, u_X = pool.unlabeled_arrays()
    if cfg.strategy is Strategy.RANDOM:
        rng = np.random.default_rng([cfg.seed, 3, round_index])
        take = rng.choice(u_ids, size=min(b, u_ids.size), replace=False)
        return _Selection([int(i) for i in take], None, None, None, u_ids, u_X)
    logp = model.log_proba(u_X)
    if cfg.strategy is Strategy.ENTROPY:
        key = np.sum(np.exp(logp) * logp, axis=1)  # ascending = max entropy first
    else:  # least confidence: smallest max-probability first
        key = logp.max(axis=1)
    order = np.lexsort((u_ids, key))
    take = u_ids[order[: min(b, u_ids.size)]]
    return _Selection([int(i) for i in take], None, None, None, u_ids, u_X)


# -- the loop ----------------------------------------------------------------


def run_active_loop(
    cfg: LoopConfig, pool: DataPool, on_round_end=None
) -> list[RoundReport]:
    """Run pretraining plus R selection/training rounds, annotating the pool
    in place. Returns one report per round (a single evaluation-only report
    when budget is 0). on_round_end, when given, is called with
    (model, pool, report) after every round.

    Randomness is derived from the config seeds so a run is reproducible:
    model init uses [seed, 0], pretraining uses [train.seed, 1], round r
    training uses [train.seed, 2, r], and random selection in round r uses
    [seed, 3, r].
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
    pretrain_source(
        model, pool, cfg.train, cfg.pretrain_epochs, np.random.default_rng([cfg.train.seed, 1])
    )
    if cfg.budget == 0:
        return [
            RoundReport(0, evaluate(model, pool), {}, None, [], None, None)
        ]

    reports = []
    use_source = cfg.sfda is None
    for r in range(1, cfg.rounds + 1):
        if cfg.strategy is Strategy.DIANA:
            sel = _select_diana(model, pool, cfg, cfg.per_round)
        else:
            sel = _select_baseline(model, pool, cfg, cfg.per_round, r)

        err_rate = None
        if sel.ids:
            picked = sel.pool_X[_rows_of(sel.pool_ids, sel.ids)]
            truth = pool.evaluation_labels(sel.ids)
            err_rate = float(np.mean(model.predict(picked) != truth))

        # annotation order is canonical so downstream training does not
        # depend on how the strategy happened to order its picks
        pool.annotate_batch(sorted(sel.ids))

        partition = None
        cc = uc = None
        if sel.gmm is not None:
            # annotation keeps the pool order and the model has not moved
            # since scoring, so the remaining pool is the scored one minus
            # the batch, scores and similarity labels included
            kept = ~np.isin(sel.pool_ids, sel.ids)
            rem_X, rem_sim = sel.pool_X[kept], sel.pool_sim[kept]
            partition = partition_unlabeled(
                sel.pool_ids[kept], rem_X, model, sel.centroids, sel.gmm.params,
                cfg.resolved_k(), scores=sel.pool_scores[kept],
            )
            cc_mask = partition.cats == Category.CC
            cc = (rem_X[cc_mask], rem_sim[cc_mask])
            uc = rem_X[partition.cats == Category.UC]

        X_l, y_l = pool.labeled_arrays(include_source=use_source)
        train_rng = np.random.default_rng([cfg.train.seed, 2, r])
        _train_epochs(model, X_l, y_l, cc, uc, cfg.train, cfg.train.epochs_per_round, train_rng)

        losses = None
        if sel.gmm is not None:
            losses = combined_loss(
                model,
                X_l,
                y_l,
                cc[0],
                cc[1],
                uc,
                cfg.train.lambda_c,
                cfg.train.lambda_e,
            )

        reports.append(
            RoundReport(
                round_index=r,
                accuracy=evaluate(model, pool),
                partition_sizes=partition.sizes if partition else {},
                gmm=sel.gmm,
                selected_ids=sel.ids,
                selected_posteriors=sel.posteriors,
                selected_error_rate=err_rate,
                losses=losses,
            )
        )
        pool.check_invariants()
        if on_round_end is not None:
            on_round_end(model, pool, reports[-1])
    return reports


def run_baseline(cfg: LoopConfig, pool: DataPool) -> list[RoundReport]:
    """An active loop with a non-diana selection rule and supervised-only
    training (auxiliary loss weights forced to zero)."""
    if cfg.strategy is Strategy.DIANA:
        raise ValueError("run_baseline expects a baseline strategy")
    train = dataclasses.replace(cfg.train, lambda_c=0.0, lambda_e=0.0)
    cfg = dataclasses.replace(cfg, train=train)
    return run_active_loop(cfg, pool)


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
    seeds; baselines run through run_baseline. Returns aggregate rows (one
    per strategy/seed/round)."""
    rows = []
    for seed_i in range(n_seeds):
        data_cfg = dataclasses.replace(shift_cfg, seed=shift_cfg.seed + seed_i)
        for strat in strategies:
            strat = Strategy(strat)
            train = dataclasses.replace(loop_cfg.train, seed=loop_cfg.train.seed + seed_i)
            cfg = dataclasses.replace(
                loop_cfg, strategy=strat, seed=loop_cfg.seed + seed_i, train=train
            )
            run = run_active_loop if strat is Strategy.DIANA else run_baseline
            rows += aggregate_rows(strat, seed_i, run(cfg, generate_shifted_dataset(data_cfg)))
    return rows


def write_aggregate_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_FIELDS)
        writer.writeheader()
        writer.writerows(rows)


def consistency_diagnostic(
    model: Classifier, pool: DataPool, ks, quantiles=(0.25, 0.5, 0.75)
):
    """Consistency rates of low-loss vs high-loss unlabeled subsets.

    Losses use the hidden true labels, so this is a validation diagnostic,
    not part of the adaptation loop. Returns
    {k: {quantile: {"low": rate, "high": rate}}}.
    """
    X_lab, y_lab = pool.labeled_arrays(include_source=True)
    u_ids, u_X = pool.unlabeled_arrays()
    truth = pool.evaluation_labels(u_ids)
    losses = info_scores_labeled(model, u_X, truth)
    centroids = compute_centroids(model, X_lab, y_lab)
    out = {}
    for k in ks:
        per_q = {}
        for q in quantiles:
            low, high = loss_quantile_split(losses, q)
            per_q[q] = {
                "low": consistency_rate(u_X[low], model, centroids, k),
                "high": consistency_rate(u_X[high], model, centroids, k),
            }
        out[k] = per_q
    return out
