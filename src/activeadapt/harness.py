"""End-to-end active adaptation loops against the simulated oracle.

One run: pretrain on source, then R rounds of
score -> fit mixture -> select -> partition -> annotate -> train.
Baseline strategies (random / entropy / least-confidence) run the same loop
with another selection rule. They fit no mixture, so they build no
consistency or entropy pools and train with the supervised loss only, which
isolates acquisition quality in comparisons.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .classifier import (
    Classifier,
    EpochSteps,
    LossBreakdown,
    TrainConfig,
    augment,
    backward_and_step,
    combined_loss,
    draw_perturbation,
)
from .datapool import DataPool, generate_shifted_dataset
from .gmm import EmFit, GmmTrainSet, component_posteriors, run_em, sketched
from .numerics import check_fields
from .sampler import (
    SfdaConfig,
    partition_unlabeled,
    select_active_batch,
    sfda_bootstrap,
    smallest_first,
    loss_quantile_split,
)
from .scoring import (
    Category,
    compute_centroids,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_labels,
    scores_at,
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
    defaults to d_feat // 8. The count and seed fields must be integers.
    loss_report (a bool, off by default) has every round with a mixture fit
    report its losses (RoundReport.losses), at the cost of one more pass
    over the labeled set and the round's CC and UC pools.
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
    loss_report: bool = False

    def __post_init__(self):
        if isinstance(self.strategy, str):
            self.strategy = Strategy(self.strategy)
        if not isinstance(self.loss_report, bool):
            raise ValueError(f"loss_report={self.loss_report!r} must be true or false")
        check_fields(self, finite=("tau",), integers={
            "budget": 0, "rounds": 1, "k": 1, "d_feat": 1, "pretrain_epochs": 0, "seed": 0,
        })
        if self.budget > 0 and self.budget % self.rounds != 0:
            raise ValueError(
                f"rounds ({self.rounds}) must divide budget ({self.budget})"
            )
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")
        k = self.resolved_k()
        if k > self.d_feat:
            raise ValueError(f"k={k} must lie in [1, d_feat={self.d_feat}]")
        if self.sfda is not None and self.strategy is not Strategy.DIANA:
            raise ValueError("the source-free variant only applies to the diana strategy")

    @property
    def per_round(self) -> int:
        return self.budget // self.rounds

    def resolved_k(self) -> int:
        return self.k if self.k is not None else max(1, self.d_feat // 8)

    def check_budget(self, n_unlabeled: int) -> None:
        """Refuse a budget larger than an unlabeled pool of n_unlabeled samples."""
        if self.budget > n_unlabeled:
            raise ValueError(f"budget {self.budget} exceeds unlabeled pool size {n_unlabeled}")


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
    one dropout draw. The steps' layout is made once (EpochSteps), each
    epoch's rows are stacked and checked once (EpochSteps.fill), and a step
    only slices.
    """
    use_cc = cc is not None and len(cc[1]) > 0 and cfg.lambda_c != 0.0
    use_uc = uc is not None and uc.shape[0] > 0 and cfg.lambda_e != 0.0
    cc_part = uc_part = None
    rng = np.random.default_rng(key)
    n, size = len(y), cfg.batch_size
    cc_take = min(size, len(cc[1])) if use_cc else 0
    uc_take = min(size, uc.shape[0]) if use_uc else 0
    epoch = EpochSteps(model, n, cc_take, uc_take, cfg)
    steps = epoch.steps
    if use_cc:
        X_cc, y_cc = cc
        cc_rng = np.random.default_rng([*key, CC_WINDOWS])
        perturb_rng = np.random.default_rng([*key, PERTURBATION])
    if use_uc:
        uc_rng = np.random.default_rng([*key, UC_WINDOWS])
    for _ in range(epochs):
        perm = rng.permutation(n)
        if use_cc:
            pick = _windows(cc_rng, len(y_cc), size, steps)
            cc_rows = X_cc.take(pick, axis=0)
            cc_rows = augment(cc_rows, cfg, *draw_perturbation(perturb_rng, cc_rows.shape, cfg))
            cc_part = (cc_rows, y_cc.take(pick))
        if use_uc:
            uc_part = uc.take(_windows(uc_rng, uc.shape[0], size, steps), axis=0)
        epoch.fill(X.take(perm, axis=0), y.take(perm), cc_part, uc_part)
        for step in range(steps):
            backward_and_step(model, epoch, step)
    return model


def pretrain_source(
    model: Classifier, pool: DataPool, cfg: TrainConfig, epochs: int, rng=None
) -> Classifier:
    """Supervised training on the source pool only, whose rows cover every
    class (a DataPool invariant)."""
    X, y = pool.source_arrays()
    key = rng if rng is not None else [cfg.seed, 1]
    return _train_epochs(model, X, y, None, None, cfg, epochs, key)


def start_run(cfg: LoopConfig, pool: DataPool) -> Classifier:
    """The model a run starts from: initialised from [seed, 0] and
    pretrained on the source pool from [train.seed, 1]."""
    model = Classifier.initialize(
        pool.d_in, cfg.d_feat, pool.C, np.random.default_rng([cfg.seed, 0])
    )
    return pretrain_source(model, pool, cfg.train, cfg.pretrain_epochs)


def evaluate(model: Classifier, pool: DataPool, unlabeled_pred=None) -> float:
    """Accuracy over the full target domain, annotated samples included: the
    annotated rows are predicted, then the unlabeled rows (pool.unlabeled_arrays)
    in their own row blocks, unless unlabeled_pred holds model.predict's
    classes of them from the pass that scored them, which is the same argmax."""
    X, truth = pool.evaluation_arrays()
    if truth.size == 0:
        raise ValueError("no target samples to evaluate")
    n_t = pool.sizes[1]  # the T rows come first, then U in id order
    if unlabeled_pred is not None and np.shape(unlabeled_pred) != (truth.size - n_t,):
        raise ValueError(f"unlabeled_pred has shape {np.shape(unlabeled_pred)}, not one "
                         f"class for each of the {truth.size - n_t} unlabeled rows")
    pred = model.predict(X[:n_t])
    if unlabeled_pred is None:
        unlabeled_pred = model.predict(X[n_t:])
    return float(np.mean(np.concatenate([pred, unlabeled_pred]) == truth))


# -- per-round selection -----------------------------------------------------


@dataclass
class _Selection:
    """A round's batch and, after a mixture fit, the rest of the pool's
    partition sizes and the training pools it feeds: copies of remaining
    rows, which end with the round that selected them."""

    ids: list[int]
    posteriors: list[float] | None = None
    gmm: EmFit | None = None
    sizes: dict[str, int] = field(default_factory=dict)
    cc: tuple[np.ndarray, np.ndarray] | None = None  # rows and similarity labels
    uc: np.ndarray | None = None


@dataclass
class _Scored:
    """A scoring pass over the unlabeled pool: the ids it scored (in id
    order), the theta it scored with, and the scores and similarity labels
    a diana round selects from. Per-row vectors only, so carrying one from
    a round's end into the next costs three values a row."""

    ids: np.ndarray
    theta: np.ndarray
    scores: np.ndarray
    sim: np.ndarray

    def holds(self, model, u_ids) -> bool:
        """Whether the pass still describes this model and unlabeled pool."""
        return np.array_equal(self.theta, model.theta) and np.array_equal(self.ids, u_ids)


def _score_pool(model, cfg: LoopConfig, X_lab, y_lab, u_ids, u_X):
    """Centroids from the labeled rows, then one pass over the unlabeled rows
    that gives their scores, similarity labels and predicted classes.
    Returns (_Scored, predictions)."""
    centroids = compute_centroids(model, X_lab, y_lab)
    pred = np.empty(u_ids.size, dtype=np.intp)
    scores, sim = info_scores_unlabeled(model, centroids, u_X, cfg.resolved_k(), pred)
    return _Scored(u_ids, model.theta.copy(), scores, sim), pred


def _labeled_set(pool, cfg: LoopConfig):
    """A round's labeled rows: the source rows unless the run is
    source-free, then the annotated rows. Returns (X, y, covered), covered
    being whether y holds every class, as a mixture fit needs. With source
    rows it always does (a pool invariant), so only a source-free diana
    round can bootstrap."""
    X, y = pool.labeled_arrays(include_source=cfg.sfda is None)
    return X, y, len(np.unique(y)) == pool.C


def _select_diana(model, pool, cfg: LoopConfig, b: int, scored=None) -> _Selection:
    """Score, fit, select the top b and partition the rest of the pool. The
    scores are scored's when it still holds for this model and pool (the
    previous round's end-of-round pass), else a fresh _score_pool. A large
    pool's mixture is fitted on a sketch of its scores (gmm.sketched);
    selection and the partition score every row. The partition runs before
    annotation, on the scores the batch was selected from: it reads only
    the remaining pool's scores, not its rows or the centroids. The CC/UC
    rows are taken from the whole pool's rows by index, so the round holds
    one copy of the unlabeled rows."""
    u_ids, u_X = pool.unlabeled_arrays()
    k = cfg.resolved_k()
    X_lab, y_lab, covered = _labeled_set(pool, cfg)
    if not covered:
        return _Selection(sfda_bootstrap(model, u_ids, u_X, cfg.sfda, b, k).active_ids)
    if scored is None or not scored.holds(model, u_ids):
        scored, _ = _score_pool(model, cfg, X_lab, y_lab, u_ids, u_X)
    scores, sim = scored.scores, scored.sim
    l_scores = info_scores_labeled(model, X_lab, y_lab)
    l_obs = observation_labels(model, X_lab, y_lab, cfg.tau)
    fit = run_em(sketched(GmmTrainSet(l_scores, l_obs, scores)))
    ids = select_active_batch(u_ids, scores, fit.params, b)

    rows = np.searchsorted(u_ids, ids)  # the pool keeps U in id order
    ui_post = component_posteriors(scores[rows], fit.params)[:, Category.UI - 1]
    rest = np.delete(np.arange(u_ids.size), rows)
    part = partition_unlabeled(
        u_ids[rest], None, model, None, fit.params, k, scores=scores[rest]
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
    return _Selection([int(i) for i in u_ids[smallest_first(key, u_ids, b)]])


# -- the loop ----------------------------------------------------------------


def _round(cfg: LoopConfig, model, pool, r: int, scored=None):
    """Round r of a run: select, annotate, train and report. The selection,
    with its CC/UC pools, ends with the round. When round r + 1 will fit a
    mixture (a diana round whose labeled set covers every class), one pass
    over the unlabeled rows gives both this round's predictions of them and
    round r + 1's scores. Returns (report, that pass's _Scored or None);
    scored is the previous round's."""
    if cfg.strategy is Strategy.DIANA:
        sel = _select_diana(model, pool, cfg, cfg.per_round, scored)
    else:
        sel = _select_baseline(model, pool, cfg, cfg.per_round, r)

    # annotation order is canonical so downstream training does not
    # depend on how the strategy happened to order its picks
    pool.annotate_batch(sorted(sel.ids))
    X_l, y_l, covered = _labeled_set(pool, cfg)
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
    if cfg.loss_report and sel.gmm is not None:
        losses = combined_loss(
            model, X_l, y_l, *sel.cc, sel.uc, cfg.train.lambda_c, cfg.train.lambda_e
        )
    sel.cc = sel.uc = None  # the training pools end before the pass below
    nxt = pred = None
    if cfg.strategy is Strategy.DIANA and r < cfg.rounds and covered:
        nxt, pred = _score_pool(model, cfg, X_l, y_l, *pool.unlabeled_arrays())
    report = RoundReport(
        r, evaluate(model, pool, pred), sel.sizes, sel.gmm, sel.ids, sel.posteriors,
        err_rate, losses,
    )
    return report, nxt


def _run_rounds(cfg: LoopConfig, model, pool, on_round_end=None) -> list[RoundReport]:
    """The rounds of a run from a started model (start_run), annotating the
    pool in place: one report per round, or a single evaluation-only report
    (round 0) when budget is 0. on_round_end, when given, is called with
    (model, pool, report) after every report. Each round hands the next one
    its end-of-round scoring pass, which the next round uses only while the
    model and the unlabeled pool are as the pass left them."""
    cfg.check_budget(pool.sizes[2])
    pool.check_invariants()
    reports, scored = [], None
    for r in range(1, cfg.rounds + 1) if cfg.budget else [0]:
        if r == 0:
            report = RoundReport(0, evaluate(model, pool), {}, None, [], None, None)
        else:
            report, scored = _round(cfg, model, pool, r, scored)
        reports.append(report)
        pool.check_invariants()
        if on_round_end is not None:
            on_round_end(model, pool, report)
    return reports


def run_active_loop(
    cfg: LoopConfig, pool: DataPool, on_round_end=None
) -> list[RoundReport]:
    """Run pretraining plus R selection/training rounds, annotating the pool
    in place. Returns one report per round (a single evaluation-only report
    when budget is 0). on_round_end, when given, is called with
    (model, pool, report) after every report, the evaluation-only one too.

    Every strategy runs this loop. Only a diana round with a mixture fit
    builds the confident-consistent and uncertain-consistent pools, so
    baseline and source-free bootstrap rounds train on the supervised loss
    alone, whatever lambda_c and lambda_e are. With cfg.loss_report on, such
    a round also reports combined_loss over its labeled set and its clean
    CC and UC rows after training (RoundReport.losses); it is off by default,
    and then no report carries losses.

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
    return _run_rounds(cfg, start_run(cfg, pool), pool, on_round_end)


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


def offset_seeds(shift_cfg, loop_cfg: LoopConfig, i: int):
    """Seed i of a multi-seed run: the data, loop and training configs with
    each of their seeds offset by i. Returns (shift_cfg, loop_cfg)."""
    train = dataclasses.replace(loop_cfg.train, seed=loop_cfg.train.seed + i)
    return (
        dataclasses.replace(shift_cfg, seed=shift_cfg.seed + i),
        dataclasses.replace(loop_cfg, seed=loop_cfg.seed + i, train=train),
    )


def seed_runs(shift_cfg, loop_cfg: LoopConfig, n_seeds: int):
    """Start each of n_seeds paired seeds once: seed i yields (i, cfg, pool, model),
    configs offset by i (offset_seeds) and the model start_run pretrained on the pool."""
    for i in range(n_seeds):
        data_cfg, cfg = offset_seeds(shift_cfg, loop_cfg, i)
        pool = generate_shifted_dataset(data_cfg)
        yield i, cfg, pool, start_run(cfg, pool)


def compare_strategies(shift_cfg, loop_cfg: LoopConfig, strategies, n_seeds: int):
    """Run each strategy over n_seeds paired seeds (seed_runs): one aggregate row per
    strategy/seed/round. Every strategy's config is built before the first seed
    starts, and each plays its rounds on its own copy of the seed's model and pool."""
    cfgs = [dataclasses.replace(loop_cfg, strategy=s) for s in map(Strategy, strategies)]
    rows = []
    for i, seeded, pool, model in seed_runs(shift_cfg, loop_cfg, n_seeds):
        for base in cfgs:
            cfg = dataclasses.replace(seeded, strategy=base.strategy)
            reports = _run_rounds(cfg, copy.copy(model), copy.deepcopy(pool))
            rows += aggregate_rows(cfg.strategy, i, reports)
    return rows


def write_aggregate_csv(path, rows) -> str:
    """Write rows (AGGREGATE_FIELDS) to path as CSV, a None as an empty
    field and every line ended by CRLF; returns the text written."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=AGGREGATE_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue(), newline="")
    return buf.getvalue()


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
    pred = np.empty(u_ids.size, dtype=np.intp)
    for rows, F in model.feature_blocks(u_X):
        logp = model.head_log_proba(F, pred[rows])
        losses[rows] = scores_at(logp, truth[rows])
        for k, flags in consistent.items():
            flags[rows] = pred[rows] == similarity_labels(F, centroids, k)
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
