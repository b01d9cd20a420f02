"""Active-batch selection and unlabeled-pool partitioning.

Selection ranks the whole unlabeled pool by the posterior of the
uncertain-inconsistent mixture component and takes the top b. Before
annotation, the pool minus that batch is partitioned by posterior argmax:
confident-consistent samples feed the consistency loss,
uncertain-consistent samples feed the entropy loss, confident-inconsistent
samples are withheld, and residual uncertain-inconsistent samples wait for
the next round.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .classifier import Classifier
from .gmm import GmmParams, _column_blocks, component_posteriors
from .scoring import (
    Category,
    CentroidSet,
    centroids_from_features,
    info_scores_unlabeled,
    similarity_labels,
)


@dataclass
class PartitionAssignment:
    """Category of each remaining unlabeled sample: cats[i] is the Category
    value (1..4) of sample ids[i]."""

    ids: np.ndarray
    cats: np.ndarray

    @cached_property
    def category(self) -> Mapping[int, Category]:
        """Read-only id -> Category view."""
        return MappingProxyType(
            {int(i): Category(int(c)) for i, c in zip(self.ids, self.cats)}
        )

    @property
    def sizes(self) -> dict[str, int]:
        counts = np.bincount(self.cats, minlength=len(Category) + 1)
        return {c.name: int(counts[c]) for c in Category}


# The most relaxations a bootstrap threshold may take to reach the end of its
# schedule (t_v at or below 0, t_c at or above 1); SfdaConfig rejects more.
MAX_RELAXATIONS = 10_000


def _relaxations(t: float, step: float, done) -> int:
    """How many times sfda_bootstrap's t += step runs before done(t), counted
    up to MAX_RELAXATIONS + 1. A step below half the float spacing at t
    leaves t where it is, so such a schedule runs out the count."""
    n = 0
    while not done(t) and n <= MAX_RELAXATIONS:
        t, n = t + step, n + 1
    return n


@dataclass
class SfdaConfig:
    """Adaptive thresholds for the source-free bootstrap. t_c_init defaults
    to 1/C + 1e-5 at call time when left unset. Every value must be finite,
    and each schedule must end within MAX_RELAXATIONS relaxations."""

    t_v_init: float = 0.95
    t_v_step: float = 0.1
    t_c_init: float | None = None
    t_c_step: float = 0.1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.t_v_step <= 0 or self.t_c_step <= 0:
            raise ValueError("threshold steps must be positive")
        # an unset t_c_init starts at 1/C + 1e-5; counting from 0 finds no fewer steps
        t_c = 0.0 if self.t_c_init is None else self.t_c_init
        for name, n in (
            ("t_v_step", _relaxations(self.t_v_init, -self.t_v_step, lambda t: t <= 0)),
            ("t_c_step", _relaxations(t_c, self.t_c_step, lambda t: t >= 1.0)),
        ):
            if n > MAX_RELAXATIONS:
                raise ValueError(
                    f"{name}={getattr(self, name)} needs more than {MAX_RELAXATIONS}"
                    " relaxations to take its threshold to the end of its schedule"
                )


def select_active_batch(ids, scores, params: GmmParams, b: int) -> list[int]:
    """The min(b, |U|) sample ids with the highest uncertain-inconsistent
    component posterior, in descending order; ties go to the smaller id."""
    if b < 0:
        raise ValueError("batch size must be nonnegative")
    ids = np.asarray(ids, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if ids.size == 0 or b == 0:
        return []
    neg = -component_posteriors(scores, params)[:, Category.UI - 1]
    b = min(b, ids.size)
    # only rows at or above the b-th largest posterior can make the batch, so
    # only they are ranked; rows with a NaN posterior are kept, as the full
    # lexsort would rank them last
    rows = np.flatnonzero(~(neg > np.partition(neg, b - 1)[b - 1]))
    order = rows[np.lexsort((ids[rows], neg[rows]))]
    return [int(i) for i in ids[order[:b]]]


def partition_unlabeled(
    ids,
    X,
    model: Classifier,
    centroids: CentroidSet,
    params: GmmParams,
    k: int,
    scores=None,
) -> PartitionAssignment:
    """Assign every remaining unlabeled sample to the argmax component of
    its score posterior. The round's selected batch must already be out of
    (ids, X): the partition runs before that batch is annotated.

    scores, when given, are the informativeness scores of the rows of X
    under this model and these centroids, and save scoring them again; X is
    then not read and may be None. Given or computed, there must be one
    score per id (ValueError).

    The posteriors are computed one EM column block at a time, and only the
    categories are kept: the first largest posterior of each row, so a NaN
    row gets the first component, as a whole-matrix argmax would give it."""
    ids = np.asarray(ids, dtype=int)
    if scores is None:
        scores, _ = info_scores_unlabeled(model, centroids, X, k)
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size != ids.size:
        raise ValueError(f"{scores.size} scores for {ids.size} ids: need one score per id")
    cats = np.empty(ids.size, dtype=np.intp)
    for cols in _column_blocks(ids.size):
        cats[cols] = np.argmax(component_posteriors(scores[cols], params), axis=1)
    cats += 1
    return PartitionAssignment(ids, cats)


# -- source-free bootstrap ---------------------------------------------------


@dataclass
class SfdaResult:
    pseudo_labeled: list[tuple[int, int]]  # (id, predicted label)
    active_ids: list[int]
    centroids: CentroidSet
    t_v: float
    t_c: float


def sfda_bootstrap(
    model: Classifier, ids, X, cfg: SfdaConfig, b: int, k: int
) -> SfdaResult:
    """Bootstrap labeled-data proxies when no labeled samples exist.

    High-confidence predictions (max P >= t_v) form the pseudo-labeled set;
    t_v starts at its configured value and relaxes by t_v_step until every
    class is covered, or fails hard if the pool never covers a class.
    Active candidates are the samples whose prediction disagrees with their
    similarity-based label and whose confidence is at most t_c; t_c starts
    at 1/C + 1e-5 and grows by t_c_step until at least b candidates qualify
    (or the whole inconsistent set is in). When more than b qualify, the
    least confident are taken first.
    """
    ids = np.asarray(ids, dtype=int)
    X = np.atleast_2d(X)
    if ids.size == 0:
        raise ValueError("bootstrap needs a non-empty unlabeled pool")
    C = model.C
    F = model.features(X)
    P = np.exp(model._head_log_proba(F))
    pred = np.argmax(P, axis=1)
    maxp = P.max(axis=1)

    t_v = cfg.t_v_init
    while True:
        proxy = maxp >= t_v
        if len(np.unique(pred[proxy])) == C:
            break
        if t_v <= 0:
            raise ValueError(
                "predictions never cover every class; cannot bootstrap a proxy labeled set"
            )
        t_v -= cfg.t_v_step

    centroids = centroids_from_features(F[proxy], pred[proxy], C)
    sim = similarity_labels(F, centroids, k)
    inconsistent = pred != sim

    t_c = cfg.t_c_init if cfg.t_c_init is not None else 1.0 / C + 1e-5
    while True:
        candidates = inconsistent & (maxp <= t_c)
        if candidates.sum() >= b or t_c >= 1.0:
            break
        t_c += cfg.t_c_step

    cand_idx = np.flatnonzero(candidates)
    order = np.lexsort((ids[cand_idx], maxp[cand_idx]))
    take = cand_idx[order[: min(b, cand_idx.size)]]

    return SfdaResult(
        pseudo_labeled=[(int(i), int(p)) for i, p in zip(ids[proxy], pred[proxy])],
        active_ids=[int(i) for i in ids[take]],
        centroids=centroids,
        t_v=t_v,
        t_c=t_c,
    )


# -- consistency diagnostic ----------------------------------------------


def loss_quantile_split(losses, quantile: float):
    """Boolean masks (low, high) splitting samples at a loss quantile:
    low has loss <= the quantile point, high has loss above it."""
    losses = np.asarray(losses, dtype=float)
    if losses.size == 0:
        raise ValueError("cannot split an empty loss vector")
    if not 0.0 < quantile < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    cut = np.quantile(losses, quantile)
    low = losses <= cut
    return low, ~low
