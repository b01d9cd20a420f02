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

from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import islice
from types import MappingProxyType

import numpy as np

from .classifier import Classifier
from .gmm import GmmParams, component_posteriors
from .numerics import blocks, check_fields
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


# The most scores partition_unlabeled takes at a time: a block's (4, 16384)
# posteriors, 512 KB, stay in L2 cache across the passes made over them.
PARTITION_BLOCK = 16384

# The most relaxations a bootstrap threshold may take to reach the end of its
# schedule (t_v at or below 0, t_c at or above 1); SfdaConfig rejects more.
MAX_RELAXATIONS = 10_000


def _schedule(t: float, step: float):
    """A bootstrap threshold's values: t, then t += step, up to the first at
    the end of its schedule, at or below 0 for a falling step (t_v) and at
    or above 1 for a rising one (t_c). A step below half the float spacing
    at t leaves t where it is, so such a schedule never ends."""
    while True:
        yield t
        if t <= 0 if step < 0 else t >= 1.0:
            return
        t += step


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
        check_fields(self, finite=[f.name for f in fields(self)])
        if self.t_v_step <= 0 or self.t_c_step <= 0:
            raise ValueError("threshold steps must be positive")
        # an unset t_c_init starts at 1/C + 1e-5; counting from 0 finds no fewer steps
        for name, schedule in (
            ("t_v_step", _schedule(self.t_v_init, -self.t_v_step)),
            ("t_c_step", _schedule(self.t_c_init or 0.0, self.t_c_step)),
        ):
            if len(list(islice(schedule, MAX_RELAXATIONS + 2))) > MAX_RELAXATIONS + 1:
                raise ValueError(
                    f"{name}={getattr(self, name)} needs more than {MAX_RELAXATIONS}"
                    " relaxations to take its threshold to the end of its schedule"
                )


def smallest_first(key, ids, b: int) -> np.ndarray:
    """Positions of the min(b, n) smallest keys, smallest first, ties to the
    smaller id and NaN keys last, as a sort of every row by key, then id,
    ranks them. Only the rows at or below the b-th smallest key are sorted.
    ValueError unless there is exactly one key per id."""
    if b < 0:
        raise ValueError("batch size must be nonnegative")
    key, ids = np.asarray(key, dtype=float), np.asarray(ids)
    if key.size != ids.size:
        raise ValueError(f"{key.size} keys for {ids.size} ids")
    b = min(b, key.size)
    if b == 0:
        return np.zeros(0, dtype=np.intp)
    # a NaN b-th key keeps every row, and NaN rows are always kept
    rows = np.flatnonzero(~(key > np.partition(key, b - 1)[b - 1]))
    return rows[np.lexsort((ids[rows], key[rows]))][:b]


def select_active_batch(ids, scores, params: GmmParams, b: int) -> list[int]:
    """The min(b, |U|) sample ids with the highest uncertain-inconsistent
    component posterior, in descending order; ties go to the smaller id."""
    ids = np.asarray(ids, dtype=int)
    neg = -component_posteriors(np.asarray(scores, dtype=float), params)[:, Category.UI - 1]
    return [int(i) for i in ids[smallest_first(neg, ids, b)]]


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
    under this model and these centroids, and save scoring them again; X,
    model and centroids are then not read and may be None. Given or
    computed, there must be one score per id (ValueError).

    The posteriors are computed in blocks of at most PARTITION_BLOCK scores,
    and only the categories are kept: the first largest posterior of each row,
    so a NaN row gets the first component, as a whole-matrix argmax would."""
    ids = np.asarray(ids, dtype=int)
    if scores is None:
        scores, _ = info_scores_unlabeled(model, centroids, X, k)
    scores = np.asarray(scores, dtype=float).ravel()
    if scores.size != ids.size:
        raise ValueError(f"{scores.size} scores for {ids.size} ids: need one score per id")
    cats = np.empty(ids.size, dtype=np.intp)
    for cols in blocks(ids.size, PARTITION_BLOCK):
        cats[cols] = np.argmax(component_posteriors(scores[cols], params), axis=1)
    cats += 1
    return PartitionAssignment(ids, cats)


# -- source-free bootstrap ---------------------------------------------------


@dataclass
class SfdaResult:
    pseudo_labeled: list[tuple[int, int]]  # (id, predicted label)
    active_ids: list[int]
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
    P = model.predict_proba(X)
    pred = np.argmax(P, axis=1)
    maxp = P.max(axis=1)

    for t_v in _schedule(cfg.t_v_init, -cfg.t_v_step):
        proxy = maxp >= t_v
        if len(np.unique(pred[proxy])) == C:
            break
    else:
        raise ValueError(
            "predictions never cover every class; cannot bootstrap a proxy labeled set"
        )

    centroids = centroids_from_features(model.features(X[proxy]), pred[proxy], C)
    inconsistent = np.empty(pred.shape, dtype=bool)
    for rows, F in model.feature_blocks(X):
        inconsistent[rows] = pred[rows] != similarity_labels(F, centroids, k)

    t_c = cfg.t_c_init if cfg.t_c_init is not None else 1.0 / C + 1e-5
    for t_c in _schedule(t_c, cfg.t_c_step):
        candidates = np.flatnonzero(inconsistent & (maxp <= t_c))
        if candidates.size >= b:
            break
    take = candidates[smallest_first(maxp[candidates], ids[candidates], b)]

    return SfdaResult(
        pseudo_labeled=[(int(i), int(p)) for i, p in zip(ids[proxy], pred[proxy])],
        active_ids=[int(i) for i in ids[take]],
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
