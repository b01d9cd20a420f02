"""Informativeness scoring of samples against class centroids.

The score of a sample is the cross-entropy of the model's prediction at a
reference label: the ground-truth class for labeled data, and a
similarity-based label for unlabeled data. The similarity-based label is the
class whose centroid shares the largest top-k feature-index overlap (IoU)
with the sample, ranking feature entries by absolute magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .classifier import Classifier, _checked_labels, _log_proba_at

PROB_FLOOR = 1e-12
LOG_PROB_FLOOR = float(np.log(PROB_FLOOR))


class Category(IntEnum):
    """The four target-data categories, doubling as mixture-component ids."""

    CC = 1  # confident-consistent
    UC = 2  # uncertain-consistent
    UI = 3  # uncertain-inconsistent
    CI = 4  # confident-inconsistent


@dataclass
class CentroidSet:
    """Per-class mean feature vectors over labeled data."""

    A: np.ndarray  # (C, d_feat)
    counts: np.ndarray  # (C,)

    @property
    def C(self) -> int:
        return self.A.shape[0]


def centroids_from_features(F: np.ndarray, y: np.ndarray, C: int) -> CentroidSet:
    """Mean feature vector per class. Every class must be represented, and
    every label must be a whole number in [0, C)."""
    F = np.atleast_2d(F)
    y = _checked_labels(y, C)
    counts = np.bincount(y, minlength=C)
    missing = np.flatnonzero(counts == 0)
    if missing.size:
        raise ValueError(f"no labeled samples for classes {missing.tolist()}")
    A = np.zeros((C, F.shape[1]))
    np.add.at(A, y, F)
    A /= counts[:, None]
    return CentroidSet(A=A, counts=counts)


def compute_centroids(model: Classifier, X: np.ndarray, y: np.ndarray) -> CentroidSet:
    """Class centroids in the model's current feature space.

    Recomputed from scratch at every sampling step: a stale centroid would
    mix model drift into the distribution-change signal.
    """
    return centroids_from_features(model.features(X), y, model.C)


# -- top-k index overlap -----------------------------------------------------


def _topk_mask(F: np.ndarray, k: int) -> np.ndarray:
    """Each row's top-k set as a 0/1 float mask: the k entries largest by
    magnitude; among entries equal to the k-th largest, the smaller index
    wins. 1 <= k <= d."""
    mag = np.abs(F)
    d = mag.shape[1]
    ranked = np.sort(mag, axis=1)
    kth = ranked[:, d - k, None]
    mask = np.greater_equal(mag, kth, out=mag)  # in place, as floats
    if k == d:
        return mask
    # a row has more than k members when the magnitude ranked just below
    # its k-th equals it; only those rows are cut to k, by index
    over = np.flatnonzero(ranked[:, d - k - 1] == kth[:, 0])
    if over.size:
        rows, cut = np.abs(F[over]), kth[over]
        above, tied = rows > cut, rows == cut
        room = k - np.count_nonzero(above, axis=1)
        mask[over] = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
    return mask


def similarity_labels(
    F: np.ndarray, centroids: CentroidSet, k: int
) -> np.ndarray:
    """Similarity-based label for each feature row: the class whose centroid
    top-k index set has maximal IoU with the row's top-k index set. Ties go
    to the smallest class index."""
    F = np.atleast_2d(F)
    if k < 1:
        raise ValueError(f"k={k} must be at least 1")
    d = F.shape[1]
    if k > d:
        raise ValueError(f"k={k} exceeds feature dimension {d}")
    # intersection counts, exact in float64; both sets have k members, so
    # IoU = i / (2k - i) rises with the count i
    inter = _topk_mask(centroids.A, k) @ _topk_mask(F, k).T
    # the first largest count: only a strictly larger one moves the label
    labels = np.zeros(F.shape[0], dtype=np.intp)
    best = inter[0]  # the running maximum, over class 0's counts
    for c in range(1, centroids.C):
        better = inter[c] > best
        labels[better] = c
        np.maximum(best, inter[c], out=best)
    return labels


# -- informativeness scores ----------------------------------------------


def _scores_at(logp: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """-log P at each row's label, the probability floored at 1e-12 so that
    saturated predictions cannot produce infinities."""
    return -np.maximum(_log_proba_at(logp, labels), LOG_PROB_FLOOR)


def info_scores_unlabeled(
    model: Classifier, centroids: CentroidSet, X: np.ndarray, k: int, pred=None
):
    """Scores and similarity-based labels for a batch of unlabeled samples:
    score = -log P at the similarity-based label (floored, see _scores_at).

    The rows go through the model one row block at a time
    (Classifier.feature_blocks); each block's features give its labels and
    scores and are then dropped. pred, an (n,) intp array when given,
    receives each row's predicted class from the same head block
    (Classifier.head_log_proba).
    """
    X = np.atleast_2d(X)
    scores = np.empty(X.shape[0])
    labels = np.empty(X.shape[0], dtype=np.intp)
    for rows, F in model.feature_blocks(X):
        labels[rows] = similarity_labels(F, centroids, k)
        logp = model.head_log_proba(F, None if pred is None else pred[rows])
        scores[rows] = _scores_at(logp, labels[rows])
    return scores, labels


def info_scores_labeled(model: Classifier, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    y = _checked_labels(y, model.C)
    return _scores_at(model.log_proba(X), y)


# -- observation labels ----------------------------------------------------


def observation_labels(
    model: Classifier, X: np.ndarray, y: np.ndarray, tau: float
) -> np.ndarray:
    """Hard category per labeled sample from confidence and prediction
    agreement:

      CC if max P >= tau and y == argmax P      UC if max P < tau and y == argmax P
      UI if max P < tau and y != argmax P       CI if max P >= tau and y != argmax P

    Exactly one branch holds for any sample; the threshold comparison is
    inclusive.
    """
    y = _checked_labels(y, model.C)
    P = model.predict_proba(np.atleast_2d(X))
    pred = np.argmax(P, axis=1)
    confident = P.max(axis=1) >= tau
    consistent = pred == y
    q = np.where(
        consistent,
        np.where(confident, Category.CC, Category.UC),
        np.where(confident, Category.CI, Category.UI),
    )
    return q.astype(int)
