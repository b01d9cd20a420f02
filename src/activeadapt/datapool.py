"""Data pools for pool-based active adaptation runs.

Three pools are tracked: labeled source data, labeled target data (grows as
the oracle annotates), and unlabeled target data. Ground-truth labels of
target samples are hidden; the simulated oracle is the only sanctioned way
to read them during a run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import all_finite, check_fields, whole_numbers


class ShiftKind(Enum):
    ROTATION = "rotation"
    TRANSLATION = "translation"
    COVARIANCE_SCALE = "covariance_scale"
    MIXED = "mixed"


@dataclass
class ShiftConfig:
    """Synthetic dataset recipe: class-conditional Gaussians plus a
    configurable source-to-target transform.

    shift_magnitude is a continuous domain-gap knob: 0 means the target
    distribution equals the source distribution exactly. shift_magnitude,
    class_separation and class_std must be finite, and the count and seed
    fields integers.
    """

    C: int
    d_in: int
    n_source: int
    n_target: int
    shift_kind: ShiftKind = ShiftKind.ROTATION
    shift_magnitude: float = 0.5
    seed: int = 0
    class_separation: float = 4.0
    class_std: float = 1.0

    def __post_init__(self):
        if isinstance(self.shift_kind, str):
            self.shift_kind = ShiftKind(self.shift_kind)
        check_fields(
            self,
            finite=("shift_magnitude", "class_separation", "class_std"),
            integers={"C": 2, "d_in": 1, "n_source": 1, "n_target": 1, "seed": 0},
        )
        if self.d_in < self.C - 1:
            raise ValueError(
                f"d_in={self.d_in} cannot hold a {self.C}-vertex simplex "
                f"(need d_in >= C-1)"
            )
        if self.n_source < self.C:
            raise ValueError("n_source must cover every class at least once")
        if self.shift_magnitude < 0:
            raise ValueError("shift_magnitude must be nonnegative")


# row status: which pool a row is in
_SOURCE, _LABELED, _UNLABELED = 0, 1, 2


class DataPool:
    """The S / T / U pools over one table of samples.

    Row i of the table is sample ids[i] with input X[i], hidden label
    labels[i] and source flag source[i]. The table is stored in id order,
    whatever order it was given in, so a run depends on the pool's rows,
    not on their order in a file. A per-row status puts every row in one
    pool: source rows in S, target rows in U until annotate_batch moves
    them to T, which also records the order they were annotated in. An id
    is found by a searchsorted on the ids, so b ids cost O(b log n).

    Invariants: C is an int or np.integer of at least 1, not a bool, ids
    and labels are whole numbers, ids are unique, every label lies in
    [0, C), every class appears among the source rows, and
    the T rows are exactly the annotated ones. The constructor copies its
    inputs and checks them; it also checks once that there is at least one
    feature and that every feature is finite, since X never changes.
    """

    def __init__(self, C: int, ids, X, labels, source):
        if isinstance(C, bool) or not isinstance(C, (int, np.integer)):
            raise ValueError(f"C={C!r} must be an integer")
        if C < 1:
            raise ValueError(f"need at least one class, got C={C}")
        self.C = int(C)
        ids = whole_numbers(ids, "sample id")
        labels = whole_numbers(labels, "label")
        X = np.asarray(X, dtype=np.float64)
        source = np.asarray(source, dtype=bool)
        if X.ndim != 2 or {ids.shape, X.shape[:1], labels.shape, source.shape} != {(ids.size,)}:
            raise ValueError(
                f"ids {ids.shape}, X {X.shape}, labels {labels.shape} and source "
                f"{source.shape} do not describe the same rows"
            )
        order = np.argsort(ids, kind="stable")
        self._ids, self._X, self._labels, source = (
            a[order] for a in (ids, X, labels, source)
        )
        self.d_in = self._X.shape[1]
        if self.d_in < 1:
            raise ValueError(f"need at least one feature, got d_in={self.d_in}")
        if not all_finite(self._X):
            row = np.flatnonzero(~np.isfinite(self._X).all(axis=1))[0]
            raise ValueError(f"sample {self._ids[row]}: non-finite feature value")
        self._status = np.where(source, _SOURCE, _UNLABELED).astype(np.int8)
        self._source_rows = np.flatnonzero(source)
        self._annotated = np.zeros(0, dtype=np.intp)  # T rows, in annotation order
        self.check_invariants()

    def _find(self, ids):
        """Ids as a whole-number array, their rows, and whether each is in the pool."""
        ids = np.atleast_1d(whole_numbers(ids, "sample id"))
        rows = np.minimum(np.searchsorted(self._ids, ids), self._ids.size - 1)
        return ids, rows, self._ids[rows] == ids

    def _unlabeled_rows(self) -> np.ndarray:
        return np.flatnonzero(self._status == _UNLABELED)

    def _target_rows(self) -> np.ndarray:
        return np.concatenate([self._annotated, self._unlabeled_rows()])

    # -- oracle ----------------------------------------------------------

    def oracle_label(self, sample_id: int) -> int:
        """Return the hidden true label of an unlabeled target sample.

        Simulates the human annotator. Does not mutate the pool; raises on
        ids outside the unlabeled pool so double-annotation cannot slip
        through silently.
        """
        _, (row,), (known,) = self._find(sample_id)
        if not known:
            raise ValueError(f"unknown sample id {sample_id}")
        if self._status[row] != _UNLABELED:
            raise ValueError(
                f"sample id {sample_id} is not in the unlabeled pool"
            )
        return int(self._labels[row])

    def annotate_batch(self, ids: list[int]) -> "DataPool":
        """Move the given unlabeled samples into the labeled target pool,
        attaching their oracle labels. Fails atomically: either every id is
        valid or the pool is left untouched."""
        ids, rows, known = self._find(ids)
        if np.unique(ids).size != ids.size:
            raise ValueError("duplicate ids in annotation batch")
        ok = known & (self._status[rows] == _UNLABELED)
        if not ok.all():
            raise ValueError(f"ids not in unlabeled pool: {ids[~ok].tolist()}")
        self._status[rows] = _LABELED
        self._annotated = np.concatenate([self._annotated, rows])
        return self

    # -- array views (copies, never pool storage) ------------------------

    def labeled_arrays(self, include_source: bool = True):
        """Feature matrix and labels over S ∪ T (or T alone): source rows
        first, in id order, then target rows in annotation order."""
        rows = self._annotated
        if include_source:
            rows = np.concatenate([self._source_rows, rows])
        return self._X[rows], self._labels[rows]

    def source_arrays(self):
        """Feature matrix and labels over S, in id order."""
        return self._X[self._source_rows], self._labels[self._source_rows]

    def unlabeled_arrays(self):
        """Ids and feature matrix over U, in id order."""
        rows = self._unlabeled_rows()
        return self._ids[rows], self._X[rows]

    def target_arrays(self):
        """Ids and feature matrix over the full target domain: T in
        annotation order, then U in id order."""
        rows = self._target_rows()
        return self._ids[rows], self._X[rows]

    def evaluation_arrays(self):
        """Feature matrix and true labels over the full target domain, rows
        as in target_arrays. Metric computation only, as evaluation_labels."""
        rows = self._target_rows()
        return self._X[rows], self._labels[rows]

    def evaluation_labels(self, ids) -> np.ndarray:
        """True labels for the given target ids.

        Metric computation only (target-domain accuracy, the consistency
        diagnostic); adaptation code must go through oracle_label.
        """
        ids, rows, known = self._find(ids)
        if not known.all():
            raise ValueError(f"unknown sample ids: {ids[~known].tolist()}")
        return self._labels[rows]

    # -- bookkeeping -----------------------------------------------------

    @property
    def target_labeled(self) -> np.ndarray:
        """Ids of the labeled target pool, in annotation order (a copy)."""
        return self._ids[self._annotated]

    @property
    def target_unlabeled(self) -> np.ndarray:
        """Ids of the unlabeled target pool, in id order (a copy)."""
        return self._ids[self._unlabeled_rows()]

    @property
    def sizes(self) -> tuple[int, int, int]:
        n_s, n_t, n_u = np.bincount(self._status, minlength=3)
        return int(n_s), int(n_t), int(n_u)

    def check_invariants(self):
        """Raise if pool bookkeeping is corrupted."""
        dup = self._ids[1:][np.diff(self._ids) == 0]
        if dup.size:
            raise ValueError(f"duplicate sample id {dup[0]}")
        bad = np.flatnonzero((self._labels < 0) | (self._labels >= self.C))
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"label {self._labels[i]} of sample {self._ids[i]} outside [0, {self.C})"
            )
        covered = np.unique(self._labels[self._source_rows])
        if covered.size != self.C:
            raise ValueError(
                f"source pool covers classes {covered.tolist()}, expected all of [0, {self.C})"
            )
        status = np.full(self._ids.size, _UNLABELED, dtype=np.int8)
        status[self._source_rows] = _SOURCE
        status[self._annotated] = _LABELED
        if (
            not np.array_equal(status, self._status)
            or np.unique(self._annotated).size != self._annotated.size
        ):
            raise ValueError("pool status does not match the source rows and annotations")


# -- synthetic generator ---------------------------------------------------


def simplex_means(C: int, d_in: int, separation: float) -> np.ndarray:
    """Class means on a regular simplex embedded in d_in dimensions,
    centered at the origin, with pairwise distance `separation`."""
    V = np.eye(C) - 1.0 / C
    # rank C-1; project onto the spanned subspace
    U, s, _ = np.linalg.svd(V)
    coords = U[:, : C - 1] * s[: C - 1]
    pair_dist = np.linalg.norm(coords[0] - coords[1])
    coords *= separation / pair_dist
    means = np.zeros((C, d_in))
    means[:, : C - 1] = coords
    return means


def shift_transform(cfg: ShiftConfig):
    """The source-to-target transform implied by a config.

    Returns (rotation, offset, cov_scale): target samples are drawn as
    rotation @ (mu_c + cov_scale * sigma * eps) + offset. At magnitude 0 this
    is exactly (identity, zero, 1), so source and target coincide.

    The rotation is exp(A) for A = m * S / ||S||_2, S a random skew-symmetric
    matrix, so ||A||_2 = m. It is scaling and squaring: A is halved
    h = max(0, ceil(log2 m) + 1) times, which brings its norm to at most
    0.5, the degree-18 Taylor polynomial of the halved A is evaluated by
    Horner's rule, and the result is squared h times. Only matrix products
    are used: BLAS splits a product's output, not its sums, between threads,
    so the rotation has the same bits at any thread count. An eigenvector
    route (np.linalg.eigh of 1j * A) does not, from d_in 128 on. The
    rounding grows like 2^h, so a rotation with max|R R^T - I| above 1e-8
    is refused (ValueError naming shift_magnitude): some at 1e8, all at 1e9.
    """
    m = cfg.shift_magnitude
    rng = np.random.default_rng([cfg.seed, 0x5147])
    rotation = np.eye(cfg.d_in)
    offset = np.zeros(cfg.d_in)
    cov_scale = 1.0

    want_rot = cfg.shift_kind in (ShiftKind.ROTATION, ShiftKind.MIXED)
    want_tra = cfg.shift_kind in (ShiftKind.TRANSLATION, ShiftKind.MIXED)
    want_cov = cfg.shift_kind in (ShiftKind.COVARIANCE_SCALE, ShiftKind.MIXED)

    # rng consumption order is fixed so the transform is reproducible
    G = rng.standard_normal((cfg.d_in, cfg.d_in))
    skew = G - G.T
    norm = np.linalg.norm(skew, 2) if want_rot and m > 0 else 0.0
    if norm > 0:
        h = max(0, math.ceil(math.log2(m)) + 1)
        A, eye = math.ldexp(m, -h) * skew / norm, np.eye(cfg.d_in)
        for k in range(18, 0, -1):
            rotation = eye + A @ rotation / k
        # each squaring doubles the rounding error; far beyond 1e9 the
        # products overflow, and the refusal names the magnitude instead
        with np.errstate(all="ignore"):
            for _ in range(h):
                rotation = rotation @ rotation
            err = np.abs(rotation @ rotation.T - eye).max()
        if not err <= 1e-8:
            raise ValueError(f"shift_magnitude={m} is too large: the rotation's "
                             f"max|R R^T - I| is {err:.3g}, above 1e-8")
    u = rng.standard_normal(cfg.d_in)
    if want_tra and m > 0:
        offset = m * u / np.linalg.norm(u)
    if want_cov:
        cov_scale = 1.0 + m
    return rotation, offset, cov_scale


def _labels_covering(rng, n: int, C: int) -> np.ndarray:
    # every class at least once whenever n allows it
    if n >= C:
        lab = np.concatenate([np.arange(C), rng.integers(0, C, n - C)])
        rng.shuffle(lab)
    else:
        lab = rng.integers(0, C, n)
    return lab.astype(int)


def generate_shifted_dataset(cfg: ShiftConfig) -> DataPool:
    """Draw a synthetic domain-shifted classification dataset.

    Source samples come from C class-conditional Gaussians with means on a
    scaled simplex; target samples come from the same Gaussians pushed
    through the configured shift. Pure function of the config, seed
    included. Source rows get ids 0..n_source-1 and target rows the ids
    after them.
    """
    rng = np.random.default_rng(cfg.seed)
    means = simplex_means(cfg.C, cfg.d_in, cfg.class_separation)
    rotation, offset, cov_scale = shift_transform(cfg)

    # both domains are written straight into one table, so a build makes
    # no per-domain copies to concatenate
    X = np.empty((cfg.n_source + cfg.n_target, cfg.d_in))
    X_s, X_t = X[: cfg.n_source], X[cfg.n_source :]
    y_s = _labels_covering(rng, cfg.n_source, cfg.C)
    np.add(means[y_s], cfg.class_std * rng.standard_normal(X_s.shape), out=X_s)

    y_t = _labels_covering(rng, cfg.n_target, cfg.C)
    base = means[y_t] + cov_scale * cfg.class_std * rng.standard_normal(X_t.shape)
    np.matmul(base, rotation.T, out=X_t)
    X_t += offset

    ids = np.arange(cfg.n_source + cfg.n_target)
    return DataPool(cfg.C, ids, X, np.concatenate([y_s, y_t]), source=ids < cfg.n_source)


# -- delimited-file ingestion ----------------------------------------------
#
# Format: header line "d_in,C", then one line per sample:
#   id,domain,label,f_0,...,f_{d_in-1}     with domain in {S, T}
# Target labels are loaded into the hidden table only.


def load_pool(path) -> DataPool:
    """Read a pool from the delimited dataset format.

    The rows are parsed in one vectorized pass. Field counts and field
    types are checked by the parser, the header's d_in and the domain here,
    and ids, labels, finite features and class coverage by the pool itself;
    any violation raises ValueError.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header.strip():
            raise ValueError(f"empty dataset file: {path}")
        try:
            d_in, C = (int(v) for v in header.split(","))
        except ValueError as exc:
            raise ValueError(f"bad header line {header.strip()!r} in {path}") from exc
        if d_in < 1:
            raise ValueError(f"bad header line {header.strip()!r} in {path}: need d_in >= 1")
        # U2 keeps a longer domain such as "SX" from being cut to a valid "S"
        fields = np.dtype([("id", "i8"), ("dom", "U2"), ("lab", "i8"), ("x", "f8", (d_in,))])
        try:
            with warnings.catch_warnings():
                # a file with no sample rows is refused below, by name
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(fh, dtype=fields, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"malformed dataset file {path}: {exc}") from exc
    if table.size == 0:
        raise ValueError(f"dataset file {path} has no sample rows")
    dom = table["dom"]
    source = dom == "S"
    bad = np.flatnonzero(~source & (dom != "T"))
    if bad.size:
        raise ValueError(
            f"sample {table['id'][bad[0]]}: domain must be S or T, got {str(dom[bad[0]])!r}"
        )
    return DataPool(C, table["id"], table["x"], table["lab"], source)
