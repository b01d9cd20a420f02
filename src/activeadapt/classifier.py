"""One-hidden-layer tanh network with a softmax head, trained by plain SGD
on a three-part objective: cross-entropy on labeled data, consistency
cross-entropy on perturbed confident samples, and prediction-entropy
minimization on uncertain samples. Gradients are derived by hand; a finite
difference oracle in the test suite keeps them honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import all_finite, blocks, check_fields, checked_labels, log_proba_at, logsumexp


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Logits to log-probabilities, in place: the package's one log-softmax.
    It reduces z.T.copy(), class-major; np.ascontiguousarray(z.T) is a view
    of z at n = 1, which an in-place step there would overwrite."""
    z -= logsumexp(z.T.copy())[:, None]
    return z


class NonFiniteGradientError(RuntimeError):
    """A training step produced NaN/inf gradients; parameters were left
    untouched."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs_per_round: int = 30
    batch_size: int = 32
    lambda_c: float = 0.5
    lambda_e: float = 0.1
    aug_noise_sigma: float = 0.1
    aug_dropout_p: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(
            self,
            finite=("learning_rate", "lambda_c", "lambda_e", "aug_noise_sigma", "aug_dropout_p"),
            integers={"epochs_per_round": 0, "batch_size": 1, "seed": 0},
        )
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not 0.0 <= self.aug_dropout_p < 1.0 + 1e-12:
            raise ValueError("aug_dropout_p must lie in [0, 1]")
        if self.aug_noise_sigma < 0:
            raise ValueError("aug_noise_sigma must be nonnegative")


# The parameters in the order theta lays them out.
_PARAMETERS = ("W_hidden", "b_hidden", "W_out", "b_out")


class Classifier:
    """Feature extractor (one tanh layer) plus linear softmax head.

    The four parameters are views of one flat float64 vector theta, laid out
    as W_hidden (d_in, d_feat), b_hidden (d_feat,), W_out (d_feat, C),
    b_out (C,), so an SGD step updates theta in one operation. The
    constructor copies its arrays into theta, and assigning a parameter
    writes into theta, so the views stay views.
    """

    def __init__(self, W_hidden, b_hidden, W_out, b_out):
        parts = [np.asarray(p, dtype=float) for p in (W_hidden, b_hidden, W_out, b_out)]
        self._shapes = [p.shape for p in parts]
        self.theta = np.concatenate([p.ravel() for p in parts])
        for name, view in self.unflatten(self.theta).items():
            object.__setattr__(self, name, view)

    def __setattr__(self, name, value):
        if name in _PARAMETERS:
            view = getattr(self, name)
            value = np.asarray(value, dtype=float)
            if value.shape != view.shape:
                raise ValueError(f"{name} must have shape {view.shape}")
            view[...] = value
        else:
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor, so the
        # copy's parameters are views of its own theta
        return Classifier, tuple(self.params().values())

    def unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """The parameter-shaped views of a flat vector laid out as theta."""
        views, start = {}, 0
        for name, shape in zip(_PARAMETERS, self._shapes):
            stop = start + math.prod(shape)
            views[name] = flat[start:stop].reshape(shape)
            start = stop
        return views

    @property
    def d_in(self) -> int:
        return self.W_hidden.shape[0]

    @property
    def d_feat(self) -> int:
        return self.W_hidden.shape[1]

    @property
    def C(self) -> int:
        return self.W_out.shape[1]

    @classmethod
    def initialize(cls, d_in: int, d_feat: int, C: int, rng) -> "Classifier":
        rng = np.random.default_rng(rng)
        return cls(
            W_hidden=rng.standard_normal((d_in, d_feat)) / np.sqrt(d_in),
            b_hidden=np.zeros(d_feat),
            W_out=rng.standard_normal((d_feat, C)) / np.sqrt(d_feat),
            b_out=np.zeros(C),
        )

    # -- forward passes ----------------------------------------------------

    def features(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        self._check_input(X)
        return self._features(X)

    def _features(self, X: np.ndarray) -> np.ndarray:
        """Hidden features of rows already checked (_check_input)."""
        F = X @ self.W_hidden
        F += self.b_hidden
        return np.tanh(F, out=F)

    def feature_blocks(self, X: np.ndarray):
        """(rows, F) for each blocks(n) slice of X's n rows, in order, with
        F = features(X[rows]): the one place a pool pass is cut into row
        blocks, so no whole-input feature matrix is ever built."""
        X = np.atleast_2d(X)
        for rows in blocks(X.shape[0]):
            yield rows, self.features(X[rows])

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Logits of every row, one row block at a time: the one pass over a
        pool's rows, which predict, log_proba and predict_proba view."""
        X = np.atleast_2d(X)
        out = np.empty((X.shape[0], self.C))
        for rows, F in self.feature_blocks(X):
            out[rows] = self._head(F)
            del F  # so one feature block is alive, not two, as the next is built
        return out

    def log_proba(self, X: np.ndarray) -> np.ndarray:
        """Log-probabilities of every row: the log-softmax of logits(X)."""
        return _log_softmax(self.logits(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.exp(self.log_proba(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Argmax logit of every row."""
        return np.argmax(self.logits(X), axis=1)

    def head_log_proba(self, F: np.ndarray, pred: np.ndarray | None = None) -> np.ndarray:
        """Features to log-probabilities, holding one (n, C) array. pred, an
        (n,) intp array when given, receives each row's argmax logit (the
        class predict gives), taken before the log-softmax."""
        z = self._head(F)
        if pred is not None:
            np.argmax(z, axis=1, out=pred)
        return _log_softmax(z)

    def _head(self, F: np.ndarray) -> np.ndarray:
        """Features to logits: the forward code's one head product."""
        z = F @ self.W_out
        z += self.b_out
        return z

    def _check_input(self, X):
        if X.shape[-1] != self.d_in:
            raise ValueError(
                f"input dimension {X.shape[-1]} does not match d_in={self.d_in}"
            )
        if not all_finite(X):
            raise ValueError("non-finite input")

    def params(self) -> dict[str, np.ndarray]:
        """The four parameter arrays by name: views of theta."""
        return {name: getattr(self, name) for name in _PARAMETERS}


# -- perturbation ------------------------------------------------------------


def draw_perturbation(rng, shape, cfg: TrainConfig):
    """The draws that perturb an array of this shape, one Generator call
    each: (noise, keep), standard normal noise and, when aug_dropout_p > 0,
    the mask of the coordinates that survive dropout (a uniform draw at or
    above aug_dropout_p), else None."""
    noise = rng.standard_normal(shape)
    keep = rng.random(shape) >= cfg.aug_dropout_p if cfg.aug_dropout_p > 0 else None
    return noise, keep


def augment(x: np.ndarray, cfg: TrainConfig, noise: np.ndarray, keep) -> np.ndarray:
    """Vector-space perturbation: additive Gaussian noise aug_noise_sigma *
    noise, then the coordinates where keep is False zeroed (keep None zeroes
    none); see draw_perturbation."""
    x = np.asarray(x, dtype=float)
    out = x + cfg.aug_noise_sigma * noise
    if keep is not None:
        out *= keep
    return out


# -- losses ------------------------------------------------------------------


def loss_supervised(model: Classifier, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy -log P_y(x) over a labeled batch."""
    y = checked_labels(y, model.C)
    if len(y) == 0:
        raise ValueError("supervised batch must be non-empty")
    return float(-np.mean(log_proba_at(model.log_proba(X), y)))


def loss_entropy(model: Classifier, X: np.ndarray) -> float:
    """Mean prediction entropy -sum_c P_c log P_c; 0 for an empty batch."""
    X = np.atleast_2d(X)
    if X.shape[0] == 0:
        return 0.0
    logp = model.log_proba(X)
    return float(np.mean(-np.sum(np.exp(logp) * logp, axis=1)))


@dataclass
class LossBreakdown:
    supervised: float
    consistency: float
    entropy: float
    total: float
    empty_consistency_batch: bool = False
    empty_entropy_batch: bool = False


def combined_loss(
    model: Classifier,
    X_l,
    y_l,
    X_cc,
    y_cc,
    X_uc,
    lambda_c: float,
    lambda_e: float,
) -> LossBreakdown:
    """The three-part objective L_sup + lambda_c * L_con + lambda_e * L_ent.
    It perturbs nothing: X_cc is scored as given. On a step's perturbed
    consistency batch it is the loss that backward_and_step descends; the
    loop's loss report passes the clean consistency rows."""
    sup = loss_supervised(model, X_l, y_l)
    empty_cc = len(y_cc) == 0
    empty_uc = np.size(X_uc) == 0
    con = 0.0 if empty_cc else loss_supervised(model, X_cc, y_cc)
    ent = 0.0 if empty_uc else loss_entropy(model, X_uc)
    total = sup + lambda_c * con + lambda_e * ent
    return LossBreakdown(sup, con, ent, total, empty_cc, empty_uc)


# -- gradients ---------------------------------------------------------------


def _step_major(out: np.ndarray, labeled: np.ndarray, companions, size: int) -> None:
    """Write every step's rows into out, step after step: step s's labeled
    rows labeled[s * size : (s + 1) * size], then block s of each companion,
    an array with one block per step on its first axis."""
    full, trail = len(labeled) // size, labeled.shape[1:]
    head = [labeled[: full * size].reshape(full, size, *trail), *(c[:full] for c in companions)]
    width = sum(block.shape[1] for block in head)
    np.concatenate(head, axis=1, out=out[: full * width].reshape(full, width, *trail))
    if full * size < len(labeled):
        tail = [labeled[full * size :], *(c[full] for c in companions)]
        np.concatenate(tail, out=out[full * width :])


class EpochSteps:
    """The SGD steps of an epoch: laid out once for every epoch of a
    training call, then filled with each epoch's rows before its first step.

    An epoch over n labeled rows has steps = ceil(n / batch_size) steps.
    Step s trains on rows start:stop of X, targets and weights, where
    (start, cc_start, uc_start, stop) = bounds[s]: n_l labeled rows
    (batch_size, fewer in a short last step), then n_c = cc_take perturbed
    consistency rows, then n_u = uc_take entropy rows. targets holds each
    row's one-hot label (zero on the entropy rows), and weights each row's
    loss weight: 1/n_l, lambda_c/n_c and -lambda_e/n_u. grad is the one
    gradient buffer every step reuses, laid out as theta, and grads its
    four parameter-shaped views.
    """

    def __init__(self, model: Classifier, n: int, cc_take: int, uc_take: int, cfg: TrainConfig):
        size = cfg.batch_size
        full, tail = divmod(n, size)
        self.steps = full + (tail > 0)
        self.learning_rate = cfg.learning_rate
        self._model, self._n, self._size = model, n, size
        self._onehot = np.eye(model.C)
        self._uc_targets = np.zeros((self.steps, uc_take, model.C))
        w_l = np.full(n, 1.0 / size)
        if tail:
            w_l[full * size :] = 1.0 / tail
        weights = []
        if cc_take:
            weights.append(np.full((self.steps, cc_take), cfg.lambda_c / cc_take))
        if uc_take:
            weights.append(np.full((self.steps, uc_take), -cfg.lambda_e / uc_take))
        self._blocks = [w.shape for w in weights]
        rows = n + self.steps * (cc_take + uc_take)
        self.weights = np.empty(rows)
        _step_major(self.weights, w_l, weights, size)
        self.weights = self.weights[:, None]
        self.X, self.targets = np.empty((rows, model.d_in)), np.empty((rows, model.C))
        self.bounds = []
        for s, n_l in enumerate([size] * full + [tail] * (tail > 0)):
            start = s * (size + cc_take + uc_take)  # only the last step is short
            cc_start = start + n_l
            self.bounds.append((start, cc_start, cc_start + cc_take, cc_start + cc_take + uc_take))
        self.grad = np.empty_like(model.theta)
        self.grads = tuple(model.unflatten(self.grad).values())

    def fill(self, X, y, cc=None, uc=None) -> None:
        """Stack one epoch's rows: X, y its n labeled rows in step order; cc
        None or (rows, labels), one block of cc_take perturbed consistency
        rows and their similarity labels per step on the first axis; uc None
        or one block of uc_take entropy rows per step. A part the layout has
        no rows for is None, so its rows are neither checked nor computed.
        ValueError unless the parts fit the layout, every label is a whole
        number in [0, C) and every row is finite."""
        C = self._model.C
        y = checked_labels(y, C)
        rows, targets = [], []
        if cc is not None:
            rows.append(cc[0])
            targets.append(self._onehot.take(checked_labels(cc[1], C), axis=0))
        if uc is not None:
            rows.append(uc)
            targets.append(self._uc_targets)
        if len(y) != self._n or [p.shape[:2] for p in rows] != self._blocks:
            raise ValueError("the epoch's parts do not fit its layout")
        _step_major(self.X, X, rows, self._size)
        self._model._check_input(self.X)
        _step_major(self.targets, self._onehot.take(y, axis=0), targets, self._size)


def combined_grads(model: Classifier, epoch: EpochSteps, step: int) -> np.ndarray:
    """Analytic gradient of the combined_loss of one prepared step w.r.t.
    theta, written into epoch.grad, which is returned.

    The consistency rows are treated as fixed (already perturbed), and the
    similarity-based labels are fixed targets: no gradient flows into
    either. The step's parts are stacked into one batch for a single
    forward pass and one backprop; every row's logit gradient is scaled by
    its loss weight.
    """
    start, _, uc_start, stop = epoch.bounds[step]
    X = epoch.X[start:stop]
    F = model._features(X)
    logp = model.head_log_proba(F)
    dZ2 = np.exp(logp)
    if stop > uc_start:
        # d/dz_j of H(P) is -P_j (log P_j + H), with H = -sum_c P_c log P_c;
        # see the gradient-check tests. lu is consumed in place: logp is not
        # read again. The weight -lambda_e/n_u supplies the sign.
        n_ce = uc_start - start
        P, lu = dZ2[n_ce:], logp[n_ce:]
        lu -= np.add.reduce(P * lu, axis=1, keepdims=True)
        np.multiply(lu, P, out=P)
    # d/dz of mean -log P_y is (P - onehot(y)) / n, times the part's weight;
    # the zero targets of the entropy rows leave them as they are
    dZ2 -= epoch.targets[start:stop]
    dZ2 *= epoch.weights[start:stop]
    dZ1 = dZ2 @ model.W_out.T
    tanh_grad = np.square(F)  # tanh' = 1 - F^2
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    dZ1 *= tanh_grad
    W_hidden, b_hidden, W_out, b_out = epoch.grads
    np.matmul(X.T, dZ1, out=W_hidden)
    np.add.reduce(dZ1, axis=0, out=b_hidden)
    np.matmul(F.T, dZ2, out=W_out)
    np.add.reduce(dZ2, axis=0, out=b_out)
    return epoch.grad


def backward_and_step(model: Classifier, epoch: EpochSteps, step: int) -> Classifier:
    """SGD step number step of a prepared epoch on the full objective,
    mutating the model in place: theta -= learning_rate * gradient.

    The step draws and checks nothing; the epoch's fill checked its rows. A
    non-finite gradient aborts before theta is touched.
    """
    grad = combined_grads(model, epoch, step)
    if not all_finite(grad):
        raise NonFiniteGradientError("non-finite gradient; step aborted")
    grad *= epoch.learning_rate
    model.theta -= grad
    return model
