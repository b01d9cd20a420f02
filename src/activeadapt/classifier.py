"""One-hidden-layer tanh network with a softmax head, trained by plain SGD
on a three-part objective: cross-entropy on labeled data, consistency
cross-entropy on perturbed confident samples, and prediction-entropy
minimization on uncertain samples. Gradients are derived by hand; a finite
difference oracle in the test suite keeps them honest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .numerics import logsumexp

CHECKPOINT_VERSION = 1

# Rows per block of a pool-sized pass: a (ROW_BLOCK, d_feat) feature block
# is 4 MB at d_feat 64, where a whole 200k-row pool would be 102 MB.
ROW_BLOCK = 8192


def _row_blocks(n: int):
    """Slices covering range(n) in ceil(n / ROW_BLOCK) contiguous blocks
    whose sizes differ by at most one (a single empty block when n is 0).

    Near-equal sizes leave no lone row, which BLAS would send down its
    matrix-vector path, and no tiny tail block, whose products a
    small-matrix kernel would compute; either moves the last ulp. With
    OpenBLAS at C = 5 every block's rows then equal those of the
    whole-matrix products bit for bit. At other C, a head product of a
    block can fall under the small-matrix size (about 1e6 multiply-adds)
    where the whole product does not, and move log-probabilities by a few
    ulps. Callers reduce over the full per-row outputs, never over
    per-block partial sums, so every reduction keeps its rounding.
    """
    count = max(1, -(-n // ROW_BLOCK))
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite. A finite sum proves it in one
    reduction; only a sum that is not finite (a NaN or inf entry, or finite
    entries that overflow) pays the per-element test."""
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


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
        for name in ("learning_rate", "lambda_c", "lambda_e", "aug_noise_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if self.epochs_per_round < 0:
            raise ValueError("epochs_per_round must be nonnegative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.aug_dropout_p < 1.0 + 1e-12:
            raise ValueError("aug_dropout_p must lie in [0, 1]")
        if self.aug_noise_sigma < 0:
            raise ValueError("aug_noise_sigma must be nonnegative")


@dataclass
class Classifier:
    """Feature extractor (one tanh layer) plus linear softmax head."""

    W_hidden: np.ndarray  # (d_in, d_feat)
    b_hidden: np.ndarray  # (d_feat,)
    W_out: np.ndarray  # (d_feat, C)
    b_out: np.ndarray  # (C,)

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
        F = X @ self.W_hidden
        F += self.b_hidden
        return np.tanh(F, out=F)

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self.features(X) @ self.W_out + self.b_out

    def log_proba(self, X: np.ndarray) -> np.ndarray:
        """Log-probabilities of every row, computed one row block at a time,
        so no whole-input feature matrix is ever built."""
        X = np.atleast_2d(X)
        out = np.empty((X.shape[0], self.C))
        for rows in _row_blocks(X.shape[0]):
            out[rows] = self._head_log_proba(self.features(X[rows]))
        return out

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.exp(self.log_proba(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Argmax logit of every row, one row block at a time."""
        X = np.atleast_2d(X)
        out = np.empty(X.shape[0], dtype=np.intp)
        for rows in _row_blocks(X.shape[0]):
            out[rows] = np.argmax(self.logits(X[rows]), axis=1)
        return out

    def _head_log_proba(self, F: np.ndarray) -> np.ndarray:
        """Features to log-probabilities: the package's one log-softmax. The
        logits are normalized in place, so a call holds one (n, C) array."""
        z = F @ self.W_out
        z += self.b_out
        z -= logsumexp(z, axis=1, keepdims=True)
        return z

    def _check_input(self, X):
        if X.shape[-1] != self.d_in:
            raise ValueError(
                f"input dimension {X.shape[-1]} does not match d_in={self.d_in}"
            )
        if not _all_finite(X):
            raise ValueError("non-finite input")

    def params(self) -> dict[str, np.ndarray]:
        return {
            "W_hidden": self.W_hidden,
            "b_hidden": self.b_hidden,
            "W_out": self.W_out,
            "b_out": self.b_out,
        }


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


def _checked_labels(
    y, C: int, first: int = 0, outside: str = "label outside [0, C)"
) -> np.ndarray:
    """y as an integer array; ValueError unless every label is a whole
    number in [first, first + C), with message outside when one is not in
    range. Integer arrays skip the whole-number test. Viewed as unsigned, a
    label below first exceeds any C, so one max checks both ends."""
    y = np.asarray(y)
    if y.dtype.kind not in "biu" and not np.all(np.isfinite(y) & (np.trunc(y) == y)):
        raise ValueError("label is not a whole number")
    y = y.astype(np.intp, copy=False)
    if y.size and (y - first if first else y).view(np.uintp).max() >= C:
        raise ValueError(outside)
    return y


def loss_supervised(model: Classifier, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy -log P_y(x) over a labeled batch."""
    y = _checked_labels(y, model.C)
    if len(y) == 0:
        raise ValueError("supervised batch must be non-empty")
    logp = model.log_proba(X)
    return float(-np.mean(logp[np.arange(len(y)), y]))


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
    """The three-part objective on already-perturbed consistency inputs:
    L_sup + lambda_c * L_con + lambda_e * L_ent."""
    sup = loss_supervised(model, X_l, y_l)
    empty_cc = len(y_cc) == 0
    empty_uc = np.size(X_uc) == 0
    con = 0.0 if empty_cc else loss_supervised(model, X_cc, y_cc)
    ent = 0.0 if empty_uc else loss_entropy(model, X_uc)
    total = sup + lambda_c * con + lambda_e * ent
    return LossBreakdown(sup, con, ent, total, empty_cc, empty_uc)


# -- gradients ---------------------------------------------------------------


def combined_grads(
    model: Classifier,
    X_l,
    y_l,
    X_cc,
    y_cc,
    X_uc,
    lambda_c: float,
    lambda_e: float,
) -> dict[str, np.ndarray]:
    """Analytic gradient of combined_loss w.r.t. every parameter.

    The consistency inputs are treated as fixed (already perturbed), and the
    similarity-based labels are fixed targets: no gradient flows into either.
    The contributing parts (labeled, consistency, entropy) are stacked into
    one batch for a single forward pass; each part writes its own block of
    the logit gradient, and one backprop runs over the stack. A label
    outside [0, C) raises ValueError before any computation.

    The four gradients are views of one flat buffer, in parameter order;
    backward_and_step checks and scales that buffer as a whole.
    """
    n_l = len(y_l)
    if n_l == 0:
        raise ValueError("supervised batch must be non-empty")
    rows, y = [np.atleast_2d(X_l)], y_l
    n_c = len(y_cc) if lambda_c != 0.0 else 0
    if n_c:
        rows.append(np.atleast_2d(X_cc))
        y = np.concatenate((y_l, y_cc))
    if np.size(X_uc) and lambda_e != 0.0:
        rows.append(np.atleast_2d(X_uc))
    y = _checked_labels(y, model.C)
    X = np.concatenate(rows)
    F = model.features(X)
    logp = model._head_log_proba(F)
    dZ2 = np.exp(logp)
    n_ce = n_l + n_c
    if X.shape[0] > n_ce:
        # d/dz_j of H(P) is -P_j (log P_j + H), with H = -sum_c P_c log P_c;
        # see the gradient-check tests. lu is consumed in place: logp is not
        # read again.
        P, lu = dZ2[n_ce:], logp[n_ce:]
        lu -= (P * lu).sum(axis=1, keepdims=True)
        lu *= P
        np.multiply(lu, -lambda_e / len(P), out=P)
    # d/dz of mean -log P_y is (P - onehot(y)) / n, times the part's weight
    dZ2[np.arange(n_ce), y] -= 1.0
    dZ2[:n_l] *= 1.0 / n_l
    if n_c:
        dZ2[n_l:n_ce] *= lambda_c / n_c
    dZ1 = dZ2 @ model.W_out.T
    tanh_grad = np.square(F)  # tanh' = 1 - F^2
    np.subtract(1.0, tanh_grad, out=tanh_grad)
    dZ1 *= tanh_grad
    d_in, d_feat, C = model.d_in, model.d_feat, model.C
    b_hidden = d_in * d_feat  # offsets of the parameters in the flat buffer
    W_out = b_hidden + d_feat
    b_out = W_out + d_feat * C
    flat = np.empty(b_out + C)
    grads = {
        "W_hidden": flat[:b_hidden].reshape(d_in, d_feat),
        "b_hidden": flat[b_hidden:W_out],
        "W_out": flat[W_out:b_out].reshape(d_feat, C),
        "b_out": flat[b_out:],
    }
    np.matmul(X.T, dZ1, out=grads["W_hidden"])
    dZ1.sum(axis=0, out=grads["b_hidden"])
    np.matmul(F.T, dZ2, out=grads["W_out"])
    dZ2.sum(axis=0, out=grads["b_out"])
    return grads


def backward_and_step(
    model: Classifier,
    labeled_batch,
    cc_batch,
    uc_batch,
    cfg: TrainConfig,
) -> Classifier:
    """One SGD step on the full objective, mutating the model in place.

    The consistency rows come already perturbed (augment), and the step
    draws nothing. A non-finite gradient aborts before any parameter is
    touched.
    """
    X_l, y_l = labeled_batch
    X_cc, y_cc = cc_batch
    grads = combined_grads(
        model, X_l, y_l, X_cc, y_cc, uc_batch, cfg.lambda_c, cfg.lambda_e
    )
    flat = grads["W_hidden"].base  # the buffer all four gradients view
    if not _all_finite(flat):
        raise NonFiniteGradientError("non-finite gradient; step aborted")
    flat *= cfg.learning_rate
    model.W_hidden -= grads["W_hidden"]
    model.b_hidden -= grads["b_hidden"]
    model.W_out -= grads["W_out"]
    model.b_out -= grads["b_out"]
    return model


# -- checkpointing -----------------------------------------------------------


def save_checkpoint(path, model: Classifier, cfg: TrainConfig) -> None:
    """JSON dump of all parameters plus the training config. Full decimal
    precision, so load_checkpoint restores bit-identical float64 values."""
    payload = {
        "format_version": CHECKPOINT_VERSION,
        "d_in": model.d_in,
        "d_feat": model.d_feat,
        "C": model.C,
        "params": {k: v.tolist() for k, v in model.params().items()},
        "train_config": asdict(cfg),
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path) -> tuple[Classifier, TrainConfig]:
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version: {version}")
    p = payload["params"]
    model = Classifier(
        W_hidden=np.array(p["W_hidden"], dtype=float),
        b_hidden=np.array(p["b_hidden"], dtype=float),
        W_out=np.array(p["W_out"], dtype=float),
        b_out=np.array(p["b_out"], dtype=float),
    )
    if model.d_in != payload["d_in"] or model.d_feat != payload["d_feat"] or model.C != payload["C"]:
        raise ValueError("checkpoint shape metadata disagrees with stored arrays")
    return model, TrainConfig(**payload["train_config"])
