"""One-hidden-layer tanh network with a softmax head, trained by plain SGD
on a three-part objective: cross-entropy on labeled data, consistency
cross-entropy on perturbed confident samples, and prediction-entropy
minimization on uncertain samples. Gradients are derived by hand; a finite
difference oracle in the test suite keeps them honest.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .numerics import logsumexp

CHECKPOINT_VERSION = 1


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
        return np.tanh(X @ self.W_hidden + self.b_hidden)

    def logits(self, X: np.ndarray) -> np.ndarray:
        return self.features(X) @ self.W_out + self.b_out

    def log_proba(self, X: np.ndarray) -> np.ndarray:
        return self._head_log_proba(self.features(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return np.exp(self.log_proba(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(X), axis=1)

    def _head_log_proba(self, F: np.ndarray) -> np.ndarray:
        """Features to log-probabilities: the package's one log-softmax. The
        logits are normalized in place, so a call holds one (n, C) array."""
        z = F @ self.W_out + self.b_out
        z -= logsumexp(z, axis=1, keepdims=True)
        return z

    def _check_input(self, X):
        if X.shape[-1] != self.d_in:
            raise ValueError(
                f"input dimension {X.shape[-1]} does not match d_in={self.d_in}"
            )
        if not np.isfinite(X).all():
            raise ValueError("non-finite input")

    def params(self) -> dict[str, np.ndarray]:
        return {
            "W_hidden": self.W_hidden,
            "b_hidden": self.b_hidden,
            "W_out": self.W_out,
            "b_out": self.b_out,
        }


# -- perturbation ------------------------------------------------------------


def augment(x: np.ndarray, cfg: TrainConfig, rng) -> np.ndarray:
    """Vector-space perturbation: additive Gaussian noise, then each
    coordinate independently zeroed with probability aug_dropout_p."""
    x = np.asarray(x, dtype=float)
    out = x + cfg.aug_noise_sigma * rng.standard_normal(x.shape)
    if cfg.aug_dropout_p > 0:
        keep = rng.random(x.shape) >= cfg.aug_dropout_p
        out = out * keep
    return out


# -- losses ------------------------------------------------------------------


def loss_supervised(model: Classifier, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy -log P_y(x) over a labeled batch."""
    y = np.asarray(y, dtype=int)
    if len(y) == 0:
        raise ValueError("supervised batch must be non-empty")
    if (y < 0).any() or (y >= model.C).any():
        raise ValueError("label outside [0, C)")
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


def _zero_grads(model: Classifier) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in model.params().items()}


def _backprop_from_dlogits(model, X, F, dZ2, grads):
    # shared tail of the chain rule: logits -> feature layer -> input layer
    grads["W_out"] += F.T @ dZ2
    grads["b_out"] += dZ2.sum(axis=0)
    dF = dZ2 @ model.W_out.T
    dZ1 = dF * (1.0 - F**2)  # tanh'
    grads["W_hidden"] += X.T @ dZ1
    grads["b_hidden"] += dZ1.sum(axis=0)


def _accumulate_cross_entropy(model, X, y, weight, grads):
    # d/dz of mean -log P_y is (P - onehot(y)) / n
    n = len(y)
    F = model.features(X)
    logp = model._head_log_proba(F)
    P = np.exp(logp)
    dZ2 = P.copy()
    dZ2[np.arange(n), y] -= 1.0
    dZ2 *= weight / n
    _backprop_from_dlogits(model, X, F, dZ2, grads)


def _accumulate_entropy(model, X, weight, grads):
    # d/dz_j of H(P) is -P_j (log P_j + H); see the gradient-check tests
    n = X.shape[0]
    F = model.features(X)
    logp = model._head_log_proba(F)
    P = np.exp(logp)
    H = -np.sum(P * logp, axis=1, keepdims=True)
    dZ2 = -P * (logp + H) * (weight / n)
    _backprop_from_dlogits(model, X, F, dZ2, grads)


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
    """
    y_l = np.asarray(y_l, dtype=int)
    if len(y_l) == 0:
        raise ValueError("supervised batch must be non-empty")
    grads = _zero_grads(model)
    _accumulate_cross_entropy(model, np.atleast_2d(X_l), y_l, 1.0, grads)
    if len(y_cc) > 0 and lambda_c != 0.0:
        _accumulate_cross_entropy(
            model, np.atleast_2d(X_cc), np.asarray(y_cc, dtype=int), lambda_c, grads
        )
    X_uc = np.atleast_2d(X_uc) if np.size(X_uc) else np.zeros((0, model.d_in))
    if X_uc.shape[0] > 0 and lambda_e != 0.0:
        _accumulate_entropy(model, X_uc, lambda_e, grads)
    return grads


def backward_and_step(
    model: Classifier,
    labeled_batch,
    cc_batch,
    uc_batch,
    cfg: TrainConfig,
    rng,
) -> Classifier:
    """One SGD step on the full objective, mutating the model in place.

    The perturbation is sampled once and held fixed for the step. A
    non-finite gradient aborts before any parameter is touched.
    """
    X_l, y_l = labeled_batch
    X_cc, y_cc = cc_batch
    if len(y_cc) > 0:
        X_cc = augment(X_cc, cfg, rng)
    grads = combined_grads(
        model, X_l, y_l, X_cc, y_cc, uc_batch, cfg.lambda_c, cfg.lambda_e
    )
    for g in grads.values():
        if not np.isfinite(g).all():
            raise NonFiniteGradientError("non-finite gradient; step aborted")
    for name, g in grads.items():
        getattr(model, name)[...] -= cfg.learning_rate * g
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
