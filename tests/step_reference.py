"""Reference forms of one SGD step's arithmetic, written out operation by
operation with plain temporaries: the log-sum-exp, the log-softmax head
(which, as the engine's, reduces a class-major (C, n) copy of the logits
along axis 0), the perturbation, the stacked gradient and the parameter
update; and of the training epochs around the steps, one draw at a time
from the documented streams.

The engine's versions make fewer numpy calls (one flat parameter vector
and gradient buffer, each epoch's rows, one-hot targets and loss weights
stacked and checked once, one finiteness test, every draw of an epoch made
before its steps) but must perform the same floating-point operations in
the same order and the same draws from the same streams, so tests compare
them with these bit for bit. Nothing here is imported by the package.
"""

import math

import numpy as np

from activeadapt.classifier import NonFiniteGradientError
from activeadapt.numerics import EXP_FLOOR, checked_labels


def logsumexp_ref(a, axis=-1, keepdims=False, softmax_out=None):
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=True)
    if not np.isfinite(m).all():
        m = np.where(np.isfinite(m), m, 0.0)
    e = np.subtract(a, m, out=softmax_out)
    keep = e >= EXP_FLOOR
    if keep.all():
        np.exp(e, out=e)
    else:
        np.maximum(e, EXP_FLOOR, out=e)
        np.exp(e, out=e)
        e *= keep
    s = np.sum(e, axis=axis, keepdims=True)
    if softmax_out is not None:
        np.divide(e, s, out=e)
    out = np.log(s, out=s)
    out += m
    return out if keepdims else np.squeeze(out, axis=axis)


def features_ref(model, X):
    X = np.atleast_2d(X)
    if not np.isfinite(X).all():
        raise ValueError("non-finite input")
    F = X @ model.W_hidden
    F += model.b_hidden
    return np.tanh(F, out=F)


def head_log_proba_ref(model, F):
    z = F @ model.W_out + model.b_out
    z -= logsumexp_ref(z.T.copy(), axis=0)[:, None]
    return z


def augment_ref(x, cfg, noise, keep):
    x = np.asarray(x, dtype=float)
    out = x + cfg.aug_noise_sigma * noise
    if keep is not None:
        out = out * keep
    return out


def combined_grads_ref(model, X_l, y_l, X_cc, y_cc, X_uc, lambda_c, lambda_e):
    n_l = len(y_l)
    if n_l == 0:
        raise ValueError("supervised batch must be non-empty")
    rows, y, scale = [np.atleast_2d(X_l)], [y_l], [np.full(n_l, 1.0 / n_l)]
    if len(y_cc) > 0 and lambda_c != 0.0:
        n_c = len(y_cc)
        rows.append(np.atleast_2d(X_cc))
        y.append(y_cc)
        scale.append(np.full(n_c, lambda_c / n_c))
    if np.size(X_uc) and lambda_e != 0.0:
        rows.append(np.atleast_2d(X_uc))
    y = checked_labels(np.concatenate(y), model.C)
    scale = np.concatenate(scale)
    X = np.concatenate(rows)
    F = features_ref(model, X)
    logp = head_log_proba_ref(model, F)
    dZ2 = np.exp(logp)
    n_ce = len(y)
    if X.shape[0] > n_ce:
        P, lu = dZ2[n_ce:], logp[n_ce:]
        H = -np.sum(P * lu, axis=1, keepdims=True)
        dZ2[n_ce:] = -P * (lu + H) * (lambda_e / len(P))
    dZ2[np.arange(n_ce), y] -= 1.0
    dZ2[:n_ce] *= scale[:, None]
    dZ1 = (dZ2 @ model.W_out.T) * (1.0 - F**2)
    return {
        "W_hidden": X.T @ dZ1,
        "b_hidden": dZ1.sum(axis=0),
        "W_out": F.T @ dZ2,
        "b_out": dZ2.sum(axis=0),
    }


def backward_and_step_ref(model, labeled_batch, cc_batch, uc_batch, cfg, noise=None, keep=None):
    """The step, perturbing the consistency rows first when noise is given."""
    X_l, y_l = labeled_batch
    X_cc, y_cc = cc_batch
    if noise is not None:
        X_cc = augment_ref(X_cc, cfg, noise, keep)
    grads = combined_grads_ref(
        model, X_l, y_l, X_cc, y_cc, uc_batch, cfg.lambda_c, cfg.lambda_e
    )
    for g in grads.values():
        if not np.isfinite(g).all():
            raise NonFiniteGradientError("non-finite gradient; step aborted")
    for name, g in grads.items():
        getattr(model, name)[...] -= cfg.learning_rate * g
    return model


def windows_ref(rng, n, take, count):
    """count windows of take rows: a permutation's prefix is drawn as one
    sample without replacement, as many whole windows long as are still
    needed and fit in n rows, then cut into windows."""
    windows = []
    while len(windows) < count:
        fit = min(n // take, count - len(windows))
        prefix = rng.choice(n, fit * take, replace=False)
        windows += [prefix[j * take : (j + 1) * take] for j in range(fit)]
    return windows


def train_epochs_ref(model, X, y, cc, uc, cfg, epochs, key):
    """Epochs of steps under the stream contract: one labeled permutation per
    epoch from default_rng(key); consistency windows, entropy windows and the
    perturbation from default_rng([*key, p]) for p = 1, 2, 3, each drawn for
    the whole epoch before its first step (the noise, then the dropout
    draw). Each step gathers and perturbs its own rows."""
    labeled = np.random.default_rng(key)
    use_cc = cc is not None and len(cc[1]) > 0 and cfg.lambda_c != 0.0
    use_uc = uc is not None and len(uc) > 0 and cfg.lambda_e != 0.0
    if use_cc or use_uc:
        cc_rng, uc_rng, perturb_rng = (np.random.default_rng([*key, p]) for p in (1, 2, 3))
    n, size = len(y), cfg.batch_size
    steps = math.ceil(n / size)
    empty_cc = (np.zeros((0, X.shape[1])), np.zeros(0, dtype=int))
    empty_uc = np.zeros((0, X.shape[1]))
    for _ in range(epochs):
        perm = labeled.permutation(n)
        if use_cc:
            take_cc = min(size, len(cc[1]))
            cc_win = windows_ref(cc_rng, len(cc[1]), take_cc, steps)
            shape = (steps * take_cc, X.shape[1])
            noise = perturb_rng.standard_normal(shape)
            keep = perturb_rng.random(shape) >= cfg.aug_dropout_p if cfg.aug_dropout_p > 0 else None
        if use_uc:
            uc_win = windows_ref(uc_rng, len(uc), min(size, len(uc)), steps)
        for s in range(steps):
            idx = perm[s * size : (s + 1) * size]
            cc_batch, uc_batch, step_noise, step_keep = empty_cc, empty_uc, None, None
            if use_cc:
                rows = slice(s * take_cc, (s + 1) * take_cc)
                cc_batch = (cc[0][cc_win[s]], cc[1][cc_win[s]])
                step_noise, step_keep = noise[rows], None if keep is None else keep[rows]
            if use_uc:
                uc_batch = uc[uc_win[s]]
            backward_and_step_ref(
                model, (X[idx], y[idx]), cc_batch, uc_batch, cfg, step_noise, step_keep
            )
    return model
