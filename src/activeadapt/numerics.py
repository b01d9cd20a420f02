"""The package's one stable log-sum-exp.

The classifier's log-softmax, the score computation and the mixture E step
all normalize through it, so they share one formula and one rounding.
"""

from __future__ import annotations

import numpy as np

# Below this, exp(x) < 1e-304: nothing next to the largest term, exp(0) = 1,
# and slow to compute, since numpy's vectorized exp leaves its fast path for
# results near underflow. Such terms are flushed to exactly 0.
EXP_FLOOR = -700.0


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False, softmax_out=None):
    """log(sum(exp(a))) along axis, computed as max + log(sum(exp(a - max))).

    A slice whose entries are all -inf gives -inf. Terms more than 700 below
    their slice's maximum count as exactly 0, which changes no sum.
    softmax_out, when given, receives the softmax of a along axis; it may be
    a itself, which is then overwritten. The EM E step uses this to turn log
    weights into responsibilities without a second exp pass.
    """
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
