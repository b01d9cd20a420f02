"""The package's one stable log-sum-exp, its one config-field check and its
one whole-number check.

The classifier's log-softmax head (which scoring runs too) and the mixture
E step normalize through it, reduced axis first as numpy reduces a short
last axis row by row, so they share one formula and one rounding. Configs
check fields through check_fields, label and id arrays through whole_numbers.
"""

from __future__ import annotations

import math

import numpy as np

# Below this, exp(x) < 1e-304: nothing next to the largest term, exp(0) = 1,
# and slow to compute, since numpy's vectorized exp leaves its fast path for
# results near underflow. Such terms are flushed to exactly 0.
EXP_FLOOR = -700.0


def logsumexp(a: np.ndarray, softmax_out=None):
    """log(sum(exp(a))) along axis 0, as max + log(sum(exp(a - max))). The
    reduced axis comes first: numpy reduces a short last axis row by row, so
    the max of (96, 5) logits took 6.2 us along axis 1, 1.3 us along axis 0
    of their transpose. A column of all -inf gives -inf; terms more than 700
    below its maximum count as exactly 0. softmax_out, when given, receives
    the softmax along axis 0 (the E step's responsibilities); it may be a.
    """
    a = np.asarray(a, dtype=float)
    m = a.max(axis=0, keepdims=True)
    # a finite sum means every maximum is finite; one that overflows only
    # costs the per-element test
    if not math.isfinite(m.sum()):
        m = np.where(np.isfinite(m), m, 0.0)
    e = np.subtract(a, m, out=softmax_out)
    # the mask doubles as the branch test: the EM E step takes the floor
    # branch on large pools, where a separate e.min() test is one more pass
    keep = e >= EXP_FLOOR
    if keep.all():
        np.exp(e, out=e)
    else:
        np.maximum(e, EXP_FLOOR, out=e)
        np.exp(e, out=e)
        e *= keep
    s = e.sum(axis=0, keepdims=True)
    if softmax_out is not None:
        np.divide(e, s, out=e)
    out = np.log(s, out=s)
    out += m
    return out[0]


def check_fields(cfg, finite=(), integers=None) -> None:
    """Reject a config whose named fields are out of range, naming the field.
    Each field in finite must be finite. Each field in integers, a mapping
    name -> least value, must be an int or np.integer (not a bool) and at
    least that value. A field that is None is left unchecked."""
    for name in finite:
        value = getattr(cfg, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, least in (integers or {}).items():
        value = getattr(cfg, name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name}={value!r} must be an integer")
        if value < least:
            raise ValueError(f"{name}={value} must be at least {least}")


def whole_numbers(a, what: str) -> np.ndarray:
    """a as an int64 array; ValueError naming what unless every entry is a
    finite whole number. Integer and bool arrays skip the test, and an int64
    one is returned as it is, not copied; an array neither integer nor float
    (strings, objects) is refused."""
    a = np.asarray(a)
    kind = a.dtype.kind
    if kind not in "biu" and (kind != "f" or not np.all(np.isfinite(a) & (np.trunc(a) == a))):
        raise ValueError(f"{what} is not a whole number")
    return a.astype(np.int64, copy=False)
