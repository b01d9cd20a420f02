"""The package's shared primitives: the one stable log-sum-exp, through
which the classifier's log-softmax head and the mixture E step share one
formula and one rounding; the one block size and splitter of every pool
pass, scoring's rows and the partition's scores alike; the one finiteness
test; the config-field, whole-number and label checks; and the label gather.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

# Below this, exp(x) < 1e-304: nothing next to the largest term, exp(0) = 1,
# and slow to compute, since numpy's vectorized exp leaves its fast path for
# results near underflow. Such terms are flushed to exactly 0.
EXP_FLOOR = -700.0

# Rows per block of a pool-sized pass, the partition's scores included: a
# (ROW_BLOCK, d_feat) feature block is 4 MB at d_feat 64, where a whole
# 200k-row pool would be 102 MB. With OpenBLAS, reports at C = 4, 5 and 7 do
# not depend on the block size. At C = 2 and 3, and at C = 10 with 2-row
# blocks, a block's head product moves a subset's log-probabilities by a few
# ulps, and diana and source-free reports with them (tests/test_invariance.py,
# ROADMAP item 14).
ROW_BLOCK = 8192


def logsumexp(a: np.ndarray, softmax_out=None):
    """log(sum(exp(a))) along axis 0, as max + log(sum(exp(a - max))). The
    reduced axis comes first: numpy reduces a short last axis row by row, so
    the max of (96, 5) logits took 6.2 us along axis 1, 1.3 us along axis 0
    of their transpose. A column of all -inf gives -inf; terms more than 700
    below its maximum count as exactly 0, in every column alike: the flush
    branch is taken for the whole array when any one column needs it, and
    gives the other columns the bits of the plain branch. softmax_out, when
    given, receives the softmax along axis 0 (the E step's
    responsibilities, over all of a mixture's scores); it may be a.
    """
    a = np.asarray(a, dtype=float)
    m = a.max(axis=0, keepdims=True)
    if not np.isfinite(m).all():
        m = np.where(np.isfinite(m), m, 0.0)
    e = np.subtract(a, m, out=softmax_out)
    # the mask doubles as the branch test: an EM E step over a large pool
    # takes the floor branch, where a separate e.min() test is one more pass
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


def blocks(n: int) -> list[slice]:
    """Slices covering range(n) in ceil(n / ROW_BLOCK) contiguous blocks
    whose sizes differ by at most one (a single empty block when n is 0).

    Near-equal sizes leave no lone row, which BLAS would send down its
    matrix-vector path, and no tiny tail block, whose products a
    small-matrix kernel would compute; either moves the last ulp. Callers
    reduce over the full per-row outputs, never over per-block partial sums,
    so every reduction keeps its rounding.
    """
    count = max(1, -(-n // ROW_BLOCK))
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite: the package's one finiteness test."""
    return bool(np.isfinite(a).all())


def check_fields(cfg, finite=(), integers=None) -> None:
    """Reject a config dataclass whose named fields are out of range, naming
    the field. Each field in finite must be a finite int or float, numpy
    scalars included, not a bool. Each field in integers, a mapping
    name -> least value, must be an int or np.integer (not a bool) and at
    least that value. A field may be None only where its default is None,
    and is then left unchecked."""
    optional = {f.name for f in dataclasses.fields(cfg) if f.default is None}
    for name in finite:
        value = getattr(cfg, name)
        if value is None and name in optional:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name}={value!r} must be a number")
        try:
            in_range = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            in_range = False
        if not in_range:
            raise ValueError(f"{name} must be finite, got {value}")
    for name, least in (integers or {}).items():
        value = getattr(cfg, name)
        if value is None and name in optional:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name}={value!r} must be an integer")
        if value < least:
            raise ValueError(f"{name}={value} must be at least {least}")


def whole_numbers(a, what: str) -> np.ndarray:
    """a as an int64 array; ValueError naming what unless every entry is a
    whole number in int64's range [-2**63, 2**63), so that none wraps in the
    cast. Signed integer and bool arrays skip the test, and an int64 one is
    returned as it is, not copied; an array neither integer nor float
    (strings, objects) is refused."""
    a = np.asarray(a)
    kind = a.dtype.kind
    whole = kind in "bi" or (kind == "u" and np.all(a < 2**63)) or (
        kind == "f" and np.all((np.trunc(a) == a) & (a >= -(2.0**63)) & (a < 2.0**63))
    )
    if not whole:
        raise ValueError(f"{what} is not a whole number")
    return a.astype(np.int64, copy=False)


def checked_labels(y, C: int, first: int = 0, outside: str = "label outside [0, C)") -> np.ndarray:
    """y as an integer array; ValueError unless every label is a whole
    number in [first, first + C), with message outside when one is not in
    range. Integer arrays skip the whole-number test. Viewed as unsigned, a
    label below first exceeds any C, so one max checks both ends."""
    y = whole_numbers(y, "label")
    if y.size and (y - first if first else y).view(np.uint64).max() >= C:
        raise ValueError(outside)
    return y


def log_proba_at(logp: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row's log-probability at its label; ValueError unless there is
    exactly one label per row."""
    if len(y) != len(logp):
        raise ValueError(f"{len(y)} labels for {len(logp)} rows")
    return logp[np.arange(len(y)), y]
