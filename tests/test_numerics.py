"""The package's log-sum-exp against direct evaluation and, bit for bit,
against its plain reference form; and the class-major log-softmax head
against the row-major form it replaced."""

import numpy as np
import pytest

from activeadapt.classifier import _log_softmax
from activeadapt.numerics import EXP_FLOOR, logsumexp
from step_reference import logsumexp_ref


def _axis_first(a, axis):
    """A contiguous copy of a with axis moved to the front, where logsumexp
    reduces."""
    return np.moveaxis(a, axis, 0).copy()


@pytest.mark.parametrize("axis", [0, 1])
def test_matches_direct_formula(axis):
    a = np.random.default_rng(0).uniform(-30, 30, (5, 7))
    want = np.log(np.sum(np.exp(a), axis=axis))
    got = logsumexp(_axis_first(a, axis))
    np.testing.assert_allclose(got, want, rtol=1e-14)
    assert got.shape == want.shape


def test_softmax_out_in_place():
    a = np.random.default_rng(1).normal(0, 5, (4, 50))
    want = np.exp(a - np.log(np.sum(np.exp(a), axis=0)))
    lse = logsumexp(a, softmax_out=a)
    np.testing.assert_allclose(a, want, rtol=1e-13, atol=1e-300)
    np.testing.assert_allclose(a.sum(axis=0), 1.0, rtol=1e-14)
    assert lse.shape == (50,)


def test_large_offsets_do_not_overflow():
    a = np.array([[1000.0, -1000.0], [1000.0, -1000.0 + np.log(3.0)]])
    np.testing.assert_allclose(
        logsumexp(a), [1000.0 + np.log(2.0), -1000.0 + np.log(4.0)], rtol=1e-15
    )


def test_all_minus_inf_slice_gives_minus_inf():
    a = np.array([[-np.inf, 0.0], [-np.inf, -np.inf]])
    with np.errstate(divide="ignore"):
        out = logsumexp(a)
    assert out[0] == -np.inf
    assert out[1] == 0.0


def test_terms_far_below_the_maximum_flush_to_zero():
    """exp(-800) underflows; the term leaves the sum unchanged and its
    softmax entry is exactly 0, not a subnormal."""
    a = np.array([[0.0], [-800.0], [-1.0]])
    sm = np.empty_like(a)
    lse = logsumexp(a, softmax_out=sm)
    assert lse[0] == np.log(1.0 + np.exp(-1.0))
    assert sm[1, 0] == 0.0
    assert sm[0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-1.0)), rel=1e-15)


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


LSE_CASES = {
    "random": np.random.default_rng(2).normal(0, 20, (9, 6)),
    "all_minus_inf_slice": np.array([[-np.inf, -np.inf, -np.inf], [0.0, -1.0, -np.inf]]),
    "nan": np.array([[0.0, np.nan, 1.0], [2.0, 3.0, -1.0]]),
    "plus_inf": np.array([[np.inf, 0.0, -1.0], [1.0, np.inf, np.inf]]),
    "below_floor": np.array([[0.0, -701.0, -3.0], [5.0, -1e4, 4.0]]),
    # finite maxima whose sum overflows: only the per-element test may run
    "maxima_near_1e308": np.array([[1e308, 0.0, -1.0], [1.5e308, 1.7e308, 3.0]]),
    "empty_rows": np.zeros((0, 4)),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(LSE_CASES))
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("softmax", [False, True])
def test_bit_identical_to_reference(name, axis, softmax):
    """The same floating-point operations as the plain reference form along
    axis 0, so every result, every NaN and every signed zero matches it bit
    for bit, without and with (softmax) a separate softmax buffer. Each
    case's slices along axis are reduced, moved to the front."""
    a = _axis_first(LSE_CASES[name], axis)
    if a.shape[0] == 0:
        with pytest.raises(ValueError):
            logsumexp(a)
        with pytest.raises(ValueError):
            logsumexp_ref(a, axis=0)
        return
    got_sm, want_sm = (np.empty_like(a), np.empty_like(a)) if softmax else (None, None)
    got = logsumexp(a, softmax_out=got_sm)
    want = logsumexp_ref(a, axis=0, softmax_out=want_sm)
    assert _bits(got) == _bits(want)
    if softmax:
        assert _bits(got_sm) == _bits(want_sm)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["random", "all_minus_inf_slice", "nan", "below_floor"])
def test_softmax_out_aliasing_its_input_matches_reference(name):
    got, want = LSE_CASES[name].copy(), LSE_CASES[name].copy()
    lse = logsumexp(got, softmax_out=got)
    lse_ref = logsumexp_ref(want, axis=0, softmax_out=want)
    assert _bits(lse) == _bits(lse_ref)
    assert _bits(got) == _bits(want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_maxima_sum_overflow_keeps_finite_result():
    """m.sum() overflows to inf here (numpy warns) although every maximum is
    finite; the result is still the plain formula's."""
    a = LSE_CASES["maxima_near_1e308"].T.copy()
    assert not np.isfinite(np.max(a, axis=0).sum())
    np.testing.assert_array_equal(logsumexp(a), [1e308, 1.7e308])


def _random_logits(rng, n, C):
    """(n, C) logits at a random scale; about every third draw floors some
    terms, pushing one class more than 700 below each row's maximum."""
    z = rng.normal(0.0, rng.choice([1e-3, 1.0, 30.0, 300.0]), (n, C))
    if rng.random() < 0.35:
        z[np.arange(n), rng.integers(0, C, n)] += EXP_FLOOR - rng.uniform(1.0, 50.0)
    return z


def _row_major(z):
    return z - logsumexp_ref(z, axis=1, keepdims=True)


@pytest.mark.parametrize("C", range(2, 8))
def test_log_softmax_is_the_row_major_form_below_eight_classes(C):
    """Below 8 classes numpy sums a row left to right, as the class-major
    sum adds class rows, so reducing z.T.copy() along axis 0 gives the old
    row-major log-softmax bit for bit, at n = 1 too (where z.T is already
    contiguous) and with floored terms."""
    rng = np.random.default_rng(100 + C)
    floored = 0
    for n in [1, 1, 2, 3, 7, 8, 9, 31, 96, 257, *rng.integers(1, 600, 30)]:
        z = _random_logits(rng, int(n), C)
        floored += bool((z - z.max(axis=1, keepdims=True) < EXP_FLOOR).any())
        want = _row_major(z)
        got = _log_softmax(z.copy())
        assert got.tobytes() == want.tobytes(), (n, C)
    assert floored >= 3


@pytest.mark.parametrize("C", range(8, 17))
def test_log_softmax_near_the_row_major_form_from_eight_classes(C):
    """From 8 classes numpy's row sum keeps eight partial sums, which the
    class-major sum does not reproduce. The two log-sum-exps then differ by
    at most 4 eps max(1, |lse|), and each log-probability by that plus the
    one ulp its own subtraction may round to (about 1e-13 on a floored
    entry near -700)."""
    rng = np.random.default_rng(200 + C)
    eps = np.finfo(float).eps
    for n in [1, 2, 9, 96, 257, *rng.integers(1, 600, 10)]:
        z = _random_logits(rng, int(n), C)
        lse = logsumexp_ref(z, axis=1, keepdims=True)
        want = z - lse
        err = np.abs(_log_softmax(z.copy()) - want)
        bound = 4 * eps * np.maximum(1.0, np.abs(lse)) + np.spacing(np.abs(want))
        assert (err <= bound).all(), (n, C, err.max())
