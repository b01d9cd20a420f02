"""The package's log-sum-exp against direct evaluation and, bit for bit,
against its plain reference form."""

import numpy as np
import pytest

from activeadapt.numerics import logsumexp
from step_reference import logsumexp_ref


@pytest.mark.parametrize("axis", [0, 1])
def test_matches_direct_formula(axis):
    a = np.random.default_rng(0).uniform(-30, 30, (5, 7))
    want = np.log(np.sum(np.exp(a), axis=axis))
    np.testing.assert_allclose(logsumexp(a, axis=axis), want, rtol=1e-14)
    kept = logsumexp(a, axis=axis, keepdims=True)
    assert kept.shape == np.expand_dims(want, axis).shape


def test_softmax_out_in_place():
    a = np.random.default_rng(1).normal(0, 5, (4, 50))
    want = np.exp(a - np.log(np.sum(np.exp(a), axis=0)))
    lse = logsumexp(a, axis=0, softmax_out=a)
    np.testing.assert_allclose(a, want, rtol=1e-13, atol=1e-300)
    np.testing.assert_allclose(a.sum(axis=0), 1.0, rtol=1e-14)
    assert lse.shape == (50,)


def test_large_offsets_do_not_overflow():
    a = np.array([[1000.0, 1000.0], [-1000.0, -1000.0 + np.log(3.0)]])
    np.testing.assert_allclose(
        logsumexp(a, axis=1), [1000.0 + np.log(2.0), -1000.0 + np.log(4.0)], rtol=1e-15
    )


def test_all_minus_inf_slice_gives_minus_inf():
    a = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
    with np.errstate(divide="ignore"):
        out = logsumexp(a, axis=1)
    assert out[0] == -np.inf
    assert out[1] == 0.0


def test_terms_far_below_the_maximum_flush_to_zero():
    """exp(-800) underflows; the term leaves the sum unchanged and its
    softmax entry is exactly 0, not a subnormal."""
    a = np.array([[0.0, -800.0, -1.0]])
    sm = np.empty_like(a)
    lse = logsumexp(a, axis=1, softmax_out=sm)
    assert lse[0] == np.log(1.0 + np.exp(-1.0))
    assert sm[0, 1] == 0.0
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
@pytest.mark.parametrize("keepdims", [False, True])
def test_bit_identical_to_reference(name, axis, keepdims):
    """The same floating-point operations as the plain reference form, so
    every result, every NaN and every signed zero matches it bit for bit,
    with and without a separate softmax buffer."""
    a = LSE_CASES[name]
    if a.shape[axis] == 0:
        for fn in (logsumexp, logsumexp_ref):
            with pytest.raises(ValueError):
                fn(a, axis=axis)
        return
    assert _bits(logsumexp(a, axis=axis, keepdims=keepdims)) == _bits(
        logsumexp_ref(a, axis=axis, keepdims=keepdims)
    )
    got_sm, want_sm = np.empty_like(a), np.empty_like(a)
    got = logsumexp(a, axis=axis, softmax_out=got_sm)
    want = logsumexp_ref(a, axis=axis, softmax_out=want_sm)
    assert _bits(got) == _bits(want)
    assert _bits(got_sm) == _bits(want_sm)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["random", "all_minus_inf_slice", "nan", "below_floor"])
def test_softmax_out_aliasing_its_input_matches_reference(name):
    got, want = LSE_CASES[name].copy(), LSE_CASES[name].copy()
    lse = logsumexp(got, axis=0, softmax_out=got)
    lse_ref = logsumexp_ref(want, axis=0, softmax_out=want)
    assert _bits(lse) == _bits(lse_ref)
    assert _bits(got) == _bits(want)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_maxima_sum_overflow_keeps_finite_result():
    """m.sum() overflows to inf here (numpy warns) although every maximum is
    finite; the result is still the plain formula's."""
    a = LSE_CASES["maxima_near_1e308"]
    assert not np.isfinite(np.max(a, axis=1).sum())
    np.testing.assert_array_equal(logsumexp(a, axis=1), [1e308, 1.7e308])
