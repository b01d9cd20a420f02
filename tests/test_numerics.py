"""The package's log-sum-exp against direct evaluation."""

import numpy as np
import pytest

from activeadapt.numerics import logsumexp


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
