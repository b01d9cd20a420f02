"""Semi-supervised EM over scalar scores.

Oracles: scipy.stats.norm for densities, pure-Python loop implementations
of the M-step and the weighted objective, and planted mixtures for
recovery checks. The plain EM map is pinned on _EmKernel: its E pass at
given parameters, and its M step from responsibilities the test sets.
"""

import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from activeadapt import gmm
from activeadapt.gmm import (
    SKETCH_ROWS,
    EmFit,
    GmmParams,
    GmmTrainSet,
    N_COMPONENTS,
    VARIANCE_FLOOR,
    _EmKernel,
    component_posterior,
    component_posteriors,
    fit_gmm,
    init_from_labeled,
    run_em,
    sketched,
)
from activeadapt.harness import RoundReport
from activeadapt.numerics import EXP_FLOOR, logsumexp
from blas_threads import last_words_by_thread_count
from em_reference import WholeArrayKernel, posteriors_ref

PLANTED_MEANS = (0.0, 1.0, 3.0, 6.0)


def planted_trainset(rng, means=PLANTED_MEANS, sigma=0.2, n_anchor=50, n_unlab=2000):
    labeled_scores, labeled_comps = [], []
    for k, m in enumerate(means):
        labeled_scores.append(m + sigma * rng.standard_normal(n_anchor))
        labeled_comps.append(np.full(n_anchor, k + 1))
    comp_u = rng.integers(0, 4, n_unlab)
    unlabeled = np.asarray(means)[comp_u] + sigma * rng.standard_normal(n_unlab)
    return GmmTrainSet(
        np.concatenate(labeled_scores), np.concatenate(labeled_comps), unlabeled
    )


def params_for(pi, mu, sigma2):
    return GmmParams(np.asarray(pi, float), np.asarray(mu, float), np.asarray(sigma2, float))


def kernel_at(ts: GmmTrainSet, p: GmmParams):
    """An _EmKernel after its E pass at p, and the objective of p. The
    kernel's responsibilities come back score-major, (n, 4)."""
    kernel = _EmKernel(ts)
    kernel.residuals(p.mu)
    return kernel, kernel.e_pass(p)


def kernel_e_step(ts: GmmTrainSet, p: GmmParams):
    """Labeled and unlabeled responsibilities at p, score-major."""
    kernel, _ = kernel_at(ts, p)
    return kernel.resp_l.T, kernel.resp.T


def kernel_m_step(ts: GmmTrainSet, gamma_u, prev: GmmParams) -> GmmParams:
    """_EmKernel.m_step from unlabeled responsibilities the test sets,
    score-major; the labeled side is one-hot at the observation labels."""
    kernel = _EmKernel(ts)
    kernel.resp = np.ascontiguousarray(np.asarray(gamma_u, dtype=float).reshape(-1, 4).T)
    return kernel.m_step(prev)


def log_density(scores, p: GmmParams) -> float:
    """Sum of log mixture densities at the scores, as the E pass of an
    unlabeled-only (alpha = 0) train set gives it."""
    ts = GmmTrainSet([0.0], [1], scores, alpha=0.0)
    return kernel_at(ts, p)[1]


# -- independent loop oracles -------------------------------------------------


def oracle_m_step(ts: GmmTrainSet, gamma_l, gamma_u, prev: GmmParams) -> GmmParams:
    a, b = ts.alpha, 1.0 - ts.alpha
    n_l, n_u = ts.labeled_scores.size, ts.unlabeled_scores.size
    pi, mu, s2 = [], [], []
    for k in range(N_COMPONENTS):
        sum_gl = sum(gamma_l[i][k] for i in range(n_l))
        sum_gu = sum(gamma_u[j][k] for j in range(n_u))
        mass = a * sum_gl + b * sum_gu
        pi.append(mass / (a * n_l + b * n_u))
        if mass < 1e-12:
            mu.append(prev.mu[k])
            s2.append(prev.sigma2[k])
            continue
        mk = (
            a * sum(gamma_l[i][k] * ts.labeled_scores[i] for i in range(n_l))
            + b * sum(gamma_u[j][k] * ts.unlabeled_scores[j] for j in range(n_u))
        ) / mass
        vk = (
            a * sum(gamma_l[i][k] * (ts.labeled_scores[i] - mk) ** 2 for i in range(n_l))
            + b * sum(gamma_u[j][k] * (ts.unlabeled_scores[j] - mk) ** 2 for j in range(n_u))
        ) / mass
        mu.append(mk)
        s2.append(max(vk, VARIANCE_FLOOR))
    return params_for(pi, mu, s2)


def oracle_objective(ts: GmmTrainSet, p: GmmParams) -> float:
    # a side with zero weight adds nothing, even where its log is undefined
    lab = unl = 0.0
    if ts.alpha > 0:
        lab = sum(
            math.log(p.pi[q - 1] * norm.pdf(s, p.mu[q - 1], math.sqrt(p.sigma2[q - 1])))
            for s, q in zip(ts.labeled_scores, ts.labeled_components)
        )
    if ts.alpha < 1:
        unl = sum(
            math.log(
                sum(
                    p.pi[k] * norm.pdf(s, p.mu[k], math.sqrt(p.sigma2[k]))
                    for k in range(N_COMPONENTS)
                )
            )
            for s in ts.unlabeled_scores
        )
    return ts.alpha * lab + (1 - ts.alpha) * unl


def oracle_responsibilities(ts: GmmTrainSet, p: GmmParams):
    """One-hot labeled rows and linear-domain unlabeled posteriors, as lists."""
    gamma_l = [[float(k == q - 1) for k in range(N_COMPONENTS)] for q in ts.labeled_components]
    gamma_u = []
    for s in ts.unlabeled_scores:
        dens = [p.pi[k] * norm.pdf(s, p.mu[k], math.sqrt(p.sigma2[k])) for k in range(N_COMPONENTS)]
        gamma_u.append([d / sum(dens) for d in dens])
    return gamma_l, gamma_u


def oracle_em(ts: GmmTrainSet, max_iter: int, tol: float):
    """Plain EM from the loop oracles: the parameters, and whether a step
    moved no parameter by tol within max_iter steps."""
    p = init_from_labeled(ts.labeled_scores, ts.labeled_components)
    for _ in range(max_iter):
        new = oracle_m_step(ts, *oracle_responsibilities(ts, p), p)
        if new.max_abs_diff(p) < tol:
            return new, True
        p = new
    return p, False


def oracle_least_squares(cols, rhs):
    """gamma minimising |rhs - sum_i gamma_i cols[i]| in Python floats:
    modified Gram-Schmidt on the columns with rhs carried along (Bjorck),
    then back substitution."""
    n = len(cols)
    q, r = [list(c) for c in cols], list(rhs)
    R, z = [[0.0] * n for _ in range(n)], [0.0] * n
    for i in range(n):
        R[i][i] = math.hypot(*q[i])
        q[i] = [v / R[i][i] for v in q[i]]
        for j in range(i + 1, n):
            R[i][j] = sum(a * b for a, b in zip(q[i], q[j]))
            q[j] = [b - R[i][j] * a for a, b in zip(q[i], q[j])]
        z[i] = sum(a * b for a, b in zip(q[i], r))
        r = [b - z[i] * a for a, b in zip(q[i], r)]
    gamma = [0.0] * n
    for i in reversed(range(n)):
        gamma[i] = (z[i] - sum(R[i][j] * gamma[j] for j in range(i + 1, n))) / R[i][i]
    return gamma


def oracle_anderson_point(states, plain):
    """The type-II Anderson point with Python arithmetic, from the last
    parameters theta (oldest first) and the plain EM step G(theta) of each,
    over log weights, means and log variances: (point, None), or (None,
    why) when there is no valid one."""
    if any(w == 0 for p in states + plain for w in p.pi):
        return None, "weight at 0"
    xs, gs = (
        [[*map(math.log, p.pi), *map(float, p.mu), *map(math.log, p.sigma2)] for p in ps]
        for ps in (states, plain)
    )
    f = [[b - a for a, b in zip(x, g)] for x, g in zip(xs, gs)]
    d_f = [[b - a for a, b in zip(f0, f1)] for f0, f1 in zip(f, f[1:])]
    d_g = [[b - a for a, b in zip(g0, g1)] for g0, g1 in zip(gs, gs[1:])]
    gamma = oracle_least_squares(d_f, f[-1])
    theta = [g - sum(c * d[i] for c, d in zip(gamma, d_g)) for i, g in enumerate(gs[-1])]
    log_pi, mu, log_s2 = theta[:4], theta[4:8], theta[8:]
    try:
        s2 = [math.exp(t) for t in log_s2]
    except OverflowError:
        return None, "non-finite"
    if not all(math.isfinite(x) for x in theta):
        return None, "non-finite"
    if min(s2) < VARIANCE_FLOOR:
        return None, "variance below floor"
    pi = [math.exp(t - max(log_pi)) for t in log_pi]
    return params_for([w / sum(pi) for w in pi], mu, s2), None


ORACLE_MEMORY = 2  # residual differences in each least-squares solve


def oracle_anderson(ts: GmmTrainSet, max_iter: int, tol: float):
    """run_em's Anderson EM from the loop oracles. Every update takes the
    plain EM step (oracle E step, oracle_m_step); every second one first
    tries the Anderson point of the last ORACLE_MEMORY + 1 pairs (theta,
    G(theta)) (oracle_anderson_point) and keeps it when its objective is
    not below the last one. Stops when a plain step moves no parameter by
    tol or more, or after max_iter updates. Returns the parameters, the
    objective after every accepted update, why each rejected point was
    rejected, and whether the fit converged."""
    p = init_from_labeled(ts.labeled_scores, ts.labeled_components)
    trace, rejected, converged = [oracle_objective(ts, p)], [], False
    states, plain = [], []
    while not converged and len(trace) <= max_iter:
        new = oracle_m_step(ts, *oracle_responsibilities(ts, p), p)
        converged = new.max_abs_diff(p) < tol
        states = (states + [p])[-ORACLE_MEMORY - 1 :]
        plain = (plain + [new])[-ORACLE_MEMORY - 1 :]
        if len(trace) % 2 and len(states) > 1 and not converged:
            point, why = oracle_anderson_point(states, plain)
            if point is not None:
                try:
                    objective = oracle_objective(ts, point)
                except ValueError:  # a density underflowed to 0: log of 0
                    objective = -math.inf
                if objective >= trace[-1]:
                    trace.append(objective)
                    p = point
                    continue
                why = "objective fell"
            rejected.append(why)
        trace.append(oracle_objective(ts, new))
        p = new
    return p, trace, rejected, converged


class TestTrainSet:
    def test_alpha_defaults_to_labeled_fraction(self):
        ts = GmmTrainSet([1.0, 2.0], [1, 2], [0.5, 0.7, 0.9])
        assert ts.alpha == pytest.approx(2 / 5)

    def test_empty_labeled_rejected(self):
        with pytest.raises(ValueError):
            GmmTrainSet([], [], [1.0])

    @pytest.mark.parametrize("bad", [[5, 1], [0, 1], [-1, 2]])
    def test_component_range_checked(self, bad):
        with pytest.raises(ValueError, match="components must lie in 1..4"):
            GmmTrainSet([1.0, 2.0], bad, [])
        with pytest.raises(ValueError, match="components must lie in 1..4"):
            init_from_labeled([1.0, 2.0], bad)

    @pytest.mark.parametrize("bad", [[2.7, 1.2], [1.0, np.nan], [np.inf, 1.0]])
    def test_fractional_components_rejected_not_truncated(self, bad):
        """[2.7, 1.2] used to be stored as components [2, 1]."""
        with pytest.raises(ValueError, match="not a whole number"):
            GmmTrainSet([0.1, 0.5], bad)
        with pytest.raises(ValueError, match="not a whole number"):
            init_from_labeled([0.1, 0.5], bad)

    def test_whole_valued_components_keep_their_values(self):
        ts = GmmTrainSet([0.1, 0.5, 0.9], np.array([[4.0, 1.0, 2.0]]))
        np.testing.assert_array_equal(ts.labeled_components, [4, 1, 2])
        assert ts.labeled_components.dtype.kind == "i"
        ints = np.array([3, 1, 2], dtype=np.int32)
        np.testing.assert_array_equal(GmmTrainSet([0.1, 0.5, 0.9], ints).labeled_components, ints)

    def test_alpha_override(self):
        ts = GmmTrainSet([1.0], [1], [2.0], alpha=0.9)
        assert ts.alpha == 0.9

    @pytest.mark.parametrize("labeled, unlabeled, message", [
        ([0.1, np.nan, 0.3, 0.4], [0.2, 0.5], "labeled score 1 is not finite (nan)"),
        ([0.1, 0.2, 0.3, 0.4], [0.2, np.inf, np.nan], "unlabeled score 1 is not finite (inf)"),
        ([0.1, 0.2, 0.3, 0.4], [0.2, 0.5, -np.inf], "unlabeled score 2 is not finite (-inf)"),
        ([-np.inf, 0.2, 0.3, 0.4], [np.nan], "labeled score 0 is not finite (-inf)"),
    ])
    def test_non_finite_score_rejected(self, labeled, unlabeled, message):
        """A NaN or infinite score used to build, and run_em then ran all 200
        updates to a NaN mean."""
        with pytest.raises(ValueError, match=re.escape(message)):
            GmmTrainSet(labeled, [1, 2, 3, 4], unlabeled)

    @pytest.mark.filterwarnings("error")
    def test_finite_scores_whose_sum_overflows_build(self):
        """Finite scores whose sum overflows build, and a NaN among them is
        found."""
        with np.errstate(over="raise", invalid="raise"):
            GmmTrainSet([1e308, 1e308, 0.3, 0.4], [1, 2, 3, 4], [1e308, 1e308])
        with pytest.raises(ValueError, match=re.escape("unlabeled score 2 is not finite (nan)")):
            GmmTrainSet([1e308, 1e308, 0.3, 0.4], [1, 2, 3, 4], [1e308, 1e308, np.nan])


class TestParams:
    def test_valid_params_build(self):
        p = GmmParams(pi=[0.1, 0.2, 0.3, 0.4], mu=[0, 1, 2, 3], sigma2=[1, 1, 1, VARIANCE_FLOOR])
        assert p.pi.dtype == float and p.mu.shape == (4,)

    @pytest.mark.parametrize("pi, mu, sigma2, message", [
        ([0.5, 0.5], [0, 1, 2, 3], [1, 1, 1, 1], "pi must have shape (4,)"),
        ([0.5, 0.6, 0.0, 0.0], [0, 1, 2, 3], [1, 1, 1, 1], "probability vector"),
        ([1.1, -0.1, 0.0, 0.0], [0, 1, 2, 3], [1, 1, 1, 1], "probability vector"),
        ([0.25] * 4, [0, 1, 2, 3], [1, 1, 1, 0.0], "variances must be >="),
        # finite weights whose sum overflows: refused by range, never summed
        ([1e308] * 4, [0, 1, 2, 3], [1, 1, 1, 1], "probability vector"),
        ([-1e308, -1e308, 1.0, 1.0], [0, 1, 2, 3], [1, 1, 1, 1], "probability vector"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_out_of_range_rejected(self, pi, mu, sigma2, message):
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(ValueError, match=re.escape(message)):
                GmmParams(pi=pi, mu=mu, sigma2=sigma2)

    @pytest.mark.parametrize("pi, mu, sigma2, message", [
        ([np.nan, 0.3, 0.3, 0.4], [0, 1, 2, np.inf], [np.nan, 1, 1, 1], "pi must be finite"),
        ([0.25] * 4, [0, 1, 2, np.inf], [1, 1, 1, 1], "mu must be finite, got [0.0, 1.0, 2.0, inf]"),
        ([0.25] * 4, [-np.inf, 1, 2, 3], [1, 1, 1, 1], "mu must be finite"),
        ([0.25] * 4, [0, 1, 2, 3], [1, np.nan, 1, 1], "sigma2 must be finite"),
        ([0.25] * 4, [0, 1, 2, 3], [1, 1, 1, np.inf], "sigma2 must be finite"),
    ])
    def test_non_finite_rejected(self, pi, mu, sigma2, message):
        """The first case used to build, and component_posteriors then
        returned all-NaN rows, which selection ranks last."""
        with pytest.raises(ValueError, match=re.escape(message)):
            GmmParams(pi=pi, mu=mu, sigma2=sigma2)


class TestInit:
    def test_laplace_smoothed_weights_and_means(self):
        """Counts (2,0,2,0) of 4 anchors smooth to (3/8, 1/8, 3/8, 1/8)."""
        p = init_from_labeled([0.1, 0.1, 2.0, 2.0], [1, 1, 3, 3])
        np.testing.assert_allclose(p.pi, [3 / 8, 1 / 8, 3 / 8, 1 / 8])
        assert p.mu[0] == pytest.approx(0.1)
        assert p.mu[2] == pytest.approx(2.0)
        # empty components fall back to the global mean
        global_mean = np.mean([0.1, 0.1, 2.0, 2.0])
        assert p.mu[1] == pytest.approx(global_mean)
        assert p.mu[3] == pytest.approx(global_mean)

    def test_identical_scores_floor_variance(self):
        p = init_from_labeled([1.5, 1.5, 1.5, 1.5], [1, 2, 3, 4])
        np.testing.assert_allclose(p.sigma2, VARIANCE_FLOOR)

    def test_singleton_component_mean(self):
        p = init_from_labeled([0.3, 1.7, 2.9, 4.4], [1, 2, 3, 4])
        np.testing.assert_allclose(p.mu, [0.3, 1.7, 2.9, 4.4])


class TestDensity:
    def test_single_component_peak(self):
        p = params_for([1, 0, 0, 0], [2.0, 0, 0, 0], [0.25, 1, 1, 1])
        got = math.exp(log_density([2.0], p))
        assert got == pytest.approx(1 / math.sqrt(2 * math.pi * 0.25), rel=1e-12)

    def test_single_component_symmetry(self):
        p = params_for([1, 0, 0, 0], [2.0, 0, 0, 0], [0.5, 1, 1, 1])
        assert log_density([2.7], p) == pytest.approx(log_density([1.3], p), rel=1e-12)

    def test_two_equal_components_standard_normal_oracle(self):
        """Equal components at 0 and 2 with unit variance give density
        phi(1) at the midpoint."""
        p = params_for([0.5, 0.5, 0, 0], [0.0, 2.0, 0, 0], [1.0, 1.0, 1, 1])
        want = 0.5 * norm.pdf(1, 0, 1) + 0.5 * norm.pdf(1, 2, 1)
        assert math.exp(log_density([1.0], p)) == pytest.approx(want, rel=1e-12)
        assert want == pytest.approx(0.2420, abs=5e-5)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_matches_linear_domain_oracle(self, seed, n):
        """One or several scores: the E pass sums their log densities."""
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(4))
        mu = rng.uniform(-3, 3, 4)
        s2 = rng.uniform(0.05, 2.0, 4)
        p = params_for(pi, mu, s2)
        xs = rng.uniform(-5, 5, n)
        want = sum(
            math.log(sum(pi[k] * norm.pdf(x, mu[k], math.sqrt(s2[k])) for k in range(4)))
            for x in xs
        )
        assert log_density(xs, p) == pytest.approx(want, rel=1e-10)


class TestEStep:
    def test_labeled_indicator_regardless_of_params(self):
        ts = GmmTrainSet([0.4], [2], [])
        for mu in ([0, 1, 2, 3], [9, 9, 9, 9]):
            p = params_for([0.25] * 4, mu, [1, 1, 1, 1])
            gl, _ = kernel_e_step(ts, p)
            np.testing.assert_array_equal(gl, [[0.0, 1.0, 0.0, 0.0]])

    def test_identical_components_posterior_equals_prior(self):
        ts = GmmTrainSet([0.4], [1], [1.7, 0.2])
        p = params_for([0.1, 0.2, 0.3, 0.4], [1.0] * 4, [0.5] * 4)
        _, gu = kernel_e_step(ts, p)
        np.testing.assert_allclose(gu, [[0.1, 0.2, 0.3, 0.4]] * 2, atol=1e-12)

    def test_score_at_separated_mean_is_confident(self):
        p = params_for([0.25] * 4, PLANTED_MEANS, [0.04] * 4)
        ts = GmmTrainSet([0.0], [1], [0.0, 6.0])
        _, gu = kernel_e_step(ts, p)
        assert gu[0, 0] > 0.99
        assert gu[1, 3] > 0.99

    def test_rows_normalized(self):
        rng = np.random.default_rng(3)
        ts = planted_trainset(rng, n_anchor=5, n_unlab=50)
        p = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        gl, gu = kernel_e_step(ts, p)
        np.testing.assert_allclose(gl.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(gu.sum(axis=1), 1.0, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_loop_oracle(self, seed):
        """Responsibilities and objective at random parameters against
        oracle_responsibilities and oracle_objective."""
        rng = np.random.default_rng(seed)
        ts = random_trainset(rng, n_l=6, n_u=15)
        p = params_for(rng.dirichlet(np.ones(4)), rng.uniform(0, 7, 4), rng.uniform(0.2, 3, 4))
        kernel, objective = kernel_at(ts, p)
        want_l, want_u = oracle_responsibilities(ts, p)
        np.testing.assert_array_equal(kernel.resp_l.T, want_l)
        np.testing.assert_allclose(kernel.resp.T, want_u, rtol=1e-10, atol=1e-14)
        assert objective == pytest.approx(oracle_objective(ts, p), rel=1e-10)


class TestMStep:
    def test_alpha_one_reduces_to_supervised_estimates(self):
        scores = np.array([0.1, 0.3, 1.9, 2.1, 4.0, 4.4, 6.0, 6.6])
        comps = np.array([1, 1, 2, 2, 3, 3, 4, 4])
        ts = GmmTrainSet(scores, comps, [10.0, 20.0], alpha=1.0)
        prev = init_from_labeled(scores, comps)
        new = kernel_m_step(ts, kernel_e_step(ts, prev)[1], prev)
        for k in range(4):
            own = scores[comps == k + 1]
            assert new.pi[k] == pytest.approx(len(own) / len(scores))
            assert new.mu[k] == pytest.approx(own.mean())
            assert new.sigma2[k] == pytest.approx(max(own.var(), VARIANCE_FLOOR))

    def test_alpha_zero_reduces_to_unsupervised_m_step(self):
        rng = np.random.default_rng(4)
        unl = rng.normal(2.0, 1.0, 40)
        ts = GmmTrainSet([0.0], [1], unl, alpha=0.0)
        prev = params_for([0.25] * 4, [0, 1.5, 3, 4.5], [0.5] * 4)
        _, gu = kernel_e_step(ts, prev)
        new = kernel_m_step(ts, gu, prev)
        for k in range(4):
            nk = gu[:, k].sum()
            assert new.pi[k] == pytest.approx(nk / len(unl))
            assert new.mu[k] == pytest.approx((gu[:, k] @ unl) / nk)
            want_var = (gu[:, k] @ (unl - new.mu[k]) ** 2) / nk
            assert new.sigma2[k] == pytest.approx(max(want_var, VARIANCE_FLOOR))

    def test_matches_loop_oracle_on_hand_data(self):
        """4 labeled + 4 unlabeled scores with hard responsibilities,
        against the independent pure-Python update."""
        ts = GmmTrainSet(
            [0.2, 0.9, 3.1, 5.9],
            [1, 2, 3, 4],
            [0.1, 1.1, 2.8, 6.2],
        )
        prev = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        gl, gu_soft = kernel_e_step(ts, prev)
        # hard responsibilities for the unlabeled side too
        gu = np.zeros_like(gu_soft)
        gu[np.arange(4), np.argmax(gu_soft, axis=1)] = 1.0
        got = kernel_m_step(ts, gu, prev)
        want = oracle_m_step(ts, gl.tolist(), gu.tolist(), prev)
        np.testing.assert_allclose(got.pi, want.pi, atol=1e-12)
        np.testing.assert_allclose(got.mu, want.mu, atol=1e-12)
        np.testing.assert_allclose(got.sigma2, want.sigma2, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_loop_oracle_with_set_responsibilities(self, seed):
        """Arbitrary unlabeled responsibilities the test draws, not ones an
        E pass produced, against the pure-Python update."""
        rng = np.random.default_rng(seed)
        ts = planted_trainset(rng, n_anchor=3, n_unlab=12)
        prev = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        gl, _ = oracle_responsibilities(ts, prev)
        gu = rng.dirichlet(np.full(4, 0.5), size=12)
        got = kernel_m_step(ts, gu, prev)
        want = oracle_m_step(ts, gl, gu.tolist(), prev)
        np.testing.assert_allclose(got.pi, want.pi, atol=1e-12)
        np.testing.assert_allclose(got.mu, want.mu, atol=1e-12)
        np.testing.assert_allclose(got.sigma2, want.sigma2, atol=1e-12)

    def test_matches_loop_oracle_with_soft_responsibilities(self):
        rng = np.random.default_rng(8)
        ts = planted_trainset(rng, n_anchor=3, n_unlab=12)
        prev = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        gl, gu = kernel_e_step(ts, prev)
        got = kernel_m_step(ts, gu, prev)
        want = oracle_m_step(ts, gl.tolist(), gu.tolist(), prev)
        np.testing.assert_allclose(got.pi, want.pi, atol=1e-12)
        np.testing.assert_allclose(got.mu, want.mu, atol=1e-12)
        np.testing.assert_allclose(got.sigma2, want.sigma2, atol=1e-12)

    def test_dead_component_keeps_previous_moments(self):
        ts = GmmTrainSet([0.5, 0.6], [1, 1], [], alpha=1.0)
        prev = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        new = kernel_m_step(ts, kernel_e_step(ts, prev)[1], prev)
        for k in (1, 2, 3):
            assert new.pi[k] == 0.0
            assert new.mu[k] == prev.mu[k]
            assert new.sigma2[k] == prev.sigma2[k]

    def test_m_step_leaves_residuals_about_the_new_means(self):
        """An E pass right after an M step needs no residual pass: its
        objective and responsibilities equal those of a fresh kernel."""
        rng = np.random.default_rng(12)
        ts = random_trainset(rng)
        kernel, _ = kernel_at(ts, init_from_labeled(ts.labeled_scores, ts.labeled_components))
        new = kernel.m_step(init_from_labeled(ts.labeled_scores, ts.labeled_components))
        got = kernel.e_pass(new)
        fresh, want = kernel_at(ts, new)
        assert got == want
        np.testing.assert_array_equal(kernel.resp, fresh.resp)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_simplex_and_floor_invariants(self, seed):
        rng = np.random.default_rng(seed)
        ts = planted_trainset(rng, n_anchor=4, n_unlab=30)
        p = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        for _ in range(3):
            p = kernel_m_step(ts, kernel_e_step(ts, p)[1], p)
            assert abs(p.pi.sum() - 1.0) < 1e-9
            assert (p.pi >= 0).all()
            assert (p.sigma2 >= VARIANCE_FLOOR * (1 - 1e-12)).all()


class TestFit:
    def test_empty_unlabeled_converges_to_supervised_estimates(self):
        scores = np.array([0.2, 0.4, 1.8, 2.2, 3.9, 4.1, 6.1, 6.3])
        comps = np.array([1, 1, 2, 2, 3, 3, 4, 4])
        p = fit_gmm(GmmTrainSet(scores, comps, []))
        for k in range(4):
            own = scores[comps == k + 1]
            assert p.pi[k] == pytest.approx(len(own) / len(scores))
            assert p.mu[k] == pytest.approx(own.mean())
            assert p.sigma2[k] == pytest.approx(max(own.var(), VARIANCE_FLOOR))

    def test_planted_mixture_recovery(self):
        rng = np.random.default_rng(123)
        ts = planted_trainset(rng)
        p = fit_gmm(ts)
        np.testing.assert_allclose(p.mu, PLANTED_MEANS, atol=0.1)

    def test_objective_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        ts = planted_trainset(rng, n_anchor=4, n_unlab=20)
        p = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        fit = run_em(ts, max_iter=0)
        assert fit.n_iter == 0 and not fit.converged
        assert fit.params.max_abs_diff(p) == 0.0
        assert fit.objective_trace == [fit.objective]
        assert fit.objective == pytest.approx(oracle_objective(ts, p), rel=1e-10)

    def test_monotone_objective(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            ts = planted_trainset(rng, n_anchor=10, n_unlab=200)
            fit = run_em(ts)
            diffs = np.diff(fit.objective_trace)
            assert (diffs >= -1e-9).all()

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        ts = planted_trainset(rng, n_anchor=8, n_unlab=100)
        a = run_em(ts)
        b = run_em(ts)
        assert a.n_iter == b.n_iter
        np.testing.assert_array_equal(a.params.mu, b.params.mu)
        np.testing.assert_array_equal(a.params.pi, b.params.pi)
        np.testing.assert_array_equal(a.params.sigma2, b.params.sigma2)

    def test_labeled_responsibilities_stay_one_hot(self):
        """Across one kernel's E passes and M steps, the labeled side stays
        one-hot at the observation labels."""
        rng = np.random.default_rng(10)
        ts = planted_trainset(rng, n_anchor=5, n_unlab=40)
        p = init_from_labeled(ts.labeled_scores, ts.labeled_components)
        kernel, _ = kernel_at(ts, p)
        want = np.zeros((len(ts.labeled_components), 4))
        want[np.arange(len(ts.labeled_components)), ts.labeled_components - 1] = 1.0
        for _ in range(4):
            p = kernel.m_step(p)
            kernel.e_pass(p)
            np.testing.assert_array_equal(kernel.resp_l.T, want)

    def test_round_report_gmm_block(self):
        rng = np.random.default_rng(11)
        fit = run_em(planted_trainset(rng, n_anchor=5, n_unlab=30))
        report = RoundReport(1, 0.5, {}, fit, [], None, None)
        payload = json.loads(json.dumps(report.to_dict()))["gmm"]
        assert list(payload) == ["pi", "mu", "sigma2", "n_iter", "converged", "objective"]
        assert payload["converged"] is fit.converged
        assert len(payload["pi"]) == 4


def random_trainset(rng, n_l=10, n_u=30, alpha=None):
    comps = rng.integers(1, 5, n_l)
    labeled = rng.normal(1.5 * comps, 0.6)
    unlabeled = rng.uniform(0.0, 7.0, n_u)
    return GmmTrainSet(labeled, comps, unlabeled, alpha=alpha)


def assert_fit_matches_oracle(ts: GmmTrainSet, max_iter: int = 12, tol: float = 1e-6):
    """run_em and oracle_anderson agree on the parameters and the whole
    trace. Both stop at run_em's default tol: near the optimum a plain step
    much below it moves the objective by less than its rounding, so a point
    tried there could be ranked either way. Returns the fit and the
    oracle's rejection reasons."""
    fit = run_em(ts, max_iter=max_iter, tol=tol)
    want, trace, rejected, converged = oracle_anderson(ts, max_iter, tol)
    for got_v, want_v in zip(fit.params.as_tuple(), want.as_tuple()):
        np.testing.assert_allclose(got_v, want_v, rtol=1e-10, atol=0)
    np.testing.assert_allclose(fit.objective_trace, trace, rtol=1e-10, atol=0)
    assert fit.n_iter == len(trace) - 1
    assert fit.converged == converged
    return fit, rejected


class TestRunEmAgainstOracle:
    """run_em against the Anderson EM built from the loop oracles: the same
    parameters and the same objective trace, update by update. The plain EM map itself
    is pinned by the _EmKernel tests: TestEStep (residuals plus e_pass at
    given parameters) and TestMStep (m_step from responsibilities the test
    sets)."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_train_sets(self, seed):
        assert_fit_matches_oracle(random_trainset(np.random.default_rng(seed)))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_extremes(self, alpha):
        assert_fit_matches_oracle(random_trainset(np.random.default_rng(21), alpha=alpha))

    def test_empty_unlabeled_set(self):
        ts = random_trainset(np.random.default_rng(22), n_u=0)
        assert ts.unlabeled_scores.size == 0
        assert_fit_matches_oracle(ts)

    def test_dead_component(self):
        """Unsupervised updates (alpha = 0) with component 4 anchored far from
        every unlabeled score: its responsibilities are all zero, so it keeps
        its starting mean and variance and its weight drops to exactly 0."""
        rng = np.random.default_rng(23)
        labeled = np.array([0.5, 0.7, 2.0, 2.3, 4.1, 3.8, 500.0, 500.1])
        comps = np.array([1, 1, 2, 2, 3, 3, 4, 4])
        ts = GmmTrainSet(labeled, comps, rng.uniform(0.0, 5.0, 40), alpha=0.0)
        start = init_from_labeled(labeled, comps)
        fit, rejected = assert_fit_matches_oracle(ts)
        assert "weight at 0" in rejected  # no log weight: no Anderson point
        assert fit.params.pi[3] == 0.0
        assert fit.params.mu[3] == start.mu[3]
        assert fit.params.sigma2[3] == start.sigma2[3]

    def test_rejected_extrapolations_leave_the_trace_monotone(self):
        """Anderson points whose objective fell, or with a variance below the
        floor, are rejected: they add nothing to the trace and the fit takes
        the plain step. This train set shows both. (A weight cannot turn
        negative: the point is taken in log weights.)"""
        ts = random_trainset(np.random.default_rng(7), n_l=8, n_u=10)
        fit, rejected = assert_fit_matches_oracle(ts)
        assert {"objective fell", "variance below floor"} <= set(rejected)
        assert (np.diff(fit.objective_trace) >= -1e-9).all()

    def test_non_finite_point_rejected(self):
        """A point that overflows is no valid mixture. No train set whose
        plain steps stay finite reaches one, since the least-squares cutoff
        bounds gamma, so this history is set by hand: the first mean
        converges at rate 1/2 towards 2e308, and its secant point overflows."""
        def params(mu_1):
            return params_for([0.25] * 4, [mu_1, 1.0, 2.0, 3.0], [1.0] * 4)

        states, plain = [params(0.0), params(1e308)], [params(1e308), params(1.5e308)]
        assert oracle_anderson_point(states, plain) == (None, "non-finite")
        with np.errstate(over="ignore", invalid="ignore"):
            coords = [[gmm._coordinates(p) for p in ps] for ps in (states, plain)]
            assert gmm._anderson_point(*coords) is None


def slow_overlapping_trainset():
    """Four anchors and 20 unlabeled scores from one broad normal: the
    components overlap, so plain EM converges slowly."""
    rng = np.random.default_rng(3)
    labeled = np.array([0.0, 0.6, 1.2, 1.8]) + 0.3 * rng.standard_normal(4)
    return GmmTrainSet(labeled, [1, 2, 3, 4], rng.normal(0.9, 0.7, 20))


class TestSquarem:
    """The accelerated fit against plain EM and against its cap. (The class
    is named for SQUAREM, the scheme Anderson acceleration replaced.)"""

    def test_converges_within_the_cap_where_plain_em_does_not(self):
        ts = slow_overlapping_trainset()
        _, plain_converged = oracle_em(ts, 200, 1e-6)
        assert not plain_converged
        fit = run_em(ts)
        assert fit.converged
        assert fit.n_iter < 200
        assert (np.diff(fit.objective_trace) >= -1e-9).all()

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 5])
    def test_updates_never_exceed_the_cap(self, max_iter):
        """Every iteration adds one update, an accepted Anderson point or
        the plain step, so the fit stops at the cap exactly."""
        fit = run_em(slow_overlapping_trainset(), max_iter=max_iter)
        assert fit.n_iter == max_iter
        assert len(fit.objective_trace) == fit.n_iter + 1
        assert fit.objective == fit.objective_trace[-1]
        assert not fit.converged

    def test_e_passes_stay_under_the_bound(self, monkeypatch):
        """The E passes of the default fit, counted on the kernel: at most
        75. Plain EM does not converge within 200 updates; SQUAREM took 104
        passes; Anderson acceleration takes 64: one for the start, one per
        update and one more per rejected point."""
        passes = []
        real = _EmKernel.e_pass

        def counted(kernel, params):
            passes.append(params)
            return real(kernel, params)

        monkeypatch.setattr(_EmKernel, "e_pass", counted)
        fit = run_em(slow_overlapping_trainset())
        assert fit.converged
        assert fit.n_iter + 1 <= len(passes) <= 75


class TestConverged:
    def test_capped_fit_is_not_converged(self):
        fit = run_em(planted_trainset(np.random.default_rng(31)), max_iter=1)
        assert fit.n_iter == 1
        assert not fit.converged

    def test_planted_mixture_converges(self):
        fit = run_em(planted_trainset(np.random.default_rng(32)))
        assert fit.converged
        assert fit.n_iter < 200


class TestPosterior:
    def test_dominant_component(self):
        p = params_for([1.0, 0.0, 0.0, 0.0], [1.0, 0, 0, 0], [0.5, 1, 1, 1])
        np.testing.assert_allclose(component_posterior(3.0, p), [1, 0, 0, 0])

    def test_equidistant_symmetry(self):
        p = params_for([0.5, 0.5, 0, 0], [0.0, 2.0, 0, 0], [0.7, 0.7, 1, 1])
        post = component_posterior(1.0, p)
        assert post[0] == pytest.approx(0.5, abs=1e-12)
        assert post[1] == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_direct_formula_to_1e12(self, seed):
        rng = np.random.default_rng(seed)
        pi = rng.dirichlet(np.ones(4))
        mu = rng.uniform(-3, 3, 4)
        s2 = rng.uniform(0.05, 2.0, 4)
        p = params_for(pi, mu, s2)
        x = rng.uniform(-4, 4)
        dens = np.array(
            [pi[k] * norm.pdf(x, mu[k], math.sqrt(s2[k])) for k in range(4)]
        )
        want = dens / dens.sum()
        np.testing.assert_allclose(component_posterior(x, p), want, atol=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(13)
        p = params_for(rng.dirichlet(np.ones(4)), rng.uniform(0, 5, 4), rng.uniform(0.1, 1, 4))
        post = component_posteriors(rng.uniform(-2, 8, 100), p)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-9)


# -- whole-array passes -------------------------------------------------------

N_WIDE = 32_769  # unlabeled scores in the whole-array tests


def _bits(x):
    x = np.asarray(x)
    return x.dtype, x.shape, x.tobytes()


def whole_array_fit(ts: GmmTrainSet, monkeypatch, **kw) -> EmFit:
    with monkeypatch.context() as m:
        m.setattr(gmm, "_EmKernel", WholeArrayKernel)
        return run_em(ts, **kw)


def assert_same_fit(got: EmFit, want: EmFit):
    for g, w in zip(got.params.as_tuple(), want.params.as_tuple()):
        assert _bits(g) == _bits(w)
    assert _bits(got.objective_trace) == _bits(want.objective_trace)
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)


def wide_trainset(rng, n_u=N_WIDE, outliers=(), alpha=None):
    """Planted close components (sigma 0.2): no log weight of an inlier falls
    EXP_FLOOR below its column's maximum. Scores at the outlier positions
    are replaced by 40.0, far enough out to flush every narrow component."""
    means = np.array([0.0, 0.5, 1.5, 3.0])
    comps = np.repeat(np.arange(1, 5), 10)
    labeled = means[comps - 1] + 0.2 * rng.standard_normal(comps.size)
    unlabeled = means[rng.integers(0, 4, n_u)] + 0.2 * rng.standard_normal(n_u)
    unlabeled[list(outliers)] = 40.0
    return GmmTrainSet(labeled, comps, unlabeled, alpha=alpha)


class TestColumnBlocks:
    """The per-score passes run on each whole (4, n) array, as one block of
    n columns; every result matches the whole-array forms of
    tests/em_reference.py bit for bit."""

    @pytest.mark.parametrize("alpha", [None, 0.0, 0.5, 1.0])
    def test_run_em_matches_whole_array_passes(self, alpha, monkeypatch):
        ts = wide_trainset(np.random.default_rng(41), alpha=alpha)
        fit = run_em(ts)
        assert fit.n_iter > (0 if alpha == 1.0 else 2)
        assert_same_fit(fit, whole_array_fit(ts, monkeypatch))

    def test_component_posteriors_match_whole_array_pass(self):
        rng = np.random.default_rng(42)
        p = params_for(rng.dirichlet(np.ones(4)), rng.uniform(0, 5, 4), rng.uniform(0.01, 1, 4))
        scores = rng.uniform(-2, 8, N_WIDE)
        scores[16_391] = 60.0  # one column flushes
        assert _bits(component_posteriors(scores, p)) == _bits(posteriors_ref(scores, p))

    def test_blocks_with_and_without_flushed_terms(self, monkeypatch):
        """50 outliers among inliers: every E pass takes log-sum-exp's flush
        branch for the whole array, and the fit is the reference's, whose
        inlier columns take that branch too."""
        ts = wide_trainset(np.random.default_rng(43), outliers=range(16_384, 16_434))
        flushed = []

        def spy(a, softmax_out):
            flushed.append(bool((a - a.max(axis=0) < EXP_FLOOR).any()))
            return logsumexp(a, softmax_out=softmax_out)

        with monkeypatch.context() as m:
            m.setattr(gmm, "logsumexp", spy)
            fit = run_em(ts)
        assert len(flushed) >= len(fit.objective_trace)
        assert all(flushed)
        assert_same_fit(fit, whole_array_fit(ts, monkeypatch))

    def test_dead_component_weight_stays_exactly_zero(self, monkeypatch):
        """As TestRunEmAgainstOracle.test_dead_component, over N_WIDE scores:
        flushed terms are exact zeros, so component 4's responsibilities
        sum to 0.0 and so does its weight."""
        rng = np.random.default_rng(44)
        labeled = np.array([0.5, 0.7, 2.0, 2.3, 4.1, 3.8, 500.0, 500.1])
        comps = np.array([1, 1, 2, 2, 3, 3, 4, 4])
        ts = GmmTrainSet(labeled, comps, rng.uniform(0.0, 5.0, N_WIDE), alpha=0.0)
        start = init_from_labeled(labeled, comps)
        fit = run_em(ts, max_iter=12, tol=0.0)
        assert fit.params.pi[3] == 0.0
        assert fit.params.mu[3] == start.mu[3]
        assert fit.params.sigma2[3] == start.sigma2[3]
        assert_same_fit(fit, whole_array_fit(ts, monkeypatch, max_iter=12, tol=0.0))

    def test_e_pass_memory_is_the_kernel_buffers_and_one_block(self):
        """Peak traced memory of a fit: the kernel's two (4, n_u) buffers and
        one block, the whole array, of log-sum-exp temporaries: its maxima,
        flush mask and sums, which become the log mixture densities, about
        2.5 (n_u,) vectors (measured 2.53). Under three vectors, so one more
        (4, n_u) temporary in any pass would exceed it."""
        n_u = 49_152
        ts = wide_trainset(np.random.default_rng(45), n_u=n_u)
        tracemalloc.start()
        try:
            run_em(ts, max_iter=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        f8 = np.dtype(float).itemsize
        kernel_buffers = 2 * N_COMPONENTS * n_u * f8
        assert peak <= kernel_buffers + 3 * n_u * f8


def weight_ratio(ts: GmmTrainSet) -> float:
    """The unlabeled side's total weight over the labeled side's."""
    return (1 - ts.alpha) * ts.unlabeled_scores.size / (ts.alpha * ts.labeled_scores.size)


class TestSketch:
    """gmm.sketched: the train set a large pool's mixture is fitted on."""

    def test_at_the_limit_the_train_set_is_kept(self):
        ts = planted_trainset(np.random.default_rng(50), n_unlab=SKETCH_ROWS)
        assert sketched(ts) is ts

    @pytest.mark.parametrize("extra", [1, 5, SKETCH_ROWS // 2, 5 * SKETCH_ROWS + 3])
    def test_one_middle_order_statistic_per_group(self, extra):
        """m = ceil(n_u / SKETCH_ROWS); the sorted scores in groups of m
        give the middle one of each group, the last, shorter group
        included, and the labeled side is passed on as it is."""
        n_u = SKETCH_ROWS + extra
        ts = planted_trainset(np.random.default_rng(51), n_unlab=n_u)
        sk = sketched(ts)
        m = math.ceil(n_u / SKETCH_ROWS)
        ordered = np.sort(ts.unlabeled_scores)
        groups = [ordered[i : i + m] for i in range(0, n_u, m)]
        assert sk.unlabeled_scores.size == math.ceil(n_u / m) == len(groups)
        np.testing.assert_array_equal(sk.unlabeled_scores, [g[len(g) // 2] for g in groups])
        assert _bits(sk.labeled_scores) == _bits(ts.labeled_scores)
        np.testing.assert_array_equal(sk.labeled_components, ts.labeled_components)

    @pytest.mark.parametrize("alpha", [None, 0.3, 0.9])
    def test_unlabeled_weight_ratio_is_the_full_sets(self, alpha):
        ts = planted_trainset(np.random.default_rng(52), n_unlab=SKETCH_ROWS + 1)
        if alpha is not None:
            ts = GmmTrainSet(ts.labeled_scores, ts.labeled_components, ts.unlabeled_scores, alpha)
        sk = sketched(ts)
        assert sk.unlabeled_scores.size < ts.unlabeled_scores.size
        assert weight_ratio(sk) == pytest.approx(weight_ratio(ts), rel=1e-12, abs=0)

    def test_row_order_does_not_matter(self):
        ts = planted_trainset(np.random.default_rng(53), n_unlab=3 * SKETCH_ROWS + 7)
        shuffled = np.random.default_rng(54).permutation(ts.unlabeled_scores)
        other = GmmTrainSet(ts.labeled_scores, ts.labeled_components, shuffled)
        a, b = sketched(ts), sketched(other)
        assert _bits(a.unlabeled_scores) == _bits(b.unlabeled_scores)
        assert a.alpha == b.alpha

    def test_sketched_fit_lands_near_the_full_fit(self):
        """A planted mixture of 100k unlabeled scores with unequal weights
        and spreads (m = 4): every fitted weight, mean and variance of the
        sketch lies within 0.01 of the full fit's. Seeds 0-5 of this set-up
        moved at most 0.0035."""
        rng = np.random.default_rng(0)
        means, spreads = np.array(PLANTED_MEANS), np.array([0.3, 0.5, 0.8, 1.2])
        comps = np.repeat(np.arange(N_COMPONENTS), 200)
        labeled = means[comps] + spreads[comps] * rng.standard_normal(comps.size)
        pick = rng.choice(N_COMPONENTS, 100_000, p=[0.4, 0.3, 0.2, 0.1])
        unlabeled = means[pick] + spreads[pick] * rng.standard_normal(pick.size)
        ts = GmmTrainSet(labeled, comps + 1, unlabeled)
        full, sk = run_em(ts), run_em(sketched(ts))
        assert full.converged and sk.converged
        assert sk.params.max_abs_diff(full.params) <= 0.01


# A bimodal set of SKETCH_ROWS unlabeled scores, fitted in a fresh
# interpreter whose BLAS runs on the given number of threads (set before
# numpy is first imported); prints a hash of the fitted parameters and the
# objective trace.
_THREADED_FIT = """
import hashlib, sys
sys.path.insert(0, {src!r})
import numpy as np
from activeadapt.gmm import SKETCH_ROWS, GmmTrainSet, run_em

rng = np.random.default_rng(61)
side = rng.integers(0, 2, SKETCH_ROWS)
scores = np.where(side, 2.5, 0.3) + np.where(side, 0.6, 0.2) * rng.standard_normal(SKETCH_ROWS)
comps = np.repeat(np.arange(1, 5), 20)
labeled = np.array([0.1, 0.6, 2.0, 3.5])[comps - 1] + 0.3 * rng.standard_normal(comps.size)
fit = run_em(GmmTrainSet(labeled, comps, scores))
h = hashlib.sha256()
for a in (*fit.params.as_tuple(), np.array(fit.objective_trace)):
    h.update(a.tobytes())
print(h.hexdigest())
"""


def test_em_fit_does_not_depend_on_the_blas_thread_count():
    """OpenBLAS splits a long reduction across its threads, which changes
    the order of its partial sums. Every reduction over the scores must
    therefore give the same bits at 1 and 2 threads (never more threads
    than this process may run on)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    hashes = last_words_by_thread_count(
        _THREADED_FIT.format(src=src), "one CPU: BLAS cannot split a reduction across threads")
    assert hashes[1] == hashes[2], hashes
