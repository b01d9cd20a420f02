"""Semi-supervised EM over scalar scores.

Oracles: scipy.stats.norm for densities, pure-Python loop implementations
of the M-step and the weighted objective, and planted mixtures for
recovery checks. The plain EM map is pinned on _EmKernel: its E pass at
given parameters, and its M step from responsibilities the test sets.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from activeadapt.gmm import (
    EmFit,
    GmmParams,
    GmmTrainSet,
    N_COMPONENTS,
    VARIANCE_FLOOR,
    _EmKernel,
    component_posterior,
    component_posteriors,
    dump_params,
    fit_gmm,
    init_from_labeled,
    run_em,
)

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


def oracle_extrapolate(p0: GmmParams, p1: GmmParams, p2: GmmParams):
    """The SQUAREM (S3) point over the 12 scalars with Python arithmetic:
    (point, None), or (None, why) when there is no valid point."""
    t0, t1, t2 = ([*p.pi, *p.mu, *p.sigma2] for p in (p0, p1, p2))
    r = [b - a for a, b in zip(t0, t1)]
    v = [c - b - d for b, c, d in zip(t1, t2, r)]
    norm_r = math.sqrt(sum(x * x for x in r))
    norm_v = math.sqrt(sum(x * x for x in v))
    if norm_v == 0:
        return None, "v = 0"
    alpha = min(-norm_r / norm_v, -1.0)
    if alpha == -1.0:
        return None, "alpha = -1"
    theta = [a - 2 * alpha * b + alpha**2 * c for a, b, c in zip(t0, r, v)]
    pi, mu, s2 = theta[:4], theta[4:8], theta[8:]
    if not all(math.isfinite(x) for x in theta):
        return None, "non-finite"
    if min(pi) < 0:
        return None, "negative weight"
    if min(s2) < VARIANCE_FLOOR:
        return None, "variance below floor"
    total = sum(pi)
    return params_for([x / total for x in pi], mu, s2), None


def oracle_squarem(ts: GmmTrainSet, max_iter: int):
    """run_em's SQUAREM cycle with tol = 0, from the loop oracles: two plain
    EM steps (oracle E step, oracle_m_step), then the extrapolated point,
    kept only when its objective is not below the last one. Returns the
    parameters, the objective after every accepted update, and why each
    rejected point was rejected."""
    p = init_from_labeled(ts.labeled_scores, ts.labeled_components)
    trace = [oracle_objective(ts, p)]
    path, rejected = [p], []
    while len(trace) <= max_iter:
        p = oracle_m_step(ts, *oracle_responsibilities(ts, p), p)
        trace.append(oracle_objective(ts, p))
        path.append(p)
        if len(path) == 3 and len(trace) <= max_iter:
            point, why = oracle_extrapolate(*path)
            if point is not None:
                try:
                    objective = oracle_objective(ts, point)
                except ValueError:  # a density underflowed to 0: log of 0
                    objective = -math.inf
                if objective >= trace[-1]:
                    trace.append(objective)
                    p = point
                else:
                    why = "objective fell"
            if why is not None:
                rejected.append(why)
            path = [p]
    return p, trace, rejected


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

    def test_dump_params(self, tmp_path):
        rng = np.random.default_rng(11)
        fit = run_em(planted_trainset(rng, n_anchor=5, n_unlab=30))
        path = tmp_path / "gmm.json"
        dump_params(path, fit)
        import json

        payload = json.loads(path.read_text())
        assert list(payload) == ["pi", "mu", "sigma2", "n_iter", "converged", "objective"]
        assert payload["converged"] is fit.converged
        assert len(payload["pi"]) == 4


def random_trainset(rng, n_l=10, n_u=30, alpha=None):
    comps = rng.integers(1, 5, n_l)
    labeled = rng.normal(1.5 * comps, 0.6)
    unlabeled = rng.uniform(0.0, 7.0, n_u)
    return GmmTrainSet(labeled, comps, unlabeled, alpha=alpha)


def assert_fit_matches_oracle(ts: GmmTrainSet, max_iter: int = 12):
    """run_em and oracle_squarem agree on the parameters and the whole trace.
    Returns the fit and the oracle's rejection reasons."""
    fit = run_em(ts, max_iter=max_iter, tol=0.0)
    want, trace, rejected = oracle_squarem(ts, max_iter)
    for got_v, want_v in zip(fit.params.as_tuple(), want.as_tuple()):
        np.testing.assert_allclose(got_v, want_v, rtol=1e-10, atol=0)
    np.testing.assert_allclose(fit.objective_trace, trace, rtol=1e-10, atol=0)
    assert fit.n_iter == max_iter == len(trace) - 1
    return fit, rejected


class TestRunEmAgainstOracle:
    """run_em against the SQUAREM cycle built from the loop oracles: same
    parameters and the same objective trace, update by update. The plain EM
    map itself is pinned by the _EmKernel tests: TestEStep (residuals plus
    e_pass at given parameters) and TestMStep (m_step from responsibilities
    the test sets)."""

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
        fit, _ = assert_fit_matches_oracle(ts)
        assert fit.params.pi[3] == 0.0
        assert fit.params.mu[3] == start.mu[3]
        assert fit.params.sigma2[3] == start.sigma2[3]

    def test_rejected_extrapolations_leave_the_trace_monotone(self):
        """Points whose objective fell, or that are no valid mixture, are
        rejected: they add nothing to the trace and the fit carries on from
        the second plain step. On this train set one point has a negative
        weight and variances above the floor, so only the weight check
        rejects it."""
        fit, rejected = assert_fit_matches_oracle(random_trainset(np.random.default_rng(109)))
        assert {"objective fell", "alpha = -1", "variance below floor",
                "negative weight"} <= set(rejected)
        assert (np.diff(fit.objective_trace) >= -1e-9).all()


def slow_overlapping_trainset():
    """Four anchors and 20 unlabeled scores from one broad normal: the
    components overlap, so plain EM converges slowly."""
    rng = np.random.default_rng(3)
    labeled = np.array([0.0, 0.6, 1.2, 1.8]) + 0.3 * rng.standard_normal(4)
    return GmmTrainSet(labeled, [1, 2, 3, 4], rng.normal(0.9, 0.7, 20))


class TestSquarem:
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
        """An accepted extrapolation counts as an update, so it is attempted
        only while the cap leaves room for it."""
        fit = run_em(slow_overlapping_trainset(), max_iter=max_iter)
        assert fit.n_iter == max_iter
        assert len(fit.objective_trace) == fit.n_iter + 1
        assert fit.objective == fit.objective_trace[-1]
        assert not fit.converged


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
