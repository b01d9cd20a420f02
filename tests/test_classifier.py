"""Forward pass, losses, augmentation, and hand-derived gradients.

Expected values come from independent scalar arithmetic (math.tanh/exp) or
from a central finite-difference oracle, never from the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeadapt.classifier import (
    Classifier,
    NonFiniteGradientError,
    TrainConfig,
    augment,
    backward_and_step,
    combined_grads,
    combined_loss,
    load_checkpoint,
    loss_entropy,
    loss_supervised,
    save_checkpoint,
)
from oracles import forward_probs

IDENTITY_AUG = TrainConfig(aug_noise_sigma=0.0, aug_dropout_p=0.0)


def two_class_model(scale=1.0):
    """d_in=1, d_feat=1, C=2 with feature tanh(x) and logits (s*f, -s*f)."""
    return Classifier(
        W_hidden=np.array([[1.0]]),
        b_hidden=np.zeros(1),
        W_out=np.array([[scale, -scale]]),
        b_out=np.zeros(2),
    )


def x_for_prob(p0, scale=1.0):
    """Input whose class-0 probability under two_class_model is exactly p0:
    p0 = 1 / (1 + exp(-2 s tanh(x)))."""
    f = math.log(p0 / (1 - p0)) / (2 * scale)
    assert abs(f) < 1
    return np.array([math.atanh(f)])


def random_model(rng, d_in=3, d_feat=4, C=3):
    return Classifier(
        W_hidden=rng.standard_normal((d_in, d_feat)),
        b_hidden=rng.standard_normal(d_feat),
        W_out=rng.standard_normal((d_feat, C)),
        b_out=rng.standard_normal(C),
    )


class TestForward:
    def test_zero_weights_uniform(self):
        model = Classifier(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 5)), np.zeros(5))
        p = model.predict_proba(np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_allclose(p, np.full((1, 5), 0.2), atol=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_matches_loop_oracle(self, seed, n):
        """Features and probabilities of one or several rows against the
        loop oracle, row by row; probabilities are normalized and positive,
        and predict is their argmax."""
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        X = 3 * rng.standard_normal((n, 3))
        F, P = model.features(X), model.predict_proba(X)
        assert F.shape == (n, 4) and P.shape == (n, 3)
        for x, f, p in zip(X, F, P):
            want_f, want_p = forward_probs(model, x.tolist())
            np.testing.assert_allclose(f, want_f, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(p, want_p, rtol=1e-10, atol=1e-15)
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
        assert (P > 0).all()
        np.testing.assert_array_equal(np.exp(model.log_proba(X)), P)
        np.testing.assert_array_equal(model.predict(X), np.argmax(P, axis=1))

    def test_hand_computed_two_class(self):
        """One hidden unit on scalar input against explicit arithmetic."""
        model = Classifier(
            W_hidden=np.array([[0.5]]),
            b_hidden=np.array([0.1]),
            W_out=np.array([[1.0, -1.0]]),
            b_out=np.array([0.2, -0.3]),
        )
        x = np.array([[2.0]])
        f, p = model.features(x)[0], model.predict_proba(x)[0]
        feat = math.tanh(0.5 * 2.0 + 0.1)
        z0, z1 = feat + 0.2, -feat - 0.3
        e0, e1 = math.exp(z0), math.exp(z1)
        assert f[0] == pytest.approx(feat, abs=1e-15)
        assert p[0] == pytest.approx(e0 / (e0 + e1), abs=1e-12)
        assert p[1] == pytest.approx(e1 / (e0 + e1), abs=1e-12)

    @pytest.mark.parametrize("method", ["features", "log_proba", "predict_proba", "predict"])
    def test_dimension_and_finiteness_errors(self, method):
        model = two_class_model()
        with pytest.raises(ValueError):
            getattr(model, method)(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            getattr(model, method)(np.array([[0.0], [np.nan]]))


class TestSupervisedLoss:
    def test_perfect_prediction_zero(self):
        model = two_class_model(scale=500.0)  # saturates to P=1 exactly
        x = np.array([[5.0]])
        assert loss_supervised(model, x, [0]) == 0.0

    def test_uniform_prediction_log_c(self):
        model = Classifier(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4))
        X = np.ones((6, 2))
        assert loss_supervised(model, X, [0, 1, 2, 3, 0, 1]) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_two_sample_arithmetic(self):
        """Probabilities 0.5 and 0.25 at the true class give
        (-log 0.5 - log 0.25) / 2."""
        model = two_class_model()
        X = np.vstack([x_for_prob(0.5), x_for_prob(0.25)])
        got = loss_supervised(model, X, [0, 0])
        assert got == pytest.approx((-math.log(0.5) - math.log(0.25)) / 2, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            loss_supervised(two_class_model(), np.zeros((0, 1)), [])


class TestAugment:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = augment(x, IDENTITY_AUG, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_full_dropout_zeroes_everything(self):
        cfg = TrainConfig(aug_noise_sigma=0.5, aug_dropout_p=1.0 - 1e-12)
        out = augment(np.ones(200), cfg, np.random.default_rng(0))
        assert np.count_nonzero(out) == 0

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(aug_noise_sigma=0.3, aug_dropout_p=0.2)
        x = np.linspace(-1, 1, 9)
        a = augment(x, cfg, np.random.default_rng(42))
        b = augment(x, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)


class TestConsistencyLoss:
    """The consistency part of combined_loss: cross-entropy at the
    similarity-based labels of inputs the caller has already perturbed."""

    def test_identity_aug_equals_supervised(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        X = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, 8)
        X_cc = augment(X, IDENTITY_AUG, np.random.default_rng(0))
        bd = combined_loss(model, X, y, X_cc, y, np.zeros((0, 3)), 0.5, 0.1)
        assert bd.consistency == loss_supervised(model, X, y)

    def test_hand_value(self):
        model = two_class_model()
        x = x_for_prob(0.8)[None, :]
        bd = combined_loss(model, x, [0], x, [0], np.zeros((0, 1)), 0.5, 0.1)
        assert bd.consistency == pytest.approx(-math.log(0.8), abs=1e-12)

    def test_empty_batch_zero(self):
        bd = combined_loss(
            two_class_model(), x_for_prob(0.8)[None, :], [0], np.zeros((0, 1)), [],
            np.zeros((0, 1)), 0.5, 0.1,
        )
        assert bd.consistency == 0.0
        assert bd.empty_consistency_batch


class TestEntropyLoss:
    def test_one_hot_zero(self):
        model = two_class_model(scale=500.0)
        assert loss_entropy(model, np.array([[5.0]])) == 0.0

    def test_uniform_log_c(self):
        model = Classifier(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 5)), np.zeros(5))
        assert loss_entropy(model, np.ones((4, 2))) == pytest.approx(math.log(5), abs=1e-12)

    def test_hand_value_09_01(self):
        model = two_class_model(scale=2.0)
        got = loss_entropy(model, x_for_prob(0.9, scale=2.0)[None, :])
        want = -0.9 * math.log(0.9) - 0.1 * math.log(0.1)
        assert got == pytest.approx(want, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bounded_by_log_c(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        X = 2 * rng.standard_normal((5, 3))
        val = loss_entropy(model, X)
        assert 0.0 <= val <= math.log(3) + 1e-12


class TestTotalLoss:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.model = random_model(rng)
        self.X_l = rng.standard_normal((6, 3))
        self.y_l = rng.integers(0, 3, 6)
        self.X_cc = rng.standard_normal((4, 3))
        self.y_cc = rng.integers(0, 3, 4)
        self.X_uc = rng.standard_normal((5, 3))

    def test_zero_weights_reduce_to_supervised(self):
        bd = combined_loss(
            self.model, self.X_l, self.y_l, self.X_cc, self.y_cc, self.X_uc, 0.0, 0.0
        )
        assert bd.total == loss_supervised(self.model, self.X_l, self.y_l)

    def test_empty_aux_batches_reduce_to_supervised(self):
        cfg = TrainConfig()
        bd = combined_loss(
            self.model, self.X_l, self.y_l, np.zeros((0, 3)), [], np.zeros((0, 3)),
            cfg.lambda_c, cfg.lambda_e,
        )
        assert bd.total == loss_supervised(self.model, self.X_l, self.y_l)
        assert bd.empty_consistency_batch and bd.empty_entropy_batch

    def test_affine_combination_exact(self):
        """total = sup + 0.5 * con + 0.1 * ent, from the same components."""
        bd = combined_loss(
            self.model, self.X_l, self.y_l, self.X_cc, self.y_cc, self.X_uc, 0.5, 0.1
        )
        assert bd.total == bd.supervised + 0.5 * bd.consistency + 0.1 * bd.entropy

    def test_weighted_component_arithmetic(self):
        """Component losses (1.0, 0.4, 0.2) with default weights combine to
        1.0 + 0.5*0.4 + 0.1*0.2 = 1.22."""
        assert 1.0 + 0.5 * 0.4 + 0.1 * 0.2 == pytest.approx(1.22, abs=1e-15)
        bd = combined_loss(
            self.model, self.X_l, self.y_l, self.X_cc, self.y_cc, self.X_uc, 0.5, 0.1
        )
        want = bd.supervised + 0.5 * bd.consistency + 0.1 * bd.entropy
        assert bd.total == pytest.approx(want, abs=1e-15)


# -- gradient oracle ----------------------------------------------------------


def flat_params(model):
    return np.concatenate([v.ravel() for v in model.params().values()])


def set_flat(model, vec):
    i = 0
    for v in model.params().values():
        v[...] = vec[i : i + v.size].reshape(v.shape)
        i += v.size


def fd_gradient(model, loss_fn, h=1e-5):
    """Central finite differences over every parameter."""
    base = flat_params(model).copy()
    grad = np.zeros_like(base)
    for i in range(base.size):
        for sign in (+1, -1):
            vec = base.copy()
            vec[i] += sign * h
            set_flat(model, vec)
            grad[i] += sign * loss_fn(model)
    set_flat(model, base)
    return grad / (2 * h)


def max_rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-8))


def analytic_flat(model, X_l, y_l, X_cc, y_cc, X_uc, lc, le):
    g = combined_grads(model, X_l, y_l, X_cc, y_cc, X_uc, lc, le)
    return np.concatenate([g[k].ravel() for k in model.params()])


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_each_loss_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        X = rng.standard_normal((6, 3))
        y = rng.integers(0, 3, 6)
        empty = (np.zeros((0, 3)), np.zeros(0, dtype=int))

        # supervised
        ga = analytic_flat(model, X, y, *empty, np.zeros((0, 3)), 0.0, 0.0)
        gn = fd_gradient(model, lambda m: loss_supervised(m, X, y))
        assert max_rel_err(ga, gn) < 1e-4

        # consistency with identity augmentation = cross-entropy at y_sim;
        # isolate it by sending a single-sample supervised batch with zero
        # effect? the loss is additive, so subtract the supervised part
        ga_full = analytic_flat(model, X, y, X, y, np.zeros((0, 3)), 1.0, 0.0)
        gn_con = fd_gradient(
            model, lambda m: loss_supervised(m, X, y) + loss_supervised(m, X, y)
        )
        assert max_rel_err(ga_full, gn_con) < 1e-4

        # entropy
        ga_ent = analytic_flat(model, X, y, *empty, X, 0.0, 1.0)
        gn_ent = fd_gradient(
            model, lambda m: loss_supervised(m, X, y) + loss_entropy(m, X)
        )
        assert max_rel_err(ga_ent, gn_ent) < 1e-4

    @pytest.mark.parametrize("seed", range(3))
    def test_combined_objective_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_model(rng)
        X_l = rng.standard_normal((5, 3))
        y_l = rng.integers(0, 3, 5)
        X_cc = rng.standard_normal((4, 3))
        y_cc = rng.integers(0, 3, 4)
        X_uc = rng.standard_normal((3, 3))
        ga = analytic_flat(model, X_l, y_l, X_cc, y_cc, X_uc, 0.5, 0.1)
        gn = fd_gradient(
            model,
            lambda m: combined_loss(m, X_l, y_l, X_cc, y_cc, X_uc, 0.5, 0.1).total,
        )
        assert max_rel_err(ga, gn) < 1e-4


class TestStep:
    def test_zero_learning_rate_no_change(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        before = flat_params(model).copy()
        cfg = TrainConfig(learning_rate=0.0, aug_noise_sigma=0.0, aug_dropout_p=0.0)
        X = rng.standard_normal((4, 3))
        y = rng.integers(0, 3, 4)
        backward_and_step(
            model, (X, y), (np.zeros((0, 3)), []), np.zeros((0, 3)), cfg, rng
        )
        np.testing.assert_array_equal(flat_params(model), before)

    def test_single_sample_descent(self):
        """A small step on one labeled sample lowers that sample's loss."""
        rng = np.random.default_rng(6)
        model = random_model(rng)
        x = rng.standard_normal((1, 3))
        y = np.array([1])
        before = loss_supervised(model, x, y)
        cfg = TrainConfig(learning_rate=1e-2, aug_noise_sigma=0.0, aug_dropout_p=0.0)
        backward_and_step(model, (x, y), (np.zeros((0, 3)), []), np.zeros((0, 3)), cfg, rng)
        assert loss_supervised(model, x, y) < before

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_gradient_aborts(self):
        """A corrupted (infinite) weight makes the gradients NaN; the step
        must abort with parameters untouched."""
        model = two_class_model()
        model.W_out[0, 0] = np.inf
        before = flat_params(model).copy()
        cfg = TrainConfig(learning_rate=0.1, aug_noise_sigma=0.0, aug_dropout_p=0.0)
        with pytest.raises(NonFiniteGradientError):
            backward_and_step(
                model,
                (np.array([[1.0]]), [0]),
                (np.zeros((0, 1)), []),
                np.zeros((0, 1)),
                cfg,
                np.random.default_rng(0),
            )
        np.testing.assert_array_equal(flat_params(model), before)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        cfg = TrainConfig(learning_rate=0.037, lambda_c=0.5, lambda_e=0.1, seed=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, cfg)
        loaded, cfg2 = load_checkpoint(path)
        for k in model.params():
            np.testing.assert_array_equal(loaded.params()[k], model.params()[k])
        assert cfg2 == cfg

    def test_version_check(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ValueError):
            load_checkpoint(path)
