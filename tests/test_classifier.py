"""Forward pass, losses, augmentation, and hand-derived gradients.

Expected values come from independent scalar arithmetic (math.tanh/exp) or
from a central finite-difference oracle, never from the code under test.
"""

import copy
import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activeadapt.classifier import (
    ROW_BLOCK,
    Classifier,
    EpochSteps,
    NonFiniteGradientError,
    TrainConfig,
    _row_blocks,
    augment,
    backward_and_step,
    combined_grads,
    combined_loss,
    draw_perturbation,
    loss_entropy,
    loss_supervised,
)
from activeadapt.harness import _train_epochs
from activeadapt.numerics import logsumexp
from oracles import forward_probs
from step_reference import (
    augment_ref,
    backward_and_step_ref,
    combined_grads_ref,
)

IDENTITY_AUG = TrainConfig(aug_noise_sigma=0.0, aug_dropout_p=0.0)


def perturb(x, cfg, rng):
    """x perturbed with draws from rng."""
    return augment(x, cfg, *draw_perturbation(rng, np.shape(x), cfg))


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", ["features", "log_proba", "predict_proba", "predict"])
    def test_dimension_and_finiteness_errors(self, method):
        model = two_class_model()
        with pytest.raises(ValueError):
            getattr(model, method)(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError):
            getattr(model, method)(np.array([[0.0], [np.nan]]))
        with pytest.raises(ValueError):
            getattr(model, method)([[np.inf], [-np.inf]])  # the sum is NaN

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lists_rows_and_overflowing_sums_accepted(self):
        """A list, a 1-D row and finite inputs whose sum overflows all pass
        the input check and give the 2-D array's features."""
        model = two_class_model()
        np.testing.assert_array_equal(model.features([[0.5], [2.0]]),
                                      model.features(np.array([[0.5], [2.0]])))
        np.testing.assert_array_equal(model.features(np.array([0.5])), model.features([[0.5]]))
        assert np.isfinite(model.features([[1.5e308], [1.5e308]])).all()


class TestParameters:
    def test_params_are_views_of_one_theta(self):
        """The four parameters are views of theta, laid out in params()
        order: a change to theta changes them, and assigning a parameter
        writes into theta."""
        model = random_model(np.random.default_rng(12))
        params = model.params()
        assert list(params) == ["W_hidden", "b_hidden", "W_out", "b_out"]
        np.testing.assert_array_equal(flat_params(model), model.theta)
        model.theta += 1.0
        for name, v in params.items():
            assert np.shares_memory(v, model.theta) and v is getattr(model, name)
        np.testing.assert_array_equal(flat_params(model), model.theta)
        model.W_out = np.zeros((4, 3))
        assert params["W_out"].sum() == 0.0 and np.shares_memory(model.W_out, model.theta)
        with pytest.raises(ValueError, match="must have shape"):
            model.b_out = np.zeros(4)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda m: pickle.loads(pickle.dumps(m))])
    def test_a_copy_has_its_own_theta(self, copier):
        """A copied model's parameters are views of its own theta, equal to
        the original's, and a step of the copy leaves the original as it
        was."""
        model = random_model(np.random.default_rng(13))
        before = model.theta.copy()
        twin = copier(model)
        np.testing.assert_array_equal(twin.theta, before)
        for v in twin.params().values():
            assert np.shares_memory(v, twin.theta)
            assert not np.shares_memory(v, model.theta)
        twin.theta += 1.0
        np.testing.assert_array_equal(flat_params(twin), twin.theta)
        np.testing.assert_array_equal(model.theta, before)

    def test_constructor_copies_its_inputs(self):
        """Changing an array after it built a model leaves the model as it
        was."""
        arrays = [np.ones((3, 4)), np.zeros(4), np.ones((4, 2)), np.zeros(2)]
        model = Classifier(*arrays)
        for a in arrays:
            a += 7.0
        for v, a in zip(model.params().values(), arrays):
            np.testing.assert_array_equal(v, a - 7.0)


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

    def test_fractional_labels_rejected(self):
        """Labels 0.9 and 2.7 would truncate to 0 and 2; they raise instead,
        and whole-valued floats give the loss of the integer labels."""
        rng = np.random.default_rng(4)
        model = random_model(rng)
        X = rng.standard_normal((2, 3))
        for bad in ([0.9, 2.7], [0.0, np.nan], [1.0, np.inf]):
            with pytest.raises(ValueError, match="whole number"):
                loss_supervised(model, X, bad)
            with pytest.raises(ValueError, match="whole number"):
                analytic_flat(model, X, bad, X[:0], [], X[:0], 0.5, 0.1)
        assert loss_supervised(model, X, [0.0, 2.0]) == loss_supervised(model, X, [0, 2])

    @pytest.mark.parametrize("n", [10, 6])
    def test_label_count_must_match_rows(self, n):
        """8 labels for 10 rows used to average the first 8 rows only, and
        for 6 rows failed with a bare IndexError; both name the counts now,
        in the supervised and in the consistency term."""
        rng = np.random.default_rng(5)
        model = random_model(rng)
        X, y = rng.standard_normal((n, 3)), rng.integers(0, 3, 8)
        message = f"8 labels for {n} rows"
        with pytest.raises(ValueError, match=message):
            loss_supervised(model, X, y)
        with pytest.raises(ValueError, match=message):
            combined_loss(model, X, y, X[:0], [], X[:0], 0.5, 0.1)
        with pytest.raises(ValueError, match=message):
            combined_loss(model, X[:8], y, X, y, X[:0], 0.5, 0.1)


def whole_matrix_log_proba(model, X):
    """Features and log-probabilities of every row from whole-matrix products,
    with no row blocking."""
    F = np.tanh(X @ model.W_hidden + model.b_hidden)
    z = F @ model.W_out + model.b_out
    return F, z - logsumexp(z.T.copy())[:, None]


def block_sizes(monkeypatch):
    """Row counts of every Classifier.features call from here on."""
    sizes, real = [], Classifier.features

    def spy(self, X):
        sizes.append(np.atleast_2d(X).shape[0])
        return real(self, X)

    monkeypatch.setattr(Classifier, "features", spy)
    return sizes


class TestRowBlocks:
    """Pool-sized passes go through the model in near-equal row blocks and
    give, bit for bit, the rows of whole-matrix products."""

    N = 2 * ROW_BLOCK + 1

    @pytest.mark.parametrize("n", [0, 1, 2, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1, 200_000])
    def test_block_layout(self, n):
        blocks = _row_blocks(n)
        assert len(blocks) == max(1, -(-n // ROW_BLOCK))
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [s.stop - s.start for s in blocks]
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= ROW_BLOCK
        assert n == 1 or min(sizes) != 1

    @pytest.fixture(scope="class")
    def pool_pass(self):
        rng = np.random.default_rng(19)
        model = Classifier.initialize(8, 64, 5, rng)
        model.b_hidden[:] = 0.1 * rng.standard_normal(64)
        model.b_out[:] = rng.standard_normal(5)
        X = 2 * rng.standard_normal((self.N, 8))
        y = rng.integers(0, 5, self.N)
        return model, X, y

    def test_forward_passes_match_whole_matrix(self, pool_pass, monkeypatch):
        model, X, y = pool_pass
        sizes = block_sizes(monkeypatch)
        F, logp = whole_matrix_log_proba(model, X)
        np.testing.assert_array_equal(model.log_proba(X), logp)
        np.testing.assert_array_equal(model.predict(X), np.argmax(F @ model.W_out + model.b_out, axis=1))
        assert sizes == [5461, 5462, 5462] * 2

    def test_losses_match_whole_matrix(self, pool_pass):
        model, X, y = pool_pass
        _, logp = whole_matrix_log_proba(model, X)
        assert loss_supervised(model, X, y) == float(-np.mean(logp[np.arange(self.N), y]))
        assert loss_entropy(model, X) == float(np.mean(-np.sum(np.exp(logp) * logp, axis=1)))

    def test_empty_and_single_row_inputs(self, pool_pass):
        model, X, y = pool_pass
        lp0, pred0 = model.log_proba(X[:0]), model.predict(X[:0])
        assert lp0.shape == (0, 5) and lp0.dtype == np.float64
        assert pred0.shape == (0,) and pred0.dtype == np.intp
        assert loss_entropy(model, X[:0]) == 0.0
        with pytest.raises(ValueError, match="non-empty"):
            loss_supervised(model, X[:0], y[:0])
        F, logp = whole_matrix_log_proba(model, X[:1])
        for row in (X[:1], X[0]):
            np.testing.assert_array_equal(model.log_proba(row), logp)
            np.testing.assert_array_equal(model.predict(row), np.argmax(F @ model.W_out + model.b_out, axis=1))
        assert loss_supervised(model, X[:1], y[:1]) == float(-logp[0, y[0]])
        assert loss_entropy(model, X[:1]) == float(-np.sum(np.exp(logp) * logp))

    @pytest.mark.parametrize("n", [0, 1, 2, 2 * ROW_BLOCK + 1])
    def test_feature_blocks_are_the_row_blocks_in_order(self, pool_pass, n):
        """feature_blocks yields each _row_blocks slice in order with the
        features of its rows; an empty input gives one empty block."""
        model, X, _ = pool_pass
        blocks = list(model.feature_blocks(X[:n]))
        assert [rows for rows, _ in blocks] == _row_blocks(n)
        for rows, F in blocks:
            np.testing.assert_array_equal(F, model.features(X[rows]))
        if n == 0:
            assert blocks[0][1].shape == (0, model.d_feat)


class TestOnePoolPass:
    """logits is the one row-block loop over a pool, and _head the one head
    product; predict, log_proba and predict_proba are views of logits."""

    N = 2 * ROW_BLOCK + 1

    @pytest.fixture(scope="class")
    def model(self):
        rng = np.random.default_rng(23)
        model = Classifier.initialize(8, 64, 5, rng)
        model.b_out[:] = rng.standard_normal(5)
        return model

    @pytest.mark.parametrize("method", ["predict", "log_proba", "predict_proba"])
    def test_one_feature_blocks_pass_and_one_head_call_per_block(self, model, method, monkeypatch):
        passes, heads = [], []
        real_blocks, real_head = Classifier.feature_blocks, Classifier._head

        def blocks_spy(self, X):
            passes.append(np.atleast_2d(X).shape[0])
            return real_blocks(self, X)

        def head_spy(self, F):
            heads.append(F.shape[0])
            return real_head(self, F)

        monkeypatch.setattr(Classifier, "feature_blocks", blocks_spy)
        monkeypatch.setattr(Classifier, "_head", head_spy)
        X = np.random.default_rng(5).standard_normal((self.N, 8))
        getattr(model, method)(X)
        assert passes == [self.N]
        assert heads == [5461, 5462, 5462]

    def test_logits_hold_one_feature_block_at_a_time(self, model):
        """On three blocks of rows, logits peaks within 1.5 (ROW_BLOCK,
        d_feat) blocks: one feature block, its logits and the (n, C)
        output, never a whole-input feature matrix (three blocks)."""
        X = np.random.default_rng(6).standard_normal((3 * ROW_BLOCK, 8))
        block = ROW_BLOCK * model.d_feat * 8
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            z = model.logits(X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert z.shape == (3 * ROW_BLOCK, 5)
        assert peak <= 1.5 * block, peak / block


class TestAugment:
    def test_identity(self):
        x = np.array([1.0, -2.0, 3.0])
        out = perturb(x, IDENTITY_AUG, np.random.default_rng(0))
        np.testing.assert_array_equal(out, x)

    def test_full_dropout_zeroes_everything(self):
        cfg = TrainConfig(aug_noise_sigma=0.5, aug_dropout_p=1.0 - 1e-12)
        out = perturb(np.ones(200), cfg, np.random.default_rng(0))
        assert np.count_nonzero(out) == 0

    def test_deterministic_given_seed(self):
        cfg = TrainConfig(aug_noise_sigma=0.3, aug_dropout_p=0.2)
        x = np.linspace(-1, 1, 9)
        a = perturb(x, cfg, np.random.default_rng(42))
        b = perturb(x, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("p", [0.0, 0.2])
    def test_one_noise_call_then_one_dropout_call(self, p):
        """The noise is one standard-normal draw of the whole shape and the
        mask one uniform draw after it, compared with aug_dropout_p; without
        dropout there is no mask and no second draw."""
        cfg = TrainConfig(aug_dropout_p=p)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        noise, keep = draw_perturbation(rng, (7, 3), cfg)
        np.testing.assert_array_equal(noise, ref.standard_normal((7, 3)))
        if p:
            np.testing.assert_array_equal(keep, ref.random((7, 3)) >= p)
        else:
            assert keep is None
        assert rng.bit_generator.state == ref.bit_generator.state


class TestConsistencyLoss:
    """The consistency part of combined_loss: cross-entropy at the
    similarity-based labels of inputs the caller has already perturbed."""

    def test_identity_aug_equals_supervised(self):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        X = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, 8)
        X_cc = perturb(X, IDENTITY_AUG, np.random.default_rng(0))
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


def one_step_epoch(model, X_l, y_l, X_cc, y_cc, X_uc, cfg):
    """The engine's prepared epoch of one step on these parts. As in
    _train_epochs, a consistency or entropy part that is empty or weighted 0
    is left out."""
    cc = uc = None
    if len(y_cc) and cfg.lambda_c != 0.0:
        cc = (np.asarray(X_cc)[None], np.asarray(y_cc)[None])
    if np.size(X_uc) and cfg.lambda_e != 0.0:
        uc = np.asarray(X_uc)[None]
    one_batch = dataclasses.replace(cfg, batch_size=len(y_l))
    epoch = EpochSteps(model, len(y_l), 0 if cc is None else len(y_cc),
                       0 if uc is None else len(X_uc), one_batch)
    epoch.fill(np.asarray(X_l), y_l, cc, uc)
    return epoch


def analytic_flat(model, X_l, y_l, X_cc, y_cc, X_uc, lc, le):
    """The engine's gradient at one step on these parts, flat in theta's
    layout (a copy)."""
    cfg = TrainConfig(lambda_c=lc, lambda_e=le)
    epoch = one_step_epoch(model, X_l, y_l, X_cc, y_cc, X_uc, cfg)
    return combined_grads(model, epoch, 0).copy()


def grads_by_name(model, *parts):
    """analytic_flat as parameter-shaped arrays by name."""
    return model.unflatten(analytic_flat(model, *parts))


def take_step(model, labeled_batch, cc_batch, uc_batch, cfg):
    """backward_and_step on a one-step epoch of these batches."""
    epoch = one_step_epoch(model, *labeled_batch, *cc_batch, uc_batch, cfg)
    return backward_and_step(model, epoch, 0)


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


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n_l=st.integers(1, 8),
        n_cc=st.integers(0, 8),
        n_uc=st.integers(0, 8),
        lc=st.sampled_from([0.0, 0.5, 1.7]),
        le=st.sampled_from([0.0, 0.1, 2.3]),
    )
    @example(seed=1, n_l=1, n_cc=1, n_uc=1, lc=0.5, le=0.1)
    @example(seed=2, n_l=5, n_cc=0, n_uc=4, lc=0.5, le=0.1)
    @example(seed=3, n_l=5, n_cc=4, n_uc=0, lc=0.5, le=0.1)
    @example(seed=4, n_l=5, n_cc=4, n_uc=3, lc=0.0, le=0.1)
    @example(seed=5, n_l=5, n_cc=4, n_uc=3, lc=0.5, le=0.0)
    def test_matches_per_part_loop_oracle(self, seed, n_l, n_cc, n_uc, lc, le):
        """The stacked gradient equals the sum of three parts, each built
        row by row from the loop oracle's features and probabilities. The
        reference keeps every part, even an empty or zero-weighted one,
        so the skip rules are checked by the arithmetic."""
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        X_l, y_l = 2 * rng.standard_normal((n_l, 3)), rng.integers(0, 3, n_l)
        X_cc, y_cc = 2 * rng.standard_normal((n_cc, 3)), rng.integers(0, 3, n_cc)
        X_uc = 2 * rng.standard_normal((n_uc, 3))
        want = {k: np.zeros_like(v) for k, v in model.params().items()}
        for X, y, weight in ((X_l, y_l, 1.0), (X_cc, y_cc, lc), (X_uc, None, le)):
            for i, x in enumerate(X):
                feat, probs = forward_probs(model, x.tolist())
                f, p = np.array(feat), np.array(probs)
                if y is None:  # entropy: d/dz_j H = -p_j (log p_j + H)
                    dz2 = -p * (np.log(p) - np.sum(p * np.log(p)))
                else:  # cross-entropy at y: p - onehot(y)
                    dz2 = p - np.eye(3)[y[i]]
                dz2 *= weight / len(X)
                dz1 = (model.W_out @ dz2) * (1.0 - f**2)
                want["W_out"] += np.outer(f, dz2)
                want["b_out"] += dz2
                want["W_hidden"] += np.outer(x, dz1)
                want["b_hidden"] += dz1
        got = grads_by_name(model, X_l, y_l, X_cc, y_cc, X_uc, lc, le)
        assert list(got) == list(want)
        for k in want:
            np.testing.assert_allclose(got[k], want[k], rtol=1e-10, atol=1e-13)


class TestStep:
    def test_zero_learning_rate_no_change(self):
        rng = np.random.default_rng(5)
        model = random_model(rng)
        before = flat_params(model).copy()
        cfg = TrainConfig(learning_rate=0.0, aug_noise_sigma=0.0, aug_dropout_p=0.0)
        X = rng.standard_normal((4, 3))
        y = rng.integers(0, 3, 4)
        take_step(model, (X, y), (np.zeros((0, 3)), []), np.zeros((0, 3)), cfg)
        np.testing.assert_array_equal(flat_params(model), before)

    def test_single_sample_descent(self):
        """A small step on one labeled sample lowers that sample's loss."""
        rng = np.random.default_rng(6)
        model = random_model(rng)
        x = rng.standard_normal((1, 3))
        y = np.array([1])
        before = loss_supervised(model, x, y)
        cfg = TrainConfig(learning_rate=1e-2, aug_noise_sigma=0.0, aug_dropout_p=0.0)
        take_step(model, (x, y), (np.zeros((0, 3)), []), np.zeros((0, 3)), cfg)
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
            take_step(
                model,
                (np.array([[1.0]]), [0]),
                (np.zeros((0, 1)), []),
                np.zeros((0, 1)),
                cfg,
            )
        np.testing.assert_array_equal(flat_params(model), before)


    def _batches(self, rng):
        X_l, y_l = rng.standard_normal((4, 3)), rng.integers(0, 3, 4)
        X_cc, y_cc = rng.standard_normal((3, 3)), rng.integers(0, 3, 3)
        return X_l, y_l, X_cc, y_cc, rng.standard_normal((2, 3))

    @pytest.mark.parametrize("lambda_c", [0.0, 0.5])
    def test_step_trains_on_the_consistency_rows_as_given(self, lambda_c):
        """The step perturbs nothing itself: it moves the parameters by the
        learning rate times the gradient at the rows it is given, which the
        caller has already perturbed, with or without a weight on them."""
        rng = np.random.default_rng(8)
        model = random_model(rng)
        X_l, y_l, X_cc, y_cc, X_uc = self._batches(rng)
        cfg = TrainConfig(lambda_c=lambda_c)
        X_cc = perturb(X_cc, cfg, np.random.default_rng(21))
        want = {k: v - cfg.learning_rate * g for (k, v), g in zip(
            model.params().items(),
            grads_by_name(model, X_l, y_l, X_cc, y_cc, X_uc, lambda_c, cfg.lambda_e).values(),
        )}
        take_step(model, (X_l, y_l), (X_cc, y_cc), X_uc, cfg)
        assert _bits(model.params()) == _bits(want)

    @pytest.mark.parametrize("part", ["X_l", "X_cc", "X_uc"])
    def test_non_finite_input_rejected_before_any_change(self, part):
        rng = np.random.default_rng(9)
        model = random_model(rng)
        X_l, y_l, X_cc, y_cc, X_uc = self._batches(rng)
        {"X_l": X_l, "X_cc": X_cc, "X_uc": X_uc}[part][1, 2] = np.nan
        before = flat_params(model).copy()
        with pytest.raises(ValueError, match="non-finite input"):
            take_step(model, (X_l, y_l), (X_cc, y_cc), X_uc, TrainConfig())
        np.testing.assert_array_equal(flat_params(model), before)

    @pytest.mark.parametrize("part", ["y_l", "y_cc"])
    @pytest.mark.parametrize("bad", [[-1, 0], [3, 0]])
    def test_out_of_range_label_rejected_before_any_change(self, part, bad):
        """At C = 3, label -1 would index class 2 from the end and label 3
        would raise IndexError; both raise ValueError with the model
        untouched."""
        rng = np.random.default_rng(11)
        model = random_model(rng)
        X_l, y_l, X_cc, y_cc, X_uc = self._batches(rng)
        {"y_l": y_l, "y_cc": y_cc}[part][:2] = bad
        before = flat_params(model).copy()
        with pytest.raises(ValueError, match="label outside"):
            analytic_flat(model, X_l, y_l, X_cc, y_cc, X_uc, 0.5, 0.1)
        with pytest.raises(ValueError, match="label outside"):
            take_step(model, (X_l, y_l), (X_cc, y_cc), X_uc, TrainConfig())
        np.testing.assert_array_equal(flat_params(model), before)

    @pytest.mark.parametrize("part,weights", [
        ("X_cc", dict(lambda_c=0.0)), ("X_uc", dict(lambda_e=0.0)),
    ])
    def test_zero_weighted_part_stays_out_of_the_pass(self, part, weights):
        """A part whose weight is 0 is not stacked (training leaves the pool
        out), so its rows are neither checked nor computed: a NaN there
        leaves the step finite."""
        rng = np.random.default_rng(10)
        model = random_model(rng)
        X_l, y_l, X_cc, y_cc, X_uc = self._batches(rng)
        {"X_cc": X_cc, "X_uc": X_uc}[part][0, 0] = np.nan
        before = flat_params(model).copy()
        _train_epochs(model, X_l, y_l, (X_cc, y_cc), X_uc, TrainConfig(**weights), 1, [0, 2, 1])
        assert np.isfinite(flat_params(model)).all()
        assert (flat_params(model) != before).any()


def _bits(params):
    return {k: (v.shape, v.tobytes()) for k, v in params.items()}


def _clone(model):
    return Classifier(*(v.copy() for v in model.params().values()))


class TestStepMatchesReference:
    """The step's arithmetic is pinned bit for bit against the plain
    reference forms in step_reference.py: every part combination, a long
    trajectory, and the non-finite paths."""

    PARTS = {  # (n_l, n_cc, n_uc, lambda_c, lambda_e); sizes not powers of 2
        "supervised_only": (29, 0, 0, 0.5, 0.1),
        "with_cc": (29, 31, 0, 0.5, 0.1),
        "with_uc": (29, 0, 27, 0.5, 0.1),
        "both": (29, 31, 27, 0.5, 0.1),
        "desk_batches": (32, 32, 32, 0.5, 0.1),
        "lambda_c_zero": (29, 31, 27, 0.0, 0.1),
        "lambda_e_zero": (29, 31, 27, 0.5, 0.0),
        "one_row_each": (1, 1, 1, 0.5, 0.1),
    }

    @pytest.mark.parametrize("shape", [(8, 64, 5), (3, 4, 3), (5, 16, 10)])
    @pytest.mark.parametrize("part", sorted(PARTS))
    def test_gradients_bit_identical(self, part, shape):
        n_l, n_cc, n_uc, lc, le = self.PARTS[part]
        d_in, d_feat, C = shape
        rng = np.random.default_rng([n_l, n_cc, n_uc, d_feat])
        model = Classifier.initialize(d_in, d_feat, C, rng)
        args = (
            2 * rng.standard_normal((n_l, d_in)), rng.integers(0, C, n_l),
            2 * rng.standard_normal((n_cc, d_in)), rng.integers(0, C, n_cc),
            2 * rng.standard_normal((n_uc, d_in)), lc, le,
        )
        got = grads_by_name(model, *args)
        want = combined_grads_ref(model, *args)
        assert list(got) == list(want)
        assert _bits(got) == _bits(want)

    def test_trajectory_bit_identical(self):
        """200 steps at desk shapes, with labeled batches of 1 to 32 rows,
        full companion batches and the perturbation on: given the same noise
        and dropout mask, the engine's augment-then-step and the reference
        step end with equal parameters bit for bit."""
        rng = np.random.default_rng(31)
        model = Classifier.initialize(8, 64, 5, rng)
        ref = _clone(model)
        X, y = rng.standard_normal((300, 8)), rng.integers(0, 5, 300)
        X_cc, y_cc = rng.standard_normal((80, 8)), rng.integers(0, 5, 80)
        X_uc = rng.standard_normal((60, 8))
        cfg = TrainConfig()
        draw = np.random.default_rng(32)
        for _ in range(200):
            idx = draw.choice(300, draw.integers(1, 33), replace=False)
            pick = draw.choice(80, 32, replace=False)
            uc = X_uc[draw.choice(60, 32, replace=False)]
            noise, keep = draw_perturbation(draw, (32, 8), cfg)
            labeled, cc = (X[idx], y[idx]), (X_cc[pick], y_cc[pick])
            take_step(model, labeled, (augment(cc[0], cfg, noise, keep), cc[1]), uc, cfg)
            backward_and_step_ref(ref, labeled, cc, uc, cfg, noise, keep)
        assert _bits(model.params()) == _bits(ref.params())

    @staticmethod
    def _overflow_model(a, d_feat=4):
        """Features are exactly 0 at x = 1.5e308 (W_hidden 1e-308 cancels
        b_hidden), so the W_hidden gradient is x times a weight set by a."""
        return Classifier(
            W_hidden=np.full((1, d_feat), 1e-308),
            b_hidden=np.full(d_feat, -1.5),
            W_out=np.tile([a, -a], (d_feat, 1)),
            b_out=np.array([-3.0, 3.0]),
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_finite_entries_whose_sum_overflows_still_step(self):
        """Two finite inputs of 1.5e308 sum to inf, and so do four finite
        W_hidden gradients of 7.5e307: both pass the per-element test that
        the overflowing sum falls back to, and the step matches the
        reference."""
        model = self._overflow_model(-0.25)
        ref = _clone(model)
        X, y = np.full((2, 1), 1.5e308), np.array([0, 0])
        empty = (np.zeros((0, 1)), np.zeros(0, dtype=int))
        g = combined_grads_ref(model, X, y, *empty, np.zeros((0, 1)), 0.5, 0.1)
        flat = np.concatenate([v.ravel() for v in g.values()])
        assert np.isfinite(flat).all() and not np.isfinite(flat.sum())
        cfg = TrainConfig(learning_rate=1e-310)
        take_step(model, (X, y), empty, np.zeros((0, 1)), cfg)
        backward_and_step_ref(ref, (X, y), empty, np.zeros((0, 1)), cfg)
        assert _bits(model.params()) == _bits(ref.params())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("cause", ["overflowing_gradient", "infinite_weight", "nan_input"])
    def test_non_finite_paths_leave_parameters_untouched(self, cause):
        """An overflowing gradient from finite inputs, or an infinite weight,
        raises NonFiniteGradientError; a NaN input raises the input check's
        ValueError. Either way the reference raises the same and no
        parameter moves."""
        model = self._overflow_model(-1.0)
        X, y = np.full((2, 1), 1.5e308), np.array([0, 0])
        error = NonFiniteGradientError
        if cause == "infinite_weight":
            model.W_out[0, 0] = np.inf
            X = np.ones((2, 1))
        elif cause == "nan_input":
            X = np.array([[1.0], [np.nan]])
            error = ValueError
        before = flat_params(model).copy()
        empty = (np.zeros((0, 1)), np.zeros(0, dtype=int))
        for step in (take_step, backward_and_step_ref):
            with pytest.raises(error):
                step(model, (X, y), empty, np.zeros((0, 1)), TrainConfig())
            np.testing.assert_array_equal(flat_params(model), before)

    def test_augment_bit_identical(self):
        cfg = TrainConfig()
        x = np.random.default_rng(3).standard_normal((32, 8))
        noise, keep = draw_perturbation(np.random.default_rng(4), x.shape, cfg)
        got = augment(x, cfg, noise, keep)
        assert got.tobytes() == augment_ref(x, cfg, noise, keep).tobytes()


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "lambda_c", "lambda_e", "aug_noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected_at_construction(self, field, value):
        """A NaN learning rate used to surface only as a
        NonFiniteGradientError in the first training step."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", 8.0, "must be an integer"),
        ("epochs_per_round", 1.0, "must be an integer"),
        ("batch_size", True, "must be an integer"),
        ("seed", -1, "must be at least 0"),
        ("batch_size", 0, "must be at least 1"),
    ])
    def test_bad_count_or_seed_names_its_field(self, field, value, message):
        """A float batch size used to fail inside numpy without the field's
        name, and a negative seed at the first generator."""
        with pytest.raises(ValueError, match=f"{field}={value!r} {message}"):
            TrainConfig(**{field: value})
