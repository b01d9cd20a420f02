"""Centroids, top-k IoU similarity labels, informativeness scores, and
observation labels, checked against hand-enumerated oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeadapt.classifier import ROW_BLOCK, Classifier
from activeadapt.scoring import (
    Category,
    _topk_mask,
    centroids_from_features,
    compute_centroids,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_labels,
    similarity_labels,
    LOG_PROB_FLOOR,
)

from oracles import forward_probs, info_score, obs_label, sim_label, topk_set
from test_classifier import (
    block_sizes,
    random_model,
    two_class_model,
    whole_matrix_log_proba,
    x_for_prob,
)
from test_harness import _perfbench

CHECKS = _perfbench("checks")  # the benchmark's own top-k rule, read-only


def checker_labels(F, A, k):
    """Similarity labels from the benchmark checker's boolean masks: the
    argmax of IoU = i / (2k - i) over the exact intersection counts i,
    smallest class first among ties."""
    f_mask, c_mask = CHECKS._topk_mask(F, k), CHECKS._topk_mask(A, k)
    inter = np.stack([np.count_nonzero(f_mask & c, axis=1) for c in c_mask], axis=1)
    return np.argmax(inter / (2 * k - inter), axis=1)


class TestCentroids:
    def test_singleton_classes(self):
        F = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]])
        cs = centroids_from_features(F, [0, 1, 2], C=3)
        np.testing.assert_array_equal(cs.A, F)
        np.testing.assert_array_equal(cs.counts, [1, 1, 1])

    def test_duplicates_average_to_same_point(self):
        F = np.array([[2.0, -1.0], [2.0, -1.0], [0.0, 1.0]])
        cs = centroids_from_features(F, [0, 0, 1], C=2)
        np.testing.assert_array_equal(cs.A[0], [2.0, -1.0])

    def test_two_point_mean(self):
        """Features (1,0) and (0,1) in one class average to (0.5, 0.5)."""
        F = np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        cs = centroids_from_features(F, [0, 0, 1], C=2)
        np.testing.assert_allclose(cs.A[0], [0.5, 0.5], atol=1e-15)

    def test_missing_class_error(self):
        with pytest.raises(ValueError):
            centroids_from_features(np.ones((2, 3)), [0, 0], C=2)

    def test_fractional_labels_rejected_not_truncated(self):
        """[0.9, 1.2, 0.2] used to give the centroids of [0, 1, 0]."""
        F = np.arange(6.0).reshape(3, 2)
        with pytest.raises(ValueError, match="not a whole number"):
            centroids_from_features(F, [0.9, 1.2, 0.2], C=2)
        model = Classifier(np.eye(2), np.zeros(2), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError, match="not a whole number"):
            compute_centroids(model, F, [0.9, 1.2, 0.2])
        whole = centroids_from_features(F, [0.0, 1.0, 0.0], C=2)
        np.testing.assert_array_equal(whole.A, centroids_from_features(F, [0, 1, 0], C=2).A)

    @pytest.mark.parametrize("bad", [[0, 5, 1], [-1, 0, 1]])
    def test_out_of_range_label_named_as_such(self, bad):
        """Label 5 at C = 2 used to report classes [1, 2, 3, 4] as missing."""
        with pytest.raises(ValueError, match=r"label outside \[0, C\)"):
            centroids_from_features(np.ones((3, 2)), bad, C=2)

    def test_model_feature_space(self):
        rng = np.random.default_rng(0)
        model = random_model(rng)
        X = rng.standard_normal((9, 3))
        y = np.array([0, 1, 2] * 3)
        cs = compute_centroids(model, X, y)
        F = model.features(X)
        for c in range(3):
            np.testing.assert_allclose(cs.A[c], F[y == c].mean(axis=0), atol=1e-15)

    def test_centroid_in_convex_hull_coordinatewise(self):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        X = rng.standard_normal((12, 3))
        y = rng.integers(0, 3, 12)
        y[:3] = [0, 1, 2]
        cs = compute_centroids(model, X, y)
        F = model.features(X)
        for c in range(3):
            sub = F[y == c]
            assert (cs.A[c] >= sub.min(axis=0) - 1e-12).all()
            assert (cs.A[c] <= sub.max(axis=0) + 1e-12).all()


def top_set(v, k):
    return set(np.flatnonzero(_topk_mask(np.atleast_2d(v), k)[0]).tolist())


def tie_heavy(rng, kind, shape):
    """Rows with many equal magnitudes: rounded entries, signs, mostly
    zeros, or +-1.0 mixed with tanh values as from saturated features."""
    F = rng.standard_normal(shape)
    if kind == "round":
        return np.round(F, int(rng.integers(0, 2)))
    if kind == "sign":
        return np.sign(F)
    if kind == "zeros":
        F[rng.random(shape) < 0.7] = 0.0
        return F
    return np.where(rng.random(shape) < 0.5, np.sign(F), np.tanh(F))


TIE_KINDS = ["round", "sign", "zeros", "unit"]


class TestTopK:
    def test_magnitude_ranking_with_sign(self):
        assert top_set(np.array([3.0, -5.0, 1.0]), 2) == {0, 1}

    def test_full_set(self):
        assert top_set(np.array([1.0, -2.0, 0.5]), 3) == {0, 1, 2}

    def test_tie_break_smallest_index(self):
        assert top_set(np.array([2.0, 2.0, 1.0]), 1) == {0}

    @pytest.mark.parametrize("k, message", [
        (0, "k=0 must be at least 1"),
        (-1, "k=-1 must be at least 1"),
        (3, "k=3 exceeds feature dimension 2"),
    ])
    def test_k_out_of_range(self, k, message):
        cs = centroids_from_features(np.eye(2), [0, 1], C=2)
        with pytest.raises(ValueError, match=message):
            similarity_labels(np.array([[1.0, 2.0]]), cs, k)

    def test_planted_ties(self):
        """Rows whose tie straddles the k-th place, at k = d - 1 (where the
        magnitude ranked just below the k-th is the smallest) and at k = d,
        +-x pairs and all-zero rows: every mask is a 0/1 float mask of k
        entries, against topk_set, and every label against sim_label."""
        F = np.array([
            [3.0, 1.0, 5.0, -1.0, 4.0, 2.0],  # two smallest tie: k = d - 1 cuts index 3
            [-1.0, 1.0, 1.0, 2.0, 3.0, 4.0],  # three smallest tie
            [2.0, 2.0, 2.0, 2.0, 2.0, 2.0],  # every entry ties
            [0.5, -0.5, 0.25, -0.25, 1.0, -1.0],  # +-x pairs
            [-0.25, 0.5, 0.25, -1.0, -0.5, 1.0],  # the same pairs, signs flipped
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 7.0, 0.0, 0.0, -7.0],  # zeros after a +-x pair
            [1.0, 3.0, 3.0, -3.0, 2.0, 1.0],  # a tie across the k = 2, 3 places
        ])
        A = np.array([
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, -1.0, 0.5, 0.5, -0.5, 0.0],
            [0.0, 0.0, 0.0, 2.0, -2.0, 2.0],
            [4.0, 3.0, 2.0, 2.0, 1.0, 1.0],
        ])
        cs = centroids_from_features(A, np.arange(4), C=4)
        d = F.shape[1]
        for k in range(1, d + 1):
            for rows in (F, A):
                mask = _topk_mask(rows, k)
                assert mask.dtype == np.float64
                assert set(np.unique(mask).tolist()) <= {0.0, 1.0}
                assert mask.sum(axis=1).tolist() == [k] * len(rows)
                for row, m in zip(rows, mask):
                    assert set(np.flatnonzero(m).tolist()) == topk_set(row.tolist(), k)
            want = [sim_label(f.tolist(), A.tolist(), k) for f in F]
            assert similarity_labels(F, cs, k).tolist() == want
        assert top_set(F[0], d - 1) == {0, 1, 2, 4, 5}
        assert top_set(F[1], d - 1) == {0, 1, 3, 4, 5}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(TIE_KINDS))
    def test_mask_matches_oracle_on_ties(self, seed, kind):
        """Row masks against topk_set on tie-heavy rows."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        F = tie_heavy(rng, kind, (n, d))
        for k in {1, int(rng.integers(1, d + 1)), d}:
            mask = _topk_mask(F, k)
            for row, m in zip(F, mask):
                assert set(np.flatnonzero(m).tolist()) == topk_set(row.tolist(), k)


class TestSimilarityLabel:
    def test_self_match(self):
        """A feature equal to one centroid, with distinct top-k sets per
        class, labels as that class (IoU 1 with itself)."""
        A = np.array(
            [
                [9.0, 8.0, 0.1, 0.0],
                [0.1, 0.0, 9.0, 8.0],
                [0.0, 9.0, 8.0, 0.1],
            ]
        )
        cs = centroids_from_features(A, [0, 1, 2], C=3)
        assert similarity_labels(A[2][None, :], cs, k=2).tolist() == [2]
        assert similarity_labels(A, cs, k=2).tolist() == [0, 1, 2]

    def test_hand_enumerated_iou(self):
        """feature top2={0,1}; centroid top2 sets {0,1},{2,3},{1,2} give
        IoUs 1, 0, 1/3, so class 0 wins."""
        feature = np.array([5.0, 4.0, 0.1, 0.0])
        A = np.array(
            [
                [3.0, 2.0, 0.1, 0.0],  # top2 {0,1}
                [0.0, 0.1, 5.0, 4.0],  # top2 {2,3}
                [0.1, 2.0, 3.0, 0.0],  # top2 {1,2}
            ]
        )
        cs = centroids_from_features(A, [0, 1, 2], C=3)
        f_set = top_set(feature, 2)
        assert f_set == {0, 1}
        assert [top_set(a, 2) for a in A] == [{0, 1}, {2, 3}, {1, 2}]
        ious = [len(f_set & top_set(a, 2)) / len(f_set | top_set(a, 2)) for a in A]
        assert ious == [1.0, 0.0, pytest.approx(1 / 3)]
        assert similarity_labels(feature[None, :], cs, k=2).tolist() == [0]

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_positive_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((8, 6))
        cs = centroids_from_features(F[:3], [0, 1, 2], C=3)
        np.testing.assert_array_equal(
            similarity_labels(F[3:], cs, k=2), similarity_labels(scale * F[3:], cs, k=2)
        )

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(TIE_KINDS))
    def test_matches_oracle_on_ties(self, seed, kind):
        """One or several rows against sim_label, with ties in the features,
        in the centroids and among the IoUs."""
        rng = np.random.default_rng(seed)
        n, d, C = int(rng.integers(1, 20)), int(rng.integers(1, 12)), int(rng.integers(1, 5))
        F = tie_heavy(rng, kind, (n, d))
        cs = centroids_from_features(tie_heavy(rng, kind, (C, d)), np.arange(C), C=C)
        A = cs.A.tolist()
        for k in {1, int(rng.integers(1, d + 1)), d}:
            want = [sim_label(f.tolist(), A, k) for f in F]
            assert similarity_labels(F, cs, k).tolist() == want

    @pytest.mark.parametrize("n, d, C, k", [(4096, 64, 5, 8), (2048, 256, 10, 32), (3000, 12, 7, 3)])
    def test_largest_overlap_is_largest_iou(self, n, d, C, k):
        """On pool-sized blocks, plain and tie-heavy, the label is the argmax
        of IoU = i / (2k - i) over the exact per-class intersection counts i
        of the benchmark checker's masks, smallest class first among ties."""
        rng = np.random.default_rng(n + d)
        for F in (np.tanh(2.0 * rng.standard_normal((n, d))), tie_heavy(rng, "round", (n, d))):
            cs = centroids_from_features(F[:C], np.arange(C), C=C)
            want = checker_labels(F, cs.A, k)
            np.testing.assert_array_equal(similarity_labels(F, cs, k), want)

    @pytest.mark.parametrize("C", [2, 3, 5, 10])
    def test_pool_labels_match_the_checker(self, C):
        """Over a pool two row blocks plus 500 rows long, with features
        saturated to +-1.0 in places so that ties straddle the k-th place,
        the blocked pass's labels equal those of the benchmark checker's
        masks at every k tried."""
        rng = np.random.default_rng(C)
        model = Classifier.initialize(6, 16, C, rng)
        model.W_hidden[:] *= 40.0  # most features tanh to exactly +-1.0
        X = rng.standard_normal((2 * ROW_BLOCK + 500, 6))
        F = model.features(X)
        assert (np.abs(F) == 1.0).mean() > 0.3
        cs = compute_centroids(model, X[: 4 * C], np.arange(4 * C) % C)
        for k in (1, 4, 15, 16):
            _, labels = info_scores_unlabeled(model, cs, X, k)
            np.testing.assert_array_equal(labels, checker_labels(F, cs.A, k))


class TestInfoScores:
    def test_perfect_prediction_zero(self):
        model = two_class_model(scale=500.0)
        cs = centroids_from_features(np.array([[1.0], [-1.0]]), [0, 1], C=2)
        scores, _ = info_scores_unlabeled(model, cs, np.array([[5.0]]), k=1)
        assert scores.tolist() == [0.0]
        assert info_scores_labeled(model, np.array([[5.0]]), [0]).tolist() == [0.0]

    def test_uniform_prediction_log_c(self):
        model = Classifier(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4))
        got = info_scores_labeled(model, np.ones((4, 2)), [2, 0, 3, 1])
        np.testing.assert_allclose(got, math.log(4), atol=1e-12)

    def test_prob_02_gives_log5(self):
        """P at the similarity label is 0.2, so the score is -log 0.2."""
        model = two_class_model()
        # d_feat = 1 and k = 1: every top-k set is {0}, all IoUs tie at 1,
        # and the tie-break pins the similarity label to class 0
        cs = centroids_from_features(np.array([[0.5], [-0.5]]), [0, 1], C=2)
        scores, labels = info_scores_unlabeled(model, cs, x_for_prob(0.2)[None, :], k=1)
        assert labels.tolist() == [0]
        assert scores[0] == pytest.approx(-math.log(0.2), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8))
    def test_match_loop_oracle(self, seed, n):
        """Unlabeled scores and labels, and labeled scores, of one or several
        rows against forward_probs, sim_label and info_score."""
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        cs = compute_centroids(model, rng.standard_normal((6, 3)), [0, 1, 2] * 2)
        X = 2 * rng.standard_normal((n, 3))
        y = rng.integers(0, 3, n)
        scores_u, labels = info_scores_unlabeled(model, cs, X, k=2)
        scores_l = info_scores_labeled(model, X, y)
        for i, x in enumerate(X):
            feat, probs = forward_probs(model, x.tolist())
            want = sim_label(feat, cs.A.tolist(), 2)
            assert labels[i] == want
            assert scores_u[i] == pytest.approx(info_score(probs[want]), rel=1e-9, abs=1e-12)
            assert scores_l[i] == pytest.approx(info_score(probs[y[i]]), rel=1e-9, abs=1e-12)

    def test_unlabeled_equals_labeled_at_similarity_label(self):
        """score_u(x) == score_l(x, y_sim(x)) identically."""
        rng = np.random.default_rng(7)
        model = random_model(rng)
        X = rng.standard_normal((20, 3))
        y_anchor = np.array([0, 1, 2] + [0] * 17)
        cs = compute_centroids(model, X, y_anchor)
        scores_u, sims = info_scores_unlabeled(model, cs, X, k=2)
        scores_l = info_scores_labeled(model, X, sims)
        np.testing.assert_array_equal(scores_u, scores_l)

    @pytest.mark.parametrize("n", [10, 6])
    def test_label_count_must_match_rows(self, n):
        """8 labels for 10 rows used to give 8 scores, and for 6 rows failed
        with a bare IndexError; both name the counts now."""
        rng = np.random.default_rng(8)
        model = random_model(rng)
        with pytest.raises(ValueError, match=f"8 labels for {n} rows"):
            info_scores_labeled(model, rng.standard_normal((n, 3)), rng.integers(0, 3, 8))

    def test_floor_bounds_scores(self):
        model = two_class_model(scale=500.0)
        score = info_scores_labeled(model, np.array([[5.0]]), [1])[0]  # wrong class
        assert score == pytest.approx(-LOG_PROB_FLOOR)
        assert np.isfinite(score)
        # d_feat = 1 pins the similarity label to class 0, which x = -5
        # predicts with log-probability near -1000
        cs = centroids_from_features(np.array([[1.0], [-1.0]]), [0, 1], C=2)
        scores, labels = info_scores_unlabeled(model, cs, np.array([[-5.0], [5.0]]), k=1)
        assert labels.tolist() == [0, 0]
        assert scores.tolist() == [pytest.approx(-LOG_PROB_FLOOR), 0.0]

    @pytest.mark.parametrize("n", [0, 1, 2 * ROW_BLOCK + 1])
    def test_row_blocks_match_whole_matrix(self, n, monkeypatch):
        """At C = 5 the blocked pass gives, bit for bit, the scores and
        labels of whole-matrix products, at a pool two blocks plus one row
        long and at one row; an empty pool gives empty outputs."""
        rng = np.random.default_rng(23)
        model = Classifier.initialize(8, 64, 5, rng)
        model.b_hidden[:] = 0.1 * rng.standard_normal(64)
        X = 2 * rng.standard_normal((n, 8))
        cs = compute_centroids(model, rng.standard_normal((10, 8)), np.arange(10) % 5)
        sizes = block_sizes(monkeypatch)
        scores, labels = info_scores_unlabeled(model, cs, X, k=8)
        assert sizes == ([5461, 5462, 5462] if n > ROW_BLOCK else [n])
        F, logp = whole_matrix_log_proba(model, X)
        want = similarity_labels(F, cs, 8)
        np.testing.assert_array_equal(labels, want)
        np.testing.assert_array_equal(
            scores, -np.maximum(logp[np.arange(n), want], LOG_PROB_FLOOR)
        )
        assert scores.shape == labels.shape == (n,)
        assert scores.dtype == np.float64 and labels.dtype == np.intp


class TestRowIndependence:
    """At C = 5 a row's log-probabilities, prediction, score and similarity
    label do not depend on the other rows of the pool: a random subset of a
    three-block pool, in random order, gets the whole pool's outputs for
    its rows, bit for bit. This pins what the row blocking must keep. At
    other class counts a block's head product can move the last ulps (see
    classifier.ROW_BLOCK), and a one-row pool goes down BLAS's
    matrix-vector path, so subsets start at two rows."""

    N = 3 * ROW_BLOCK

    @pytest.fixture(scope="class", params=[(8, 64, 8), (64, 256, 32)], ids=["d64", "d256"])
    def whole_pool(self, request):
        d_in, d_feat, k = request.param
        rng = np.random.default_rng(29)
        model = Classifier.initialize(d_in, d_feat, 5, rng)
        model.b_hidden[:] = 0.1 * rng.standard_normal(d_feat)
        model.b_out[:] = rng.standard_normal(5)
        X = 2 * rng.standard_normal((self.N, d_in))
        cs = compute_centroids(model, rng.standard_normal((10, d_in)), np.arange(10) % 5)
        outputs = (model.log_proba(X), model.predict(X), *info_scores_unlabeled(model, cs, X, k))
        return model, X, cs, k, outputs

    @pytest.mark.parametrize("size", [2, 3, 97, 5000, ROW_BLOCK + 1, 2 * ROW_BLOCK - 3, N - 1])
    def test_subset_rows_match_the_whole_pool(self, whole_pool, size):
        model, X, cs, k, outputs = whole_pool
        rows = np.random.default_rng(size).choice(self.N, size, replace=False)
        sub = X[rows]
        got = (model.log_proba(sub), model.predict(sub), *info_scores_unlabeled(model, cs, sub, k))
        for name, g, whole in zip(("log_proba", "predict", "scores", "labels"), got, outputs):
            np.testing.assert_array_equal(g, whole[rows], err_msg=name)

    def test_the_scoring_pass_predicts_as_predict(self, whole_pool):
        """Given a pred array, the scoring pass fills it with predict's
        classes from the head blocks it scores with, and its scores and
        labels stay as they were."""
        model, X, cs, k, (_, predicted, scores, labels) = whole_pool
        pred = np.full(self.N, -1, dtype=np.intp)
        got = info_scores_unlabeled(model, cs, X, k, pred)
        np.testing.assert_array_equal(pred, predicted)
        np.testing.assert_array_equal(got[0], scores)
        np.testing.assert_array_equal(got[1], labels)


def obs_label_of(model, x, y, tau):
    return Category(int(observation_labels(model, x[None, :], [y], tau)[0]))


class TestObservationLabel:
    def test_confident_consistent(self):
        model = two_class_model(scale=3.0)
        x = x_for_prob(0.99, scale=3.0)
        assert obs_label_of(model, x, 0, tau=0.95) is Category.CC

    def test_uncertain_inconsistent(self):
        model = two_class_model()
        x = x_for_prob(0.5 + 1e-3)
        # prediction is class 0; true label 1; max prob ~0.5 < tau
        assert obs_label_of(model, x, 1, tau=0.95) is Category.UI

    def test_all_four_branches(self):
        model = two_class_model(scale=3.0)
        hi, lo = x_for_prob(0.97, 3.0), x_for_prob(0.6, 3.0)
        X = np.vstack([hi, lo, lo, hi])
        got = observation_labels(model, X, [0, 0, 1, 1], 0.95)
        assert got.tolist() == [Category.CC, Category.UC, Category.UI, Category.CI]

    def test_threshold_boundary_inclusive(self):
        """max P exactly equal to tau counts as confident."""
        model = two_class_model(scale=2.0)
        x = x_for_prob(0.8, 2.0)
        tau = float(model.predict_proba(x[None, :]).max())
        assert obs_label_of(model, x, 0, tau) is Category.CC
        assert obs_label_of(model, x, 1, tau) is Category.CI

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.floats(0.3, 0.99))
    def test_exactly_one_branch_fires(self, seed, tau):
        """Independent re-evaluation of the four branch conditions agrees
        with the returned category, and the conditions are exhaustive."""
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        X = rng.standard_normal((8, 3))
        y = rng.integers(0, 3, 8)
        got = observation_labels(model, X, y, tau)
        P = model.predict_proba(X)
        for i in range(8):
            conf = P[i].max() >= tau
            agree = y[i] == np.argmax(P[i])
            want = {
                (True, True): Category.CC,
                (False, True): Category.UC,
                (False, False): Category.UI,
                (True, False): Category.CI,
            }[(bool(conf), bool(agree))]
            assert got[i] == want

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 8), st.floats(0.3, 0.99))
    def test_matches_loop_oracle(self, seed, n, tau):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        X = 2 * rng.standard_normal((n, 3))
        y = rng.integers(0, 3, n)
        want = [obs_label(forward_probs(model, x.tolist())[1], int(c), tau) for x, c in zip(X, y)]
        assert observation_labels(model, X, y, tau).tolist() == want
