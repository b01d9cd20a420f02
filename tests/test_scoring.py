"""Centroids, top-k IoU similarity labels, informativeness scores, and
observation labels, checked against hand-enumerated oracles."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeadapt.classifier import Classifier
from activeadapt.scoring import (
    Category,
    _topk_mask,
    centroids_from_features,
    compute_centroids,
    index_iou,
    info_score_labeled,
    info_score_unlabeled,
    info_scores_labeled,
    info_scores_unlabeled,
    observation_label,
    observation_labels,
    similarity_label,
    similarity_labels,
    topk_indices,
    write_score_dump,
    SCORE_DUMP_FIELDS,
    LOG_PROB_FLOOR,
)

from oracles import topk_set
from test_classifier import random_model, two_class_model, x_for_prob


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


class TestTopK:
    def test_magnitude_ranking_with_sign(self):
        assert set(topk_indices(np.array([3.0, -5.0, 1.0]), 2).tolist()) == {0, 1}

    def test_full_set(self):
        assert set(topk_indices(np.array([1.0, -2.0, 0.5]), 3).tolist()) == {0, 1, 2}

    def test_tie_break_smallest_index(self):
        assert topk_indices(np.array([2.0, 2.0, 1.0]), 1).tolist() == [0]

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            topk_indices(np.array([1.0, 2.0]), 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(["round", "sign", "zeros", "unit"]))
    def test_mask_matches_oracle_on_ties(self, seed, kind):
        """Row masks against topk_set on tie-heavy rows: rounded entries,
        signs, rows with many zeros, and +-1.0 as from saturated tanh."""
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 20))
        F = rng.standard_normal((n, d))
        if kind == "round":
            F = np.round(F, int(rng.integers(0, 2)))
        elif kind == "sign":
            F = np.sign(F)
        elif kind == "zeros":
            F[rng.random(F.shape) < 0.7] = 0.0
        else:
            F = np.where(rng.random(F.shape) < 0.5, np.sign(F), np.tanh(F))
        for k in {1, int(rng.integers(1, d + 1)), d}:
            mask = _topk_mask(F, k)
            for row, m in zip(F, mask):
                assert set(np.flatnonzero(m).tolist()) == topk_set(row.tolist(), k)

    def test_iou_identities(self):
        a = np.array([0, 1, 2])
        b = np.array([3, 4, 5])
        assert index_iou(a, a) == 1.0
        assert index_iou(a, b) == 0.0
        assert index_iou(a, b) == index_iou(b, a)


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
        assert similarity_label(A[2].copy(), cs, k=2) == 2

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
        ious = [
            index_iou(topk_indices(feature, 2), topk_indices(A[c], 2))
            for c in range(3)
        ]
        assert ious == [1.0, 0.0, pytest.approx(1 / 3)]
        assert similarity_label(feature, cs, k=2) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_positive_scale_invariance(self, seed, scale):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((4, 6))
        cs = centroids_from_features(F[:3], [0, 1, 2], C=3)
        f = F[3]
        assert similarity_label(f, cs, k=2) == similarity_label(scale * f, cs, k=2)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        F = rng.standard_normal((10, 8))
        cs = centroids_from_features(rng.standard_normal((4, 8)), [0, 1, 2, 3], C=4)
        batch = similarity_labels(F, cs, k=3)
        singles = [similarity_label(F[i], cs, k=3) for i in range(10)]
        assert batch.tolist() == singles


class TestInfoScores:
    def test_perfect_prediction_zero(self):
        model = two_class_model(scale=500.0)
        cs = centroids_from_features(np.array([[1.0], [-1.0]]), [0, 1], C=2)
        assert info_score_unlabeled(model, cs, np.array([5.0]), k=1) == 0.0
        assert info_score_labeled(model, np.array([5.0]), 0) == 0.0

    def test_uniform_prediction_log_c(self):
        model = Classifier(np.zeros((2, 3)), np.zeros(3), np.zeros((3, 4)), np.zeros(4))
        assert info_score_labeled(model, np.ones(2), 2) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_prob_02_gives_log5(self):
        """P at the similarity label is 0.2, so the score is -log 0.2."""
        model = two_class_model()
        # d_feat = 1 and k = 1: every top-k set is {0}, all IoUs tie at 1,
        # and the tie-break pins the similarity label to class 0
        cs = centroids_from_features(np.array([[0.5], [-0.5]]), [0, 1], C=2)
        x = x_for_prob(0.2)
        got = info_score_unlabeled(model, cs, x, k=1)
        assert got == pytest.approx(-math.log(0.2), abs=1e-12)

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

    def test_floor_bounds_scores(self):
        model = two_class_model(scale=500.0)
        score = info_score_labeled(model, np.array([5.0]), 1)  # wrong class
        assert score == pytest.approx(-LOG_PROB_FLOOR)
        assert np.isfinite(score)


class TestObservationLabel:
    def test_confident_consistent(self):
        model = two_class_model(scale=3.0)
        x = x_for_prob(0.99, scale=3.0)
        assert observation_label(model, x, 0, tau=0.95) is Category.CC

    def test_uncertain_inconsistent(self):
        model = two_class_model()
        x = x_for_prob(0.5 + 1e-3)
        # prediction is class 0; true label 1; max prob ~0.5 < tau
        assert observation_label(model, x, 1, tau=0.95) is Category.UI

    def test_all_four_branches(self):
        model = two_class_model(scale=3.0)
        hi, lo = x_for_prob(0.97, 3.0), x_for_prob(0.6, 3.0)
        assert observation_label(model, hi, 0, 0.95) is Category.CC
        assert observation_label(model, lo, 0, 0.95) is Category.UC
        assert observation_label(model, lo, 1, 0.95) is Category.UI
        assert observation_label(model, hi, 1, 0.95) is Category.CI

    def test_threshold_boundary_inclusive(self):
        """max P exactly equal to tau counts as confident."""
        model = two_class_model(scale=2.0)
        x = x_for_prob(0.8, 2.0)
        tau = float(model.predict_proba(x[None, :]).max())
        assert observation_label(model, x, 0, tau) is Category.CC
        assert observation_label(model, x, 1, tau) is Category.CI

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


class TestScoreDump:
    def test_csv_layout(self, tmp_path):
        rows = [
            {
                "id": 7,
                "info_score": 1.25,
                "sim_label": 2,
                "pred_label": 1,
                "max_prob": 0.61,
                "obs_or_component": "UI",
            }
        ]
        path = tmp_path / "scores.csv"
        write_score_dump(path, rows)
        with open(path) as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == SCORE_DUMP_FIELDS
            back = list(reader)
        assert back[0]["id"] == "7"
        assert back[0]["obs_or_component"] == "UI"
