"""End-to-end loop behavior: budget accounting, strategy selection rules,
determinism, and the clean-ablation property."""

import dataclasses

import numpy as np
import pytest

from activeadapt.classifier import Classifier, TrainConfig
from activeadapt.datapool import DataPool, ShiftConfig, generate_shifted_dataset
import activeadapt.harness as harness
from activeadapt.harness import (
    LoopConfig,
    Strategy,
    compare_strategies,
    consistency_diagnostic,
    evaluate,
    pretrain_source,
    run_active_loop,
    run_baseline,
    write_aggregate_csv,
    AGGREGATE_FIELDS,
)
from activeadapt.sampler import SfdaConfig
from activeadapt.scoring import Category, info_scores_unlabeled


def fast_train(**kw):
    base = dict(learning_rate=0.05, epochs_per_round=3, batch_size=16, seed=2)
    base.update(kw)
    return TrainConfig(**base)


def fast_loop(**kw):
    base = dict(
        budget=12,
        rounds=3,
        d_feat=16,
        train=fast_train(),
        pretrain_epochs=10,
        seed=5,
    )
    base.update(kw)
    return LoopConfig(**base)


def small_pool(seed=1, n_target=90):
    cfg = ShiftConfig(
        C=3, d_in=4, n_source=60, n_target=n_target, shift_magnitude=0.4, seed=seed
    )
    return generate_shifted_dataset(cfg)


def hand_pool(C, X_s, y_s, X_t, y_t):
    ids = np.arange(len(X_s) + len(X_t))
    return DataPool(C, ids, list(X_s) + list(X_t), list(y_s) + list(y_t), ids < len(X_s))


class TestConfigValidation:
    def test_rounds_must_divide_budget(self):
        with pytest.raises(ValueError):
            fast_loop(budget=10, rounds=3)

    def test_tau_range(self):
        with pytest.raises(ValueError):
            fast_loop(tau=1.0)

    def test_default_k_is_feature_dim_over_8(self):
        assert fast_loop(d_feat=64).resolved_k() == 8
        assert fast_loop(d_feat=16).resolved_k() == 2
        assert fast_loop(d_feat=16, k=5).resolved_k() == 5

    def test_budget_exceeding_pool_rejected(self):
        pool = small_pool(n_target=10)
        with pytest.raises(ValueError):
            run_active_loop(fast_loop(budget=12, rounds=3), pool)

    def test_sfda_requires_diana(self):
        with pytest.raises(ValueError):
            fast_loop(strategy=Strategy.RANDOM, sfda=SfdaConfig())

    @pytest.mark.parametrize("kw", [
        dict(k=0), dict(k=-1), dict(k=17), dict(d_feat=64, k=65), dict(pretrain_epochs=-1),
    ])
    def test_bad_k_or_pretrain_epochs_rejected_at_construction(self, kw):
        """A k outside [1, d_feat] or a negative pretraining length fails when
        the config is built, not in round 1 after pretraining."""
        with pytest.raises(ValueError):
            fast_loop(**kw)

    def test_k_bounds_accepted(self):
        assert fast_loop(k=1).resolved_k() == 1
        assert fast_loop(k=16).resolved_k() == 16
        assert fast_loop(pretrain_epochs=0).pretrain_epochs == 0


class TestEvaluate:
    def test_all_correct(self):
        model = Classifier(np.eye(2) * 3, np.zeros(2), np.eye(2) * 3, np.zeros(2))
        pool = hand_pool(2, [[2, 0], [0, 2]], [0, 1], [[2, 0], [0, 2]], [0, 1])
        assert evaluate(model, pool) == 1.0

    def test_constant_prediction_balanced(self):
        model = Classifier(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)), np.array([5.0, 0.0]))
        pool = hand_pool(2, [[1, 0], [0, 1]], [0, 1], [[1, 0], [0, 1], [1, 0], [0, 1]], [0, 1, 0, 1])
        assert evaluate(model, pool) == 0.5

    def test_seven_of_ten(self):
        model = Classifier(np.eye(2) * 3, np.zeros(2), np.eye(2) * 3, np.zeros(2))
        X_t = [[2, 0]] * 7 + [[0, 2]] * 3
        y_t = [0] * 7 + [0] * 3  # the last three are predicted as class 1
        pool = hand_pool(2, [[2, 0], [0, 2]], [0, 1], X_t, y_t)
        assert evaluate(model, pool) == pytest.approx(0.7)

    def test_counts_annotated_samples_too(self):
        model = Classifier(np.eye(2) * 3, np.zeros(2), np.eye(2) * 3, np.zeros(2))
        pool = hand_pool(2, [[2, 0], [0, 2]], [0, 1], [[2, 0], [0, 2]], [0, 1])
        pool.annotate_batch([2])
        assert evaluate(model, pool) == 1.0


class TestPretrain:
    def test_separable_source_learned(self):
        """Two well-separated classes are fit essentially perfectly."""
        cfg = ShiftConfig(
            C=2, d_in=4, n_source=80, n_target=40, shift_magnitude=0.0,
            class_separation=6.0, seed=3,
        )
        pool = generate_shifted_dataset(cfg)
        model = Classifier.initialize(4, 16, 2, np.random.default_rng(0))
        pretrain_source(model, pool, fast_train(), epochs=30)
        X, y = pool.source_arrays()
        assert np.mean(model.predict(X) == y) > 0.95

    def test_zero_epochs_no_change(self):
        pool = small_pool()
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(0))
        before = {k: v.copy() for k, v in model.params().items()}
        pretrain_source(model, pool, fast_train(), epochs=0)
        for k, v in model.params().items():
            np.testing.assert_array_equal(v, before[k])

    def test_deterministic(self):
        def run():
            pool = small_pool()
            model = Classifier.initialize(4, 16, 3, np.random.default_rng(1))
            pretrain_source(model, pool, fast_train(), epochs=5, rng=np.random.default_rng(3))
            return model

        a, b = run(), run()
        for k in a.params():
            np.testing.assert_array_equal(a.params()[k], b.params()[k])


class TestBudgetAccounting:
    def test_zero_budget_single_eval_report(self):
        pool = small_pool()
        reports = run_active_loop(fast_loop(budget=0, rounds=1), pool)
        assert len(reports) == 1
        assert reports[0].round_index == 0
        assert reports[0].gmm is None
        assert 0.0 <= reports[0].accuracy <= 1.0
        assert len(pool.target_labeled) == 0

    def test_cumulative_annotation_sequence(self):
        """B=12, R=3 yields |T| = 4, 8, 12 with no id annotated twice."""
        pool = small_pool()
        reports = run_active_loop(fast_loop(), pool)
        assert [len(r.selected_ids) for r in reports] == [4, 4, 4]
        all_ids = [i for r in reports for i in r.selected_ids]
        assert len(set(all_ids)) == 12
        assert len(pool.target_labeled) == 12
        assert len(pool.target_unlabeled) == 90 - 12

    def test_two_per_round_over_five_rounds(self):
        """Budget 10 over 5 rounds annotates exactly 2 per round."""
        pool = small_pool()
        sizes = []
        run_active_loop(
            fast_loop(budget=10, rounds=5, train=fast_train(epochs_per_round=1)),
            pool,
            on_round_end=lambda m, p, rep: sizes.append(len(p.target_labeled)),
        )
        assert sizes == [2, 4, 6, 8, 10]

    def test_partition_sizes_cover_remaining_pool(self):
        pool = small_pool()
        reports = run_active_loop(fast_loop(), pool)
        remaining = 90
        for rep in reports:
            remaining -= len(rep.selected_ids)
            assert sum(rep.partition_sizes.values()) == remaining

    def test_full_run_deterministic(self):
        r1 = run_active_loop(fast_loop(), small_pool())
        r2 = run_active_loop(fast_loop(), small_pool())
        assert [r.accuracy for r in r1] == [r.accuracy for r in r2]
        assert [r.selected_ids for r in r1] == [r.selected_ids for r in r2]


class TestRemainingPoolLabels:
    def test_sliced_similarity_labels_match_a_fresh_scoring_pass(self, monkeypatch):
        """The consistency targets and the partition's scores are the round's
        similarity labels and scores sliced to the rows left after annotation.
        A spy rescoring the remaining pool with the same model and centroids
        finds the same rows, scores and labels."""
        pool = generate_shifted_dataset(
            ShiftConfig(C=5, d_in=8, n_source=500, n_target=2000,
                        shift_kind="rotation", shift_magnitude=0.5, seed=3)
        )
        cfg = LoopConfig(budget=40, rounds=2, d_feat=64, pretrain_epochs=5,
                         train=TrainConfig(epochs_per_round=2, seed=3), seed=3)
        real_partition, real_train = harness.partition_unlabeled, harness._train_epochs
        expected, checked = [], []

        def partition_spy(ids, X, model, centroids, params, k, scores):
            rem_ids, rem_X = pool.unlabeled_arrays()
            np.testing.assert_array_equal(ids, rem_ids)
            np.testing.assert_array_equal(X, rem_X)
            fresh_scores, fresh = info_scores_unlabeled(model, centroids, rem_X, k)
            np.testing.assert_array_equal(scores, fresh_scores)
            out = real_partition(ids, X, model, centroids, params, k, scores=scores)
            cc = np.array([out.category[int(i)] == Category.CC for i in rem_ids])
            expected.append((rem_X[cc], fresh[cc]))
            return out

        def train_spy(model, X, y, cc, uc, *rest):
            if cc is not None:
                want_X, want_sim = expected.pop()
                assert len(want_sim) > 0
                np.testing.assert_array_equal(cc[0], want_X)
                np.testing.assert_array_equal(cc[1], want_sim)
                checked.append(len(want_sim))
            return real_train(model, X, y, cc, uc, *rest)

        monkeypatch.setattr(harness, "partition_unlabeled", partition_spy)
        monkeypatch.setattr(harness, "_train_epochs", train_spy)
        run_active_loop(cfg, pool)
        assert len(checked) == 2


class TestBaselines:
    def test_random_matches_reference_draw(self):
        """Selection equals an independent uniform-without-replacement draw
        with the documented per-round generator."""
        cfg = fast_loop(strategy=Strategy.RANDOM)
        pool = small_pool()
        reports = run_baseline(cfg, pool)

        ref_pool = small_pool()
        annotated = set()
        for r, rep in enumerate(reports, start=1):
            u_ids = np.array([i for i in ref_pool.target_unlabeled if i not in annotated])
            rng = np.random.default_rng([cfg.seed, 3, r])
            want = rng.choice(u_ids, size=4, replace=False)
            assert rep.selected_ids == [int(i) for i in want]
            annotated.update(rep.selected_ids)

    def test_entropy_matches_sort_oracle(self):
        cfg = fast_loop(strategy=Strategy.ENTROPY, budget=4, rounds=1)
        pool = small_pool()
        reports = run_baseline(cfg, pool)

        # rebuild the pretrained model through the documented seed scheme
        ref = small_pool()
        model = Classifier.initialize(ref.d_in, cfg.d_feat, ref.C, np.random.default_rng([cfg.seed, 0]))
        pretrain_source(model, ref, cfg.train, cfg.pretrain_epochs, np.random.default_rng([cfg.train.seed, 1]))
        u_ids, u_X = ref.unlabeled_arrays()
        logp = model.log_proba(u_X)
        ent = -np.sum(np.exp(logp) * logp, axis=1)
        want = sorted(zip(u_ids, ent), key=lambda t: (-t[1], t[0]))[:4]
        assert reports[0].selected_ids == [int(i) for i, _ in want]

    def test_least_confidence_matches_sort_oracle(self):
        cfg = fast_loop(strategy=Strategy.LEAST_CONFIDENCE, budget=4, rounds=1)
        pool = small_pool()
        reports = run_baseline(cfg, pool)

        ref = small_pool()
        model = Classifier.initialize(ref.d_in, cfg.d_feat, ref.C, np.random.default_rng([cfg.seed, 0]))
        pretrain_source(model, ref, cfg.train, cfg.pretrain_epochs, np.random.default_rng([cfg.train.seed, 1]))
        u_ids, u_X = ref.unlabeled_arrays()
        maxp = model.predict_proba(u_X).max(axis=1)
        want = sorted(zip(u_ids, maxp), key=lambda t: (t[1], t[0]))[:4]
        assert reports[0].selected_ids == [int(i) for i, _ in want]

    def test_random_repeatable(self):
        cfg = fast_loop(strategy=Strategy.RANDOM)
        a = run_baseline(cfg, small_pool())
        b = run_baseline(cfg, small_pool())
        assert [r.selected_ids for r in a] == [r.selected_ids for r in b]

    def test_run_baseline_rejects_diana(self):
        with pytest.raises(ValueError):
            run_baseline(fast_loop(strategy=Strategy.DIANA), small_pool())

    def test_baselines_report_no_gmm_or_partition(self):
        reports = run_baseline(fast_loop(strategy=Strategy.RANDOM), small_pool())
        assert all(r.gmm is None and r.partition_sizes == {} for r in reports)


class TestCleanAblation:
    def test_identical_training_path_when_selection_forced(self):
        """With the auxiliary weights at zero and a budget that swallows the
        whole unlabeled pool, the acquisition rule cannot matter: the
        adaptive strategy and the random baseline land on identical models."""
        train = fast_train(lambda_c=0.0, lambda_e=0.0)
        n_t = 8
        acc = {}
        for strat in (Strategy.DIANA, Strategy.RANDOM):
            pool = small_pool(n_target=n_t)
            cfg = fast_loop(budget=n_t, rounds=1, train=train, strategy=strat)
            acc[strat] = run_active_loop(cfg, pool)[0].accuracy
        assert acc[Strategy.DIANA] == acc[Strategy.RANDOM]


class TestSfdaLoop:
    def test_bootstrap_round_then_normal_rounds(self):
        pool = small_pool()
        cfg = fast_loop(budget=12, rounds=2, sfda=SfdaConfig())
        reports = run_active_loop(cfg, pool)
        assert len(reports) == 2
        # first round has no labeled target data: bootstrap, no mixture fit
        assert reports[0].gmm is None
        assert len(pool.target_labeled) == 12
        pool.check_invariants()

    def test_source_free_training_ignores_source_labels(self):
        """After the bootstrap round the loop must keep running with T-only
        supervision."""
        pool = small_pool()
        cfg = fast_loop(budget=12, rounds=3, sfda=SfdaConfig())
        reports = run_active_loop(cfg, pool)
        assert all(0.0 <= r.accuracy <= 1.0 for r in reports)


class TestCompare:
    def test_rows_and_pairing(self, tmp_path):
        shift = ShiftConfig(C=3, d_in=4, n_source=60, n_target=60, shift_magnitude=0.3, seed=11)
        loop = fast_loop(budget=6, rounds=2)
        rows = compare_strategies(shift, loop, [Strategy.DIANA, Strategy.RANDOM], 2)
        assert len(rows) == 2 * 2 * 2
        assert {r["strategy"] for r in rows} == {"diana", "random"}
        for row in rows:
            assert set(row) == set(AGGREGATE_FIELDS)
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "strategy,seed,round,accuracy,selected_error_rate"


class TestDiagnostic:
    def test_structure_and_ranges(self):
        pool = small_pool()
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(0))
        pretrain_source(model, pool, fast_train(), epochs=20)
        out = consistency_diagnostic(model, pool, ks=[2, 4])
        assert set(out) == {2, 4}
        for per_q in out.values():
            assert set(per_q) == {0.25, 0.5, 0.75}
            for rates in per_q.values():
                assert 0.0 <= rates["low"] <= 1.0
                assert 0.0 <= rates["high"] <= 1.0
