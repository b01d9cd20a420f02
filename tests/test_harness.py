"""End-to-end loop behavior: budget accounting, strategy selection rules,
determinism, and the clean-ablation property."""

import dataclasses
import importlib.util
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from activeadapt.classifier import ROW_BLOCK, Classifier, TrainConfig
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
    write_aggregate_csv,
    AGGREGATE_FIELDS,
)
from activeadapt.sampler import SfdaConfig
from activeadapt.scoring import Category, compute_centroids, info_scores_unlabeled

from step_reference import train_epochs_ref, windows_ref
from test_classifier import _bits, _clone, block_sizes


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


    def test_empty_companion_batches_have_input_width(self, monkeypatch):
        """Without consistency or entropy pools, every step gets empty
        companion batches of width d_in, built once per call."""
        seen = []
        real_step = harness.backward_and_step

        def step_spy(model, labeled, cc_batch, uc_batch, cfg):
            seen.append((cc_batch, uc_batch))
            return real_step(model, labeled, cc_batch, uc_batch, cfg)

        monkeypatch.setattr(harness, "backward_and_step", step_spy)
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(0))
        pretrain_source(model, small_pool(), fast_train(), epochs=2)
        assert len(seen) > 1
        for cc_batch, uc_batch in seen:
            assert cc_batch[0].shape == (0, 4) and cc_batch[1].shape == (0,)
            assert uc_batch.shape == (0, 4)
            assert cc_batch is seen[0][0] and uc_batch is seen[0][1]


class TestTrainingStreams:
    """Each training purpose reads its own stream, every draw of an epoch is
    made before its steps, and a step only slices: the labeled permutation
    from key, the consistency windows, the entropy windows and the
    perturbation from [*key, 1], [*key, 2] and [*key, 3]."""

    @staticmethod
    def _data(n_l, n_cc, n_uc, d_in=4, C=3, seed=0):
        rng = np.random.default_rng(seed)
        X, y = rng.standard_normal((n_l, d_in)), rng.integers(0, C, n_l)
        cc = (rng.standard_normal((n_cc, d_in)), rng.integers(0, C, n_cc))
        return X, y, cc, rng.standard_normal((n_uc, d_in))

    @staticmethod
    def _batches(monkeypatch, model, X, y, cc, uc, cfg, epochs, key):
        """Every step's (labeled, cc, uc) batch, copied."""
        seen, real_step = [], harness.backward_and_step

        def step_spy(model, labeled, cc_batch, uc_batch, cfg):
            seen.append([a.copy() for a in (*labeled, *cc_batch, uc_batch)])
            return real_step(model, labeled, cc_batch, uc_batch, cfg)

        monkeypatch.setattr(harness, "backward_and_step", step_spy)
        harness._train_epochs(model, X, y, cc, uc, cfg, epochs, key)
        monkeypatch.undo()
        return seen

    @pytest.mark.parametrize("n_l, n_cc, n_uc, kw", [
        (70, 90, 50, {}),  # pools of several windows, a short last labeled batch
        (64, 7, 16, {}),  # pools no larger than a batch: every batch is the whole pool
        (40, 33, 17, dict(aug_dropout_p=0.0)),  # one window a permutation, no mask
        (50, 90, 50, dict(lambda_e=0.0)),  # consistency only
        (50, 90, 50, dict(lambda_c=0.0)),  # entropy only
    ])
    def test_epochs_match_the_stream_contract_reference(self, n_l, n_cc, n_uc, kw):
        """_train_epochs ends bit for bit where step_reference's one-draw-at-
        a-time form of the same contract ends."""
        X, y, cc, uc = self._data(n_l, n_cc, n_uc)
        cfg = fast_train(**kw)
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(1))
        ref = _clone(model)
        harness._train_epochs(model, X, y, cc, uc, cfg, 3, [7, 2, 4])
        train_epochs_ref(ref, X, y, cc, uc, cfg, 3, [7, 2, 4])
        assert _bits(model.params()) == _bits(ref.params())

    def test_each_purpose_reads_only_its_own_stream(self, monkeypatch):
        """The labeled batches come from permutations of default_rng(key)
        alone. Switching the consistency or the entropy part off, or changing
        a pool's size, leaves every other purpose's batches as they were, and
        each part's draws replay from its own [*key, p] stream."""
        X, y, cc, uc = self._data(70, 90, 50)
        key, size, epochs = [7, 2, 4], 16, 2
        cfg = fast_train(aug_noise_sigma=0.0, aug_dropout_p=0.0)
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(1))

        def run(cfg=cfg, cc=cc, uc=uc):
            return self._batches(monkeypatch, _clone(model), X, y, cc, uc, cfg, epochs, key)

        both = run()
        labeled = np.random.default_rng(key)
        perms = [labeled.permutation(70) for _ in range(epochs)]
        want = [perm[s : s + size] for perm in perms for s in range(0, 70, size)]
        assert len(both) == len(want) == 10
        for step, idx in zip(both, want):
            np.testing.assert_array_equal(step[0], X[idx])
            np.testing.assert_array_equal(step[1], y[idx])
        cc_rng, uc_rng = np.random.default_rng([*key, 1]), np.random.default_rng([*key, 2])
        cc_win = [w for _ in range(epochs) for w in windows_ref(cc_rng, 90, size, 5)]
        uc_win = [w for _ in range(epochs) for w in windows_ref(uc_rng, 50, size, 5)]
        for step, cc_rows, uc_rows in zip(both, cc_win, uc_win):
            np.testing.assert_array_equal(step[2], cc[0][cc_rows])
            np.testing.assert_array_equal(step[4], uc[uc_rows])

        cc_only = run(dataclasses.replace(cfg, lambda_e=0.0))
        uc_only = run(dataclasses.replace(cfg, lambda_c=0.0))
        smaller_uc = run(uc=uc[:20])
        for a, b, c, d in zip(both, cc_only, uc_only, smaller_uc):
            for i in (0, 1):
                np.testing.assert_array_equal(a[i], b[i])
                np.testing.assert_array_equal(a[i], c[i])
            for i in (2, 3):
                np.testing.assert_array_equal(a[i], b[i])
                np.testing.assert_array_equal(a[i], d[i])
            np.testing.assert_array_equal(a[4], c[4])
            assert b[4].shape == (0, 4) and c[2].shape == (0, 4)

    @pytest.mark.parametrize("n, size, count", [
        (90, 16, 13), (16, 16, 5), (7, 16, 4), (33, 16, 9), (47, 16, 2), (1, 32, 3), (5000, 32, 19),
    ])
    def test_no_window_repeats_a_row_or_spans_two_permutations(self, n, size, count):
        """Windows of take = min(size, n) rows come in runs of n // take from
        one permutation each: no row repeats within a run, and every run
        starts a fresh permutation, so a pool no larger than a batch gives
        the whole pool every time."""
        windows = harness._windows(np.random.default_rng([n, size]), n, size, count)
        take = min(size, n)
        assert windows.shape == (count, take)
        per = n // take
        for first in range(0, count, per):
            run = windows[first : first + per].ravel()
            assert len(set(run.tolist())) == run.size
            assert run.min() >= 0 and run.max() < n
        if take == n:
            assert all(sorted(w) == list(range(n)) for w in windows.tolist())

    def test_pretraining_and_baseline_rounds_train_as_the_plain_loop(self, monkeypatch):
        """Supervised-only training is the plain loop: per epoch one
        permutation of the labeled rows, drawn from the run's stream, then
        one step per batch in order. Pretraining reads [train.seed, 1] and
        baseline round r reads [train.seed, 2, r], and nothing else is drawn
        from either, so neither depends on the companion streams."""
        cfg = fast_loop(strategy=Strategy.RANDOM)
        real, keys = harness._train_epochs, []

        def train_spy(model, X, y, cc, uc, tcfg, epochs, key):
            assert cc is None and uc is None
            ref = train_epochs_ref(_clone(model), X, y, None, None, tcfg, epochs, key)
            real(model, X, y, cc, uc, tcfg, epochs, key)
            assert _bits(model.params()) == _bits(ref.params())
            keys.append(key)
            return model

        monkeypatch.setattr(harness, "_train_epochs", train_spy)
        run_active_loop(cfg, small_pool())
        seed = cfg.train.seed
        assert keys == [[seed, 1], [seed, 2, 1], [seed, 2, 2], [seed, 2, 3]]


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
        similarity labels and scores sliced to the rows left once the batch is
        out. The partition runs before annotation, so a spy takes the
        unlabeled pool minus the selected batch; rescoring it with the same
        model and centroids finds the same ids, scores and labels, and the
        training step gets its CC rows."""
        pool = generate_shifted_dataset(
            ShiftConfig(C=5, d_in=8, n_source=500, n_target=2000,
                        shift_kind="rotation", shift_magnitude=0.5, seed=3)
        )
        cfg = LoopConfig(budget=40, rounds=2, d_feat=64, pretrain_epochs=5,
                         train=TrainConfig(epochs_per_round=2, seed=3), seed=3)
        real_select = harness.select_active_batch
        real_partition, real_train = harness.partition_unlabeled, harness._train_epochs
        batches, expected, checked = [], [], []

        def select_spy(*args):
            batches.append(real_select(*args))
            return batches[-1]

        def partition_spy(ids, X, model, centroids, params, k, scores):
            u_ids, u_X = pool.unlabeled_arrays()
            rest = ~np.isin(u_ids, batches[-1])
            assert rest.sum() == u_ids.size - len(batches[-1])
            rem_ids, rem_X = u_ids[rest], u_X[rest]
            np.testing.assert_array_equal(ids, rem_ids)
            assert X is None  # the partition reads the scores, not the rows
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

        monkeypatch.setattr(harness, "select_active_batch", select_spy)
        monkeypatch.setattr(harness, "partition_unlabeled", partition_spy)
        monkeypatch.setattr(harness, "_train_epochs", train_spy)
        run_active_loop(cfg, pool)
        assert len(checked) == 2 and len(batches) == 2


class TestSelectedErrorRate:
    @pytest.mark.parametrize("strategy", [Strategy.DIANA, Strategy.ENTROPY])
    def test_round_one_rate_is_the_pretrained_models_batch_error(self, strategy):
        """Round 1's selected_error_rate is the share of its batch that the
        pretrained model (rebuilt through the documented seed scheme)
        misclassifies."""
        cfg = fast_loop(strategy=strategy, budget=30, rounds=2)
        reports = run_active_loop(cfg, small_pool())

        ref = small_pool()
        model = Classifier.initialize(ref.d_in, cfg.d_feat, ref.C, np.random.default_rng([cfg.seed, 0]))
        pretrain_source(model, ref, cfg.train, cfg.pretrain_epochs, np.random.default_rng([cfg.train.seed, 1]))
        u_ids, u_X = ref.unlabeled_arrays()
        batch = reports[0].selected_ids
        X = np.stack([u_X[list(u_ids).index(i)] for i in batch])
        wrong = model.predict(X) != ref.evaluation_labels(batch)
        assert 0 < wrong.sum() < len(batch)
        assert reports[0].selected_error_rate == wrong.sum() / len(batch)


class TestBaselines:
    def test_random_matches_reference_draw(self):
        """Selection equals an independent uniform-without-replacement draw
        with the documented per-round generator."""
        cfg = fast_loop(strategy=Strategy.RANDOM)
        pool = small_pool()
        reports = run_active_loop(cfg, pool)

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
        reports = run_active_loop(cfg, pool)

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
        reports = run_active_loop(cfg, pool)

        ref = small_pool()
        model = Classifier.initialize(ref.d_in, cfg.d_feat, ref.C, np.random.default_rng([cfg.seed, 0]))
        pretrain_source(model, ref, cfg.train, cfg.pretrain_epochs, np.random.default_rng([cfg.train.seed, 1]))
        u_ids, u_X = ref.unlabeled_arrays()
        maxp = model.predict_proba(u_X).max(axis=1)
        want = sorted(zip(u_ids, maxp), key=lambda t: (t[1], t[0]))[:4]
        assert reports[0].selected_ids == [int(i) for i, _ in want]

    def test_random_repeatable(self):
        cfg = fast_loop(strategy=Strategy.RANDOM)
        a = run_active_loop(cfg, small_pool())
        b = run_active_loop(cfg, small_pool())
        assert [r.selected_ids for r in a] == [r.selected_ids for r in b]

    @pytest.mark.parametrize("strategy", [
        Strategy.RANDOM, Strategy.ENTROPY, Strategy.LEAST_CONFIDENCE,
    ])
    def test_auxiliary_loss_weights_do_not_reach_baselines(self, strategy):
        """A baseline round fits no mixture, so it builds no consistency or
        entropy pool: its reports are the same with the auxiliary weights at
        their defaults and at zero."""
        cfg = fast_loop(strategy=strategy)
        zeroed = dataclasses.replace(cfg, train=fast_train(lambda_c=0.0, lambda_e=0.0))
        assert cfg.train.lambda_c != 0.0 and cfg.train.lambda_e != 0.0
        a = run_active_loop(cfg, small_pool())
        b = run_active_loop(zeroed, small_pool())
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_baselines_report_no_gmm_or_partition(self):
        reports = run_active_loop(fast_loop(strategy=Strategy.RANDOM), small_pool())
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

    def test_one_feature_pass_over_the_unlabeled_pool(self, monkeypatch):
        """The labeled set goes through the model once for the centroids and
        each unlabeled row exactly once, in row blocks, for the losses, the
        predictions and every k's similarity labels."""
        pool = small_pool(n_target=2 * ROW_BLOCK + 1)
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(0))
        pretrain_source(model, pool, fast_train(), epochs=5)
        sizes = block_sizes(monkeypatch)
        consistency_diagnostic(model, pool, ks=[2, 4, 8])
        assert sizes == [60, 5461, 5462, 5462]


class TestRowBlockMemory:
    def test_pool_passes_hold_one_feature_block_at_a_time(self):
        """Scoring and evaluating a three-block pool never hold a
        whole-pool (n, d_feat) matrix: each pass peaks within a few
        (ROW_BLOCK, d_feat) blocks plus its per-row inputs and outputs. A
        whole-pool feature matrix alone is three blocks; the limits are 3.5
        blocks for scoring (features, magnitudes and their partitioned copy
        live together) and 1.5 for evaluation."""
        n, d_in, d_feat, C = 3 * ROW_BLOCK, 8, 64, 5
        rng = np.random.default_rng(3)
        ids = np.arange(n + C)
        X = rng.standard_normal((n + C, d_in))
        y = np.concatenate([np.arange(C), rng.integers(0, C, n)])
        pool = DataPool(C, ids, X, y, ids < C)
        model = Classifier.initialize(d_in, d_feat, C, rng)
        centroids = compute_centroids(model, X[:C], y[:C])
        _, u_X = pool.unlabeled_arrays()
        block = ROW_BLOCK * d_feat * 8
        rows = n * 8  # one float64 or intp per row
        peaks = {}
        tracemalloc.start()
        try:
            for name, run in [
                ("score", lambda: info_scores_unlabeled(model, centroids, u_X, 8)),
                ("evaluate", lambda: evaluate(model, pool)),
            ]:
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                run()
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks["score"] <= 3.5 * block + (C + 2) * rows, peaks
        assert peaks["evaluate"] <= 1.5 * block + (d_in + C + 3) * rows, peaks


class TestRoundMemory:
    def test_diana_round_holds_one_remaining_pool_view(self, monkeypatch):
        """A diana round holds one copy of its unlabeled rows: the partition
        reads only the remaining pool's scores, and the CC/UC rows are taken
        from the whole pool's rows by index. Its selection, with those CC/UC
        copies, ends with the round. So round 2's selection starts with none
        of round 1's pools alive and, above where it starts, peaks within
        one (n, d_in) row copy, the CC and UC rows it returns (here about
        three fifths of a copy) and 16 values per row for ids, scores,
        labels, indices and the (4, n) posteriors. Building a remaining-pool
        copy of the rows as well would add a second row copy. Wide rows
        over a narrow feature layer make the row copies dominate; the seed
        is one whose mixture fits converge well before the iteration cap, to
        keep the test short."""
        n, d_in = 3 * ROW_BLOCK + 8, 64
        pool = generate_shifted_dataset(
            ShiftConfig(C=3, d_in=d_in, n_source=60, n_target=n, shift_magnitude=0.4, seed=3)
        )
        cfg = fast_loop(budget=8, rounds=2, d_feat=8, seed=3,
                        train=fast_train(epochs_per_round=1, seed=3))
        real, pools, alive, peaks, kept = harness._select_diana, [], [], [], []

        def spy(*args):
            alive.append([ref() is not None for ref in pools])
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            sel = real(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            pools.extend(weakref.ref(a) for a in (*sel.cc, sel.uc) if a.size)
            kept.append(len(sel.cc[1]) + len(sel.uc))
            return sel

        monkeypatch.setattr(harness, "_select_diana", spy)
        tracemalloc.start()
        try:
            run_active_loop(cfg, pool)
        finally:
            tracemalloc.stop()
        assert alive == [[], [False, False, False]]
        n_u = n - cfg.per_round
        assert kept[1] < 0.8 * n_u
        assert peaks[1] <= (n_u + kept[1]) * d_in * 8 + 16 * n_u * 8, peaks


def _perfbench_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_harness_name_is_called(monkeypatch):
    """perfbench's per-layer figures come from wrapping names in the harness
    namespace. A name the loop no longer calls would read 0 there, so a
    small diana run plus a source-free run must call every one of them."""
    import activeadapt

    before = dict(vars(harness))
    tracer = _perfbench_spans().Tracer()
    tracer.install(activeadapt)
    try:
        traced = [name for name, fn in vars(harness).items() if before.get(name) is not fn]
    finally:
        tracer.uninstall()
    assert traced

    calls = dict.fromkeys(traced, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in traced:
        monkeypatch.setattr(harness, name, counted(name, before[name]))
    run_active_loop(fast_loop(), small_pool(n_target=200))
    run_active_loop(fast_loop(sfda=SfdaConfig()), small_pool(n_target=200))
    assert [name for name, n in calls.items() if n == 0] == []
