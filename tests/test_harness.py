"""End-to-end loop behavior: budget accounting, strategy selection rules,
determinism, and the clean-ablation property."""

import copy
import dataclasses
import importlib.util
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from activeadapt import gmm
from activeadapt.classifier import ROW_BLOCK, Classifier, TrainConfig, combined_loss
from activeadapt.datapool import DataPool, ShiftConfig, generate_shifted_dataset
import activeadapt.harness as harness
from activeadapt.harness import (
    LoopConfig,
    Strategy,
    aggregate_rows,
    compare_strategies,
    consistency_diagnostic,
    evaluate,
    offset_seeds,
    pretrain_source,
    run_active_loop,
    write_aggregate_csv,
    AGGREGATE_FIELDS,
)
from activeadapt.sampler import SfdaConfig, sfda_bootstrap
from activeadapt.scoring import (
    LOG_PROB_FLOOR,
    Category,
    compute_centroids,
    info_scores_unlabeled,
    similarity_labels,
)

from step_reference import train_epochs_ref, windows_ref
from test_classifier import _bits, _clone, block_sizes
from test_gmm import weight_ratio
from test_invariance import pool_rows, shuffled_rows


def step_batches(epoch, step):
    """A prepared step's batches as views: labeled rows and labels,
    consistency rows and labels, entropy rows. The labels are read back
    from the one-hot targets."""
    start, cc_start, uc_start, stop = epoch.bounds[step]
    labels = epoch.targets[start:uc_start].argmax(axis=1)
    n_l = cc_start - start
    return (epoch.X[start:cc_start], labels[:n_l], epoch.X[cc_start:uc_start],
            labels[n_l:], epoch.X[uc_start:stop])


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

    @pytest.mark.parametrize("value, message", [
        ("0.9", "tau='0.9' must be a number"),
        (None, "tau=None must be a number"),
        (True, "tau=True must be a number"),
        (float("nan"), "tau must be finite"),
    ])
    def test_tau_must_be_a_finite_number(self, value, message):
        """A string tau used to fail at its range test without the field's
        name."""
        with pytest.raises(ValueError, match=re.escape(message)):
            fast_loop(tau=value)

    def test_none_only_where_the_default_is_none(self):
        assert fast_loop(k=None).resolved_k() == 2
        with pytest.raises(ValueError, match=re.escape("budget=None must be an integer")):
            fast_loop(budget=None)

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

    @pytest.mark.parametrize("field, value, message", [
        ("budget", 12.0, "must be an integer"),
        ("rounds", 3.0, "must be an integer"),
        ("k", 2.5, "must be an integer"),
        ("k", True, "must be an integer"),
        ("d_feat", 16.0, "must be an integer"),
        ("pretrain_epochs", 2.5, "must be an integer"),
        ("seed", -1, "must be at least 0"),
        ("d_feat", 0, "must be at least 1"),
    ])
    def test_bad_count_or_seed_names_its_field(self, field, value, message):
        """A float count used to fail inside numpy without the field's name, a
        bool k ran as k = 1, a negative seed failed at the first generator,
        and d_feat=0 was blamed on k."""
        with pytest.raises(ValueError, match=f"{field}={value!r} {message}"):
            fast_loop(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = fast_loop(budget=np.int64(12), rounds=np.int32(3), k=np.int64(2))
        assert cfg.per_round == 4
        assert fast_loop(budget=0).per_round == 0

    @pytest.mark.parametrize("value", [1, 0, "yes", None, 1.0, np.bool_(True)])
    def test_loss_report_must_be_a_bool(self, value):
        """A truthy string would otherwise turn the report on silently."""
        with pytest.raises(ValueError, match=re.escape(f"loss_report={value!r} must be")):
            fast_loop(loss_report=value)

    def test_loss_report_is_off_by_default(self):
        assert fast_loop().loss_report is False
        assert fast_loop(loss_report=True).loss_report is True


class TestEvaluate:
    def test_accuracy_of_an_annotated_permuted_pool(self):
        """On a pool given in a permuted row order, with target rows
        annotated out of id order, accuracy is the share of the target rows
        that target_arrays lists whose prediction equals their
        evaluation_labels."""
        ids, X, y, source = rows = pool_rows()
        pool = DataPool(5, *shuffled_rows(rows, seed=1))
        pool.annotate_batch(ids[~source][[40, 3, 17]].tolist())
        model = Classifier.initialize(8, 16, 5, np.random.default_rng(2))
        t_ids, X_t = pool.target_arrays()
        assert t_ids.size == 200
        want = np.mean(model.predict(X_t) == pool.evaluation_labels(t_ids))
        assert evaluate(model, pool) == want

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
        """Without consistency or entropy pools, every step's companion
        batches are empty, its rows have width d_in, and one layout serves
        the steps of every epoch."""
        seen = []
        real_step = harness.backward_and_step

        def step_spy(model, epoch, step):
            seen.append((epoch, step_batches(epoch, step)))
            return real_step(model, epoch, step)

        monkeypatch.setattr(harness, "backward_and_step", step_spy)
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(0))
        pretrain_source(model, small_pool(), fast_train(), epochs=2)
        assert len(seen) > 1
        for epoch, (X, y, X_cc, y_cc, X_uc) in seen:
            assert X.shape[1] == 4 and X_cc.shape == (0, 4) and y_cc.shape == (0,)
            assert X_uc.shape == (0, 4)
        assert all(epoch is seen[0][0] for epoch, _ in seen)


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

        def step_spy(model, epoch, step):
            seen.append([a.copy() for a in step_batches(epoch, step)])
            return real_step(model, epoch, step)

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
        (20, 90, 50, dict(batch_size=32)),  # one short step, as a source-free round's 20 rows
        (48, 90, 50, {}),  # a whole number of batches: no short last step
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

    @pytest.mark.parametrize("fault, message", [
        ("label", "label outside"), ("nan", "non-finite input"),
    ])
    def test_bad_consistency_row_raises_before_the_first_step(self, fault, message):
        """A similarity label outside [0, C), or a NaN in a consistency row,
        that only the epoch's last step would use raises ValueError before
        the epoch's first step, so the parameters stay bit for bit."""
        X, y, (X_cc, y_cc), uc = self._data(70, 90, 50)
        key = [7, 2, 4]
        # 5 steps of 16 rows, all windows of one permutation of the 90 rows
        late = windows_ref(np.random.default_rng([*key, 1]), 90, 16, 5)[-1][0]
        if fault == "label":
            y_cc[late] = 3
        else:
            X_cc[late, 2] = np.nan
        model = Classifier.initialize(4, 16, 3, np.random.default_rng(1))
        before = _bits(model.params())
        with pytest.raises(ValueError, match=message):
            harness._train_epochs(model, X, y, (X_cc, y_cc), uc, fast_train(), 2, key)
        assert _bits(model.params()) == before

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

    def test_zero_budget_report_reaches_on_round_end(self):
        """The evaluation-only report goes through on_round_end like every
        round's report: one call, with round 0 and the run's pool."""
        pool, seen = small_pool(), []
        reports = run_active_loop(
            fast_loop(budget=0, rounds=1), pool,
            on_round_end=lambda m, p, rep: seen.append((p, rep)),
        )
        assert len(seen) == 1
        assert seen[0][0] is pool and seen[0][1] is reports[0]
        assert seen[0][1].round_index == 0

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
        model and the labeled rows' centroids finds the same ids, scores and
        labels (the partition is handed neither rows nor centroids), and the
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
            assert X is None and centroids is None  # it reads the scores alone
            fresh_scores, fresh = info_scores_unlabeled(
                model, compute_centroids(model, *pool.labeled_arrays()), rem_X, k)
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


class TestEndOfRoundPass:
    """Round r < R ends with one pass over the unlabeled rows that gives its
    own evaluation's predictions of them and round r + 1's scores. Round
    r + 1 uses that pass only while the model and the unlabeled pool are as
    the pass left them."""

    @staticmethod
    def spy(monkeypatch, check=None):
        """Spies on a run: the rows of every info_scores_unlabeled call, the
        scoring calls each _select_diana makes, and the rows each evaluate
        predicts. check(model, pool, cfg, b, sel), when given, sees every
        selection."""
        real_score, real_select = harness.info_scores_unlabeled, harness._select_diana
        real_eval, real_predict = harness.evaluate, Classifier.predict
        seen = {"scored": [], "starts": [], "evaluated": []}
        predicting = []

        def score_spy(*args, **kwargs):
            seen["scored"].append(len(args[2]))
            return real_score(*args, **kwargs)

        def select_spy(model, pool, cfg, b, scored):
            if check is not None:
                check(model, pool, cfg, b, real_select)
            before = len(seen["scored"])
            sel = real_select(model, pool, cfg, b, scored)
            seen["starts"].append(len(seen["scored"]) - before)
            return sel

        def eval_spy(*args):
            predicting.append(0)
            acc = real_eval(*args)
            seen["evaluated"].append(predicting.pop())
            return acc

        def predict_spy(self, X):
            if predicting:
                predicting[-1] += len(X)
            return real_predict(self, X)

        monkeypatch.setattr(harness, "info_scores_unlabeled", score_spy)
        monkeypatch.setattr(harness, "_select_diana", select_spy)
        monkeypatch.setattr(harness, "evaluate", eval_spy)
        monkeypatch.setattr(Classifier, "predict", predict_spy)
        return seen

    def test_one_scoring_pass_per_round(self, monkeypatch):
        """In a 3-round run over 90 target rows, 4 a round, round 1 scores at
        its start and rounds 1 and 2 at their end; rounds 2 and 3 start with
        no scoring pass. Rounds 1 and 2 evaluate by predicting their
        annotated rows only; round 3, the last, predicts every target row."""
        seen = self.spy(monkeypatch)
        reports = run_active_loop(fast_loop(), small_pool())
        assert seen == {"scored": [90, 86, 82], "starts": [1, 0, 0], "evaluated": [4, 8, 90]}
        assert [r.round_index for r in reports] == [1, 2, 3]

    @pytest.mark.parametrize("change", [None, "theta", "annotate"])
    def test_a_changed_model_or_pool_is_scored_afresh(self, monkeypatch, change):
        """An on_round_end that moves one weight of theta by one ulp, or that
        annotates one more id, makes the next round score afresh. Every
        round's batch equals a fresh _select_diana's on copies of the model
        and pool it starts from."""
        batches = []

        def fresh(model, pool, cfg, b, select):
            batches.append(select(copy.copy(model), copy.deepcopy(pool), cfg, b).ids)

        def on_round_end(model, pool, report):
            assert report.selected_ids == batches[-1]
            if change == "theta":
                model.theta[7] = np.nextafter(model.theta[7], np.inf)
            elif change == "annotate":
                pool.annotate_batch([int(pool.target_unlabeled[-1])])

        seen = self.spy(monkeypatch, fresh)
        run_active_loop(fast_loop(), small_pool(), on_round_end=on_round_end)
        assert len(batches) == 3
        assert seen["starts"] == ([1, 0, 0] if change is None else [1, 1, 1])

    @staticmethod
    def annotated_pool(C, n_target=200):
        """A generated pool at C classes given in a permuted row order, with
        six target rows annotated whose ids interleave the unlabeled ones,
        and a model pretrained on its source rows."""
        ids, X, y, source = rows = pool_rows(C, n_target, d_in=16)
        pool = DataPool(C, *shuffled_rows(rows, seed=4))
        pool.annotate_batch(ids[~source][[150, 3, 77, 17, 199, 40]].tolist())
        model = Classifier.initialize(16, 64, C, np.random.default_rng(2))
        pretrain_source(model, pool, fast_train(), epochs=3)
        return model, pool

    def test_evaluation_from_the_pass_is_bit_identical(self):
        """evaluate with the pass's predictions of the unlabeled rows equals
        evaluate alone, bit for bit, at C = 2, 3, 5 and 10, on a pool whose
        unlabeled rows span three row blocks and whose annotated rows
        interleave them by id."""
        cfg = fast_loop(d_feat=64)
        for C in (2, 3, 5, 10):
            model, pool = self.annotated_pool(C, 2 * ROW_BLOCK + 7)
            assert pool.sizes[2] > 2 * ROW_BLOCK
            X_l, y_l = pool.labeled_arrays()
            scored, pred = harness._score_pool(model, cfg, X_l, y_l, *pool.unlabeled_arrays())
            np.testing.assert_array_equal(scored.ids, pool.target_unlabeled)
            np.testing.assert_array_equal(pred, model.predict(pool.unlabeled_arrays()[1]))
            carried, plain = evaluate(model, pool, pred), evaluate(model, pool)
            assert carried.hex() == plain.hex() and 0 < plain < 1, C

    def test_plain_evaluation_predicts_annotated_then_unlabeled_rows(self, monkeypatch):
        """Without carried predictions, evaluate calls predict twice: on the
        annotated rows, in annotation order, then on the unlabeled rows in
        id order, as pool.unlabeled_arrays gives them; never on both at once."""
        model, pool = self.annotated_pool(5)
        calls, real = [], Classifier.predict

        def spy(self, X):
            calls.append(np.array(X))
            return real(self, X)

        monkeypatch.setattr(Classifier, "predict", spy)
        evaluate(model, pool)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], pool.labeled_arrays(include_source=False)[0])
        assert calls[1].tobytes() == pool.unlabeled_arrays()[1].tobytes()
        assert calls[1].shape == (pool.sizes[2], 16)

    def test_wrong_length_predictions_are_refused(self):
        """Carried predictions must hold one class per unlabeled row: one too
        many, one too few or a 2-D array raise, naming both counts, rather
        than shifting every prediction against the true labels."""
        model, pool = self.annotated_pool(5)
        pred = model.predict(pool.unlabeled_arrays()[1])
        n_u = pool.sizes[2]
        assert pred.shape == (n_u,) and evaluate(model, pool, pred) == evaluate(model, pool)
        for wrong in (np.append(pred, 0), pred[:-1], pred[:, None]):
            named = f"shape {re.escape(str(wrong.shape))}, not one class for each of the {n_u} "
            with pytest.raises(ValueError, match=named):
                evaluate(model, pool, wrong)


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

    @pytest.mark.parametrize("strategy", [Strategy.ENTROPY, Strategy.LEAST_CONFIDENCE])
    def test_tied_keys_take_the_smallest_ids(self, strategy):
        """A model with zero weights predicts every row alike, so every
        row's key ties; the batch is then the smallest ids, whatever order
        the pool was given its rows in."""
        rng = np.random.default_rng(0)
        ids = rng.permutation(1000)[:40]
        X = rng.standard_normal((40, 3))
        y = np.arange(40) % 3
        pool = DataPool(3, ids, X, y, np.arange(40) < 10)
        model = Classifier(np.zeros((3, 4)), rng.standard_normal(4),
                           np.zeros((4, 3)), np.array([0.3, -0.2, 0.1]))
        u_ids, u_X = pool.unlabeled_arrays()
        assert len(np.unique(model.log_proba(u_X), axis=0)) == 1
        assert ids[10:].tolist() != sorted(ids[10:].tolist())
        sel = harness._select_baseline(model, pool, fast_loop(strategy=strategy), 7, 1)
        assert sel.ids == sorted(u_ids.tolist())[:7]

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
    SHIFT = ShiftConfig(C=3, d_in=4, n_source=60, n_target=60, shift_magnitude=0.3, seed=11)

    def test_rows_and_pairing(self, tmp_path):
        loop = fast_loop(budget=6, rounds=2)
        rows = compare_strategies(self.SHIFT, loop, [Strategy.DIANA, Strategy.RANDOM], 2)
        assert len(rows) == 2 * 2 * 2
        assert {r["strategy"] for r in rows} == {"diana", "random"}
        for row in rows:
            assert set(row) == set(AGGREGATE_FIELDS)
        path = tmp_path / "agg.csv"
        write_aggregate_csv(path, rows)
        header = path.read_text().splitlines()[0]
        assert header == "strategy,seed,round,accuracy,selected_error_rate"

    def test_one_pretraining_per_seed(self, monkeypatch):
        """A seed's strategies share one pretraining, on the seed's
        offset training stream."""
        real, seeds = harness.pretrain_source, []

        def spy(model, pool, cfg, *args):
            seeds.append(cfg.seed)
            return real(model, pool, cfg, *args)

        monkeypatch.setattr(harness, "pretrain_source", spy)
        strategies = [Strategy.DIANA, Strategy.RANDOM, Strategy.ENTROPY]
        compare_strategies(self.SHIFT, fast_loop(budget=6, rounds=2), strategies, 2)
        assert seeds == [2, 3]  # fast_train's seed, offset by the seed index

    def test_each_strategy_plays_on_its_own_copy_of_the_pool(self, monkeypatch):
        """A seed's pool is generated once, no array of a strategy's pool is
        shared with it, and it stays unannotated."""
        real_generate, real_rounds = harness.generate_shifted_dataset, harness._run_rounds
        seed_pools, played = [], []

        def generate(cfg):
            seed_pools.append(real_generate(cfg))
            return seed_pools[-1]

        def rounds(cfg, model, pool, *args):
            played.append((seed_pools[-1], pool))
            return real_rounds(cfg, model, pool, *args)

        monkeypatch.setattr(harness, "generate_shifted_dataset", generate)
        monkeypatch.setattr(harness, "_run_rounds", rounds)
        strategies = [Strategy.DIANA, Strategy.RANDOM]
        compare_strategies(self.SHIFT, fast_loop(budget=6, rounds=2), strategies, 2)
        assert len(seed_pools) == 2 and len(played) == 4  # 2 seeds x 2 strategies
        for seed_pool, pool in played:
            assert pool is not seed_pool and len(pool.target_labeled) == 6
            arrays = [a for a, v in vars(seed_pool).items() if isinstance(v, np.ndarray)]
            assert {"_ids", "_X", "_labels", "_status", "_annotated"} <= set(arrays)
            for a in arrays:
                assert not np.shares_memory(getattr(pool, a), getattr(seed_pool, a)), a
        for seed_pool in seed_pools:
            assert seed_pool.target_labeled.size == 0
            seed_pool.check_invariants()

    @pytest.mark.parametrize("strategies", [
        [Strategy.DIANA, Strategy.RANDOM, Strategy.ENTROPY],
        [Strategy.RANDOM, Strategy.DIANA, Strategy.ENTROPY],
    ])
    def test_rows_equal_independent_runs(self, strategies):
        """Sharing the pretrained model moves no row: every (seed, strategy)
        row equals that of its own run_active_loop on its own pool, bit for
        bit. Either strategy may run first, so neither one's training can
        reach the model the others start from."""
        loop = fast_loop(budget=6, rounds=2)
        rows = compare_strategies(self.SHIFT, loop, strategies, 2)
        want = []
        for seed_i in range(2):
            data_cfg, seeded = offset_seeds(self.SHIFT, loop, seed_i)
            for strat in strategies:
                cfg = dataclasses.replace(seeded, strategy=strat)
                reports = run_active_loop(cfg, generate_shifted_dataset(data_cfg))
                want += aggregate_rows(strat, seed_i, reports)
        assert repr(rows) == repr(want)


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

    @pytest.mark.parametrize("C", [2, 3, 5, 10])
    def test_rates_are_those_of_predict_and_similarity_labels(self, C):
        """One k's low/high rates, recomputed from model.predict's classes,
        the similarity labels and -log P of the true labels, equal the
        diagnostic's exactly at every class count: its predictions are the
        argmax logit, the class predict and the end-of-round pass give."""
        model, pool = TestEndOfRoundPass.annotated_pool(C)
        out = consistency_diagnostic(model, pool, ks=[8], quantiles=(0.25, 0.5))
        u_ids, u_X = pool.unlabeled_arrays()
        centroids = compute_centroids(model, *pool.labeled_arrays())
        consistent = model.predict(u_X) == similarity_labels(model.features(u_X), centroids, 8)
        assert 0 < consistent.mean() < 1
        logp = model.log_proba(u_X)
        truth = pool.evaluation_labels(u_ids)
        losses = -np.maximum(logp[np.arange(u_ids.size), truth], LOG_PROB_FLOOR)
        for q in (0.25, 0.5):
            low = losses <= np.quantile(losses, q)
            want = {"low": float(np.mean(consistent[low])), "high": float(np.mean(consistent[~low]))}
            assert out[8][q] == want


class TestRowBlockMemory:
    def test_pool_passes_hold_one_feature_block_at_a_time(self):
        """Scoring and evaluating a three-block pool never hold a
        whole-pool (n, d_feat) matrix: each pass peaks within a few
        (ROW_BLOCK, d_feat) blocks plus its per-row inputs and outputs. A
        whole-pool feature matrix alone is three blocks; the limits are 3.5
        blocks for scoring (features, magnitudes and their partitioned copy
        live together), and for the end-of-round pass that also predicts,
        and 1.5 for evaluation. The source-free bootstrap
        scores the pool the same way, beside its own per-row outputs, and
        builds features for its proxy rows alone."""
        n, d_in, d_feat, C = 3 * ROW_BLOCK, 8, 64, 5
        rng = np.random.default_rng(3)
        ids = np.arange(n + C)
        X = rng.standard_normal((n + C, d_in))
        y = np.concatenate([np.arange(C), rng.integers(0, C, n)])
        pool = DataPool(C, ids, X, y, ids < C)
        model = Classifier.initialize(d_in, d_feat, C, rng)
        centroids = compute_centroids(model, X[:C], y[:C])
        cfg = LoopConfig(budget=1, rounds=1, d_feat=d_feat, k=8)
        u_ids, u_X = pool.unlabeled_arrays()
        block = ROW_BLOCK * d_feat * 8
        rows = n * 8  # one float64 or intp per row
        peaks, out = {}, {}
        tracemalloc.start()
        try:
            for name, run in [
                ("score", lambda: info_scores_unlabeled(model, centroids, u_X, 8)),
                ("end of round", lambda: harness._score_pool(model, cfg, X[:C], y[:C], u_ids, u_X)),
                ("evaluate", lambda: evaluate(model, pool)),
                ("bootstrap", lambda: sfda_bootstrap(model, u_ids, u_X, SfdaConfig(), 100, 8)),
            ]:
                tracemalloc.reset_peak()
                base, _ = tracemalloc.get_traced_memory()
                out[name] = run()
                peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks["score"] <= 3.5 * block + (C + 2) * rows, peaks
        # the end-of-round pass scores as above and predicts: one intp more
        # per row; what it carries into the next round is three values per
        # row (ids, scores, similarity labels), the centroids and theta
        assert peaks["end of round"] <= 3.5 * block + (C + 3) * rows, peaks
        scored, pred = out["end of round"]
        assert pred.nbytes == rows
        carried = [v.nbytes if isinstance(v, np.ndarray) else v.A.nbytes + v.counts.nbytes
                   for v in vars(scored).values()]
        assert sum(carried) <= 3 * rows + model.theta.nbytes + C * (d_feat + 1) * 8, carried
        assert peaks["evaluate"] <= 1.5 * block + (d_in + C + 3) * rows, peaks
        # probabilities, predictions, confidences, scores, labels and masks
        # per row; inputs and features per proxy row, and its (id, label) pair
        proxy = len(out["bootstrap"].pseudo_labeled)
        assert 0 < proxy < n
        assert peaks["bootstrap"] <= (
            3.5 * block + (C + 5) * rows + proxy * ((d_in + d_feat) * 8 + 100)
        ), (peaks, proxy)


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


class TestSketchedFit:
    """Above gmm.SKETCH_ROWS unlabeled scores a diana round fits its mixture
    on gmm.sketched's sketch; selection and the partition score every row."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_fit_reads_the_sketch_only_above_the_limit(self, extra, monkeypatch):
        """At n_u == SKETCH_ROWS run_em gets the round's full train set; one
        score more and it gets ceil(n_u / 2) order statistics weighted to
        the full set's unlabeled-to-labeled ratio."""
        n_u = gmm.SKETCH_ROWS + extra
        real_sketched, real_em, seen = harness.sketched, harness.run_em, []
        monkeypatch.setattr(harness, "sketched", lambda ts: seen.append(ts) or real_sketched(ts))
        monkeypatch.setattr(harness, "run_em", lambda ts: seen.append(ts) or real_em(ts))
        cfg = fast_loop(budget=3, rounds=1, pretrain_epochs=1,
                        train=fast_train(epochs_per_round=1))
        run_active_loop(cfg, small_pool(n_target=n_u))
        full, fitted = seen
        assert full.unlabeled_scores.size == n_u
        if extra == 0:
            assert fitted is full
            return
        middles = np.minimum(np.arange(0, n_u, 2) + 1, n_u - 1)  # the last group is one score
        assert fitted.unlabeled_scores.size == math.ceil(n_u / 2)
        np.testing.assert_array_equal(fitted.unlabeled_scores,
                                      np.sort(full.unlabeled_scores)[middles])
        np.testing.assert_array_equal(fitted.labeled_scores, full.labeled_scores)
        assert weight_ratio(fitted) == pytest.approx(weight_ratio(full), rel=1e-12, abs=0)

    @pytest.mark.parametrize("sfda", [None, SfdaConfig()])
    def test_sketched_rounds_pass_the_benchmark_checks(self, sfda, monkeypatch):
        """With the limit at 64 scores, every round of a diana and a
        source-free run fits on a sketch. Each fitted round passes
        perfbench's checks, recomputed from the model and pool the round
        started with: the batch is the top b of the UI posterior under the
        reported mixture, the reported batch posteriors match, the
        objective trace never falls and the partition covers the rest of
        the pool."""
        checks = _perfbench("checks")
        monkeypatch.setattr(gmm, "SKETCH_ROWS", 64)
        cfg = fast_loop(budget=12, rounds=3, sfda=sfda)
        real_select, real_em = harness._select_diana, harness.run_em
        starts, fitted, checked = [], [], []

        def select_spy(model, pool, cfg, b, scored):
            params = {k: v.copy() for k, v in model.params().items()}
            labeled = pool.labeled_arrays(include_source=cfg.sfda is None)
            starts.append((params, labeled, *pool.unlabeled_arrays()))
            return real_select(model, pool, cfg, b, scored)

        def em_spy(ts):
            fitted.append(ts.unlabeled_scores.size)
            return real_em(ts)

        def check(model, pool, rep):
            if rep.gmm is None:  # a source-free bootstrap round fits no mixture
                return
            params, (lab_X, lab_y), u_ids, u_X = starts[rep.round_index - 1]
            g = rep.gmm
            checks.check_em(*g.params.as_tuple(), g.objective_trace, g.n_iter, g.objective)
            post = checks.ui_posteriors(params, lab_X, lab_y, u_X, cfg.resolved_k(),
                                        *g.params.as_tuple())
            checks.check_top_b(rep.selected_ids, rep.selected_posteriors, u_ids, post)
            checks.check_partition(rep.partition_sizes, pool.sizes[2])
            checked.append(rep.round_index)

        monkeypatch.setattr(harness, "_select_diana", select_spy)
        monkeypatch.setattr(harness, "run_em", em_spy)
        run_active_loop(cfg, small_pool(n_target=400), on_round_end=check)
        assert checked == ([1, 2, 3] if sfda is None else [2, 3])
        n_us = [starts[r - 1][2].size for r in checked]
        assert fitted == [math.ceil(n / math.ceil(n / 64)) for n in n_us] and min(n_us) > 64


def _without_losses(reports) -> list[dict]:
    return [{k: v for k, v in rep.to_dict().items() if k != "losses"} for rep in reports]


class TestLossReport:
    """LoopConfig.loss_report: off by default, when no round computes or
    carries losses; it draws no random numbers and changes no state, so the
    rest of every report is the same either way."""

    @pytest.mark.parametrize("cfg, pool", [
        pytest.param(dict(budget=100, rounds=5), dict(C=5, d_in=8, n_source=500,
                     n_target=2000, shift_magnitude=0.5), id="diana-desk"),
        pytest.param(dict(sfda=SfdaConfig()), None, id="sfda"),
        pytest.param(dict(strategy=Strategy.RANDOM), None, id="random"),
    ])
    def test_reports_are_the_same_but_for_the_losses(self, cfg, pool):
        def run(on):
            data = small_pool(n_target=200) if pool is None else \
                generate_shifted_dataset(ShiftConfig(**pool, seed=3))
            return run_active_loop(fast_loop(**cfg, loss_report=on), data)

        off, on = run(False), run(True)
        assert all(rep.losses is None and "losses" not in rep.to_dict() for rep in off)
        assert [rep.losses is not None for rep in on] == [rep.gmm is not None for rep in on]
        assert any(rep.gmm is not None for rep in on) == ("strategy" not in cfg)
        assert _without_losses(off) == _without_losses(on)

    def test_off_never_calls_combined_loss(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("combined_loss called with the loss report off")

        monkeypatch.setattr(harness, "combined_loss", refuse)
        for kw in ({}, {"sfda": SfdaConfig()}):
            reports = run_active_loop(fast_loop(**kw), small_pool(n_target=200))
            assert any(rep.gmm is not None for rep in reports)

    def test_on_reports_combined_loss_of_the_rounds_clean_pools(self, monkeypatch):
        """Each round with a mixture fit reports combined_loss of the trained
        model over the labeled set and the unperturbed CC and UC rows it
        trained with."""
        cfg = fast_loop(loss_report=True)
        trained, real_train = {}, harness._train_epochs

        def train_spy(model, X, y, cc, uc, tcfg, epochs, key):
            if cc is not None:  # a round with a mixture fit; key is [seed, 2, r]
                trained[key[2]] = (X.copy(), y.copy(), cc[0].copy(), cc[1].copy(), uc.copy())
            return real_train(model, X, y, cc, uc, tcfg, epochs, key)

        checked = []

        def check(model, pool, rep):
            want = combined_loss(model, *trained[rep.round_index],
                                 cfg.train.lambda_c, cfg.train.lambda_e)
            assert rep.losses == want
            checked.append(rep.round_index)

        monkeypatch.setattr(harness, "_train_epochs", train_spy)
        run_active_loop(cfg, small_pool(n_target=200), on_round_end=check)
        assert checked == [1, 2, 3]


def _perfbench(stem):
    """perfbench's module perfbench/<stem>.py, loaded without putting
    perfbench/ on the import path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_harness_name_is_called(monkeypatch):
    """perfbench's per-layer figures come from wrapping names in the harness
    namespace. A name the loop no longer calls would read 0 there, so a
    small diana run plus a source-free run must call every one of them."""
    import activeadapt

    before = dict(vars(harness))
    tracer = _perfbench("spans").Tracer()
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
    # the loss report is off by default; without it combined_loss would read 0
    run_active_loop(fast_loop(loss_report=True), small_pool(n_target=200))
    run_active_loop(fast_loop(sfda=SfdaConfig()), small_pool(n_target=200))
    assert [name for name, n in calls.items() if n == 0] == []
