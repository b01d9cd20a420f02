"""Selection, partitioning, the source-free bootstrap, and the consistency
diagnostic, against loop-based oracles."""

import re
import tracemalloc

import numpy as np
import pytest

import oracles
from activeadapt import numerics, sampler
from activeadapt.classifier import Classifier
from activeadapt.datapool import DataPool
from activeadapt.gmm import GmmParams, component_posteriors
from activeadapt.harness import consistency_diagnostic
from activeadapt.numerics import ROW_BLOCK
from activeadapt.sampler import (
    MAX_RELAXATIONS,
    SfdaConfig,
    loss_quantile_split,
    partition_unlabeled,
    select_active_batch,
    sfda_bootstrap,
    smallest_first,
)
from activeadapt.scoring import (
    Category,
    centroids_from_features,
    compute_centroids,
    similarity_labels,
)

from test_classifier import block_sizes, random_model, whole_matrix_log_proba

WELL_SEPARATED = GmmParams(
    pi=np.array([0.25, 0.25, 0.25, 0.25]),
    mu=np.array([0.0, 1.0, 3.0, 6.0]),
    sigma2=np.array([0.05, 0.05, 0.05, 0.05]),
)


def diag_model(C, scale=2.0, bias=None):
    """d_in = d_feat = C; confidence of x = a*e_c at class c grows with a."""
    return Classifier(
        W_hidden=np.eye(C) * 2.0,
        b_hidden=np.zeros(C),
        W_out=np.eye(C) * scale,
        b_out=np.zeros(C) if bias is None else np.asarray(bias, dtype=float),
    )


class TestSelectActiveBatch:
    def test_zero_budget(self):
        assert select_active_batch([1, 2], [0.5, 3.1], WELL_SEPARATED, 0) == []

    def test_budget_exceeding_pool_returns_all_sorted(self):
        ids = [10, 11, 12]
        scores = [0.0, 3.0, 6.0]  # component posteriors peak at 1st, 3rd, 4th
        got = select_active_batch(ids, scores, WELL_SEPARATED, 99)
        assert sorted(got) == ids
        assert got[0] == 11  # the score at the UI mean ranks first

    def test_tie_break_by_smaller_id(self):
        """Identical scores give identical posteriors; order falls back to
        ascending id."""
        ids = [4, 0, 2, 9, 7]
        scores = [3.0, 0.1, 1.0, 3.0, 0.4]
        got = select_active_batch(ids, scores, WELL_SEPARATED, 2)
        assert got == [4, 9]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        ids = rng.permutation(50).tolist()
        scores = rng.uniform(-0.5, 7.0, 50)
        for b in (0, 1, 5, 50):
            got = select_active_batch(ids, scores, WELL_SEPARATED, b)
            post = [
                oracles.component_posterior(
                    s, WELL_SEPARATED.pi, WELL_SEPARATED.mu, WELL_SEPARATED.sigma2
                )[2]
                for s in scores
            ]
            assert got == oracles.select_top_b(ids, post, b)

    @pytest.mark.parametrize("case", ["saturated", "few_values", "all_equal", "nan"])
    @pytest.mark.parametrize("b", [0, 1, 7, 150, 400, 401, 1000])
    def test_matches_ranking_the_whole_pool(self, case, b):
        """Only rows at or above the b-th largest posterior are ranked; the
        batch is still the first min(b, n) of the whole pool ranked by
        posterior descending, then id ascending. Heavy ties: half the scores
        sit at the UI mean, where the posterior is exactly 1.0; five
        distinct scores; one score for every row. NaN: the saturated scores
        with every tenth one NaN, whose posteriors are NaN and rank last.
        smallest_first, the ranking itself, gives the positions of a full
        lexsort of the negated posteriors."""
        rng = np.random.default_rng(7)
        n = 400
        ids = rng.permutation(10 * n)[:n]
        saturated = np.where(rng.random(n) < 0.5, rng.uniform(2.8, 3.2, n),
                             rng.uniform(-1.0, 7.0, n))
        scores = {
            "saturated": saturated,
            "few_values": rng.choice([0.0, 1.0, 2.5, 3.0, 4.5], n),
            "all_equal": np.full(n, 4.2),
            "nan": np.where(np.arange(n) % 10 == 0, np.nan, saturated),
        }[case]
        post = component_posteriors(scores, WELL_SEPARATED)[:, Category.UI - 1]
        assert np.isnan(post).sum() == (40 if case == "nan" else 0)
        assert len(np.unique(post)) <= 5 or (post == 1.0).sum() > 150
        want = np.lexsort((ids, -post))[:b]
        assert smallest_first(-post, ids, b).tolist() == want.tolist()
        assert select_active_batch(ids, scores, WELL_SEPARATED, b) == ids[want].tolist()

    def test_smallest_first_is_a_full_lexsort_cut_to_b(self):
        """Random keys drawn from a few values, signed zeros, infinities and
        NaN, so most cases tie; b from 0 to past n. -0.0 and 0.0 tie, and
        the smaller id goes first."""
        rng = np.random.default_rng(11)
        values = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])
        for _ in range(2000):
            n = int(rng.integers(0, 30))
            key = rng.choice(values, n)
            ids = rng.permutation(100)[:n]
            b = int(rng.integers(0, n + 4))
            want = np.lexsort((ids, key))[:b]
            assert smallest_first(key, ids, b).tolist() == want.tolist()
        assert smallest_first([-0.0, 0.0], [9, 3], 1).tolist() == [1]
        with pytest.raises(ValueError, match="nonnegative"):
            smallest_first([1.0], [0], -1)

    @pytest.mark.parametrize("n_ids", [10, 6])
    def test_one_key_per_id(self, n_ids):
        """8 scores for 10 ids used to rank ids 100-107 only, never 108 or
        109, and for 6 ids failed with a bare IndexError; both name the
        counts now."""
        ids = np.arange(100, 100 + n_ids)
        scores = np.linspace(0.0, 6.0, 8)
        message = f"8 keys for {n_ids} ids"
        with pytest.raises(ValueError, match=message):
            select_active_batch(ids, scores, WELL_SEPARATED, 3)
        with pytest.raises(ValueError, match=message):
            smallest_first(scores, ids, 3)
        with pytest.raises(ValueError, match=message):
            smallest_first(scores, ids, 0)

    def test_selected_have_maximal_posterior(self):
        rng = np.random.default_rng(1)
        ids = np.arange(30)
        scores = rng.uniform(0, 6.5, 30)
        got = select_active_batch(ids, scores, WELL_SEPARATED, 10)
        from activeadapt.gmm import component_posteriors

        post = component_posteriors(scores, WELL_SEPARATED)[:, 2]
        lookup = dict(zip(ids.tolist(), post))
        worst_selected = min(lookup[i] for i in got)
        best_rest = max((lookup[i] for i in ids if i not in got), default=-1)
        assert worst_selected >= best_rest - 1e-15


class TestPartition:
    def test_dominant_component(self):
        model = diag_model(3)
        X = np.vstack([2.5 * np.eye(3), 0.05 * np.eye(3)])
        y_anchor = [0, 1, 2, 0, 1, 2]
        cs = compute_centroids(model, X, y_anchor)
        # scores near 0 fall in the first (CC) component of this mixture
        got = partition_unlabeled([0, 1, 2], 2.5 * np.eye(3), model, cs, WELL_SEPARATED, k=1)
        assert all(got.category[i] == Category.CC for i in range(3))

    def test_empty_pool(self):
        model = diag_model(3)
        cs = centroids_from_features(np.eye(3), [0, 1, 2], C=3)
        got = partition_unlabeled(
            np.zeros(0, dtype=int), np.zeros((0, 3)), model, cs, WELL_SEPARATED, k=1
        )
        assert got.category == {}
        assert got.sizes == {"CC": 0, "UC": 0, "UI": 0, "CI": 0}

    def test_matches_per_sample_oracle(self):
        """Twenty samples against a fully independent scoring + posterior
        argmax pipeline."""
        rng = np.random.default_rng(5)
        model = random_model(rng, d_in=4, d_feat=6, C=3)
        X_lab = rng.standard_normal((9, 4))
        y_lab = np.array([0, 1, 2] * 3)
        cs = compute_centroids(model, X_lab, y_lab)
        ids = rng.permutation(100)[:20]
        X = rng.standard_normal((20, 4))
        params = GmmParams(
            pi=np.array([0.4, 0.3, 0.2, 0.1]),
            mu=np.array([0.2, 0.8, 1.6, 3.0]),
            sigma2=np.array([0.05, 0.1, 0.3, 0.5]),
        )
        got = partition_unlabeled(ids, X, model, cs, params, k=2)

        oracle_centroids = [list(row) for row in cs.A]
        for i, x in zip(ids, X):
            score, _ = oracles.unlabeled_pipeline(model, oracle_centroids, x, k=2)
            post = oracles.component_posterior(score, params.pi, params.mu, params.sigma2)
            want = Category(1 + max(range(4), key=lambda k: (post[k], -k)))
            assert got.category[int(i)] == want

    def test_total_and_disjoint(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, d_in=4, d_feat=6, C=3)
        cs = compute_centroids(model, rng.standard_normal((6, 4)), [0, 1, 2, 0, 1, 2])
        ids = np.arange(40)
        got = partition_unlabeled(ids, rng.standard_normal((40, 4)), model, cs, WELL_SEPARATED, 2)
        assert sorted(got.category) == ids.tolist()
        assert sum(got.sizes.values()) == 40

    @pytest.mark.parametrize(
        "ids, scores",
        [([10, 11, 12], [0.1, 2.5]), ([10, 11, 12], [0.1, 2.5, 0.2, 3.0]), ([], [0.1])],
    )
    def test_given_scores_one_per_id(self, ids, scores):
        """Given scores that do not line up with ids raise rather than leave
        ids without a category or categorize rows no id names."""
        model = diag_model(3)
        cs = centroids_from_features(np.eye(3), [0, 1, 2], C=3)
        with pytest.raises(ValueError, match=f"{len(scores)} scores for {len(ids)} ids"):
            partition_unlabeled(ids, np.eye(3), model, cs, WELL_SEPARATED, 1, scores=scores)

    def test_blocked_categories_match_the_whole_matrix_argmax(self, monkeypatch):
        """Over three blocks of the package's one block size, here made
        small, NaN scores included, every category is the first maximum of
        the row's whole-pool posteriors, and no posterior call takes more
        than a block of scores."""
        size = 97
        monkeypatch.setattr(numerics, "ROW_BLOCK", size)
        taken, real = [], sampler.component_posteriors
        monkeypatch.setattr(sampler, "component_posteriors",
                            lambda s, params: taken.append(s.size) or real(s, params))
        n = 2 * size + 7
        rng = np.random.default_rng(8)
        scores = rng.uniform(-1.0, 6.5, n)
        scores[[0, size, n - 1]] = np.nan
        scores[5:9] = WELL_SEPARATED.mu  # rows at each component's mean
        got = partition_unlabeled(np.arange(n), None, None, None, WELL_SEPARATED, 1, scores=scores)
        want = np.argmax(component_posteriors(scores, WELL_SEPARATED), axis=1) + 1
        np.testing.assert_array_equal(got.cats, want)
        assert got.cats[[0, size, n - 1]].tolist() == [Category.CC] * 3
        assert got.cats.dtype == np.intp
        assert sum(taken) == n and len(taken) == 3 and max(taken) <= size

    def test_peak_memory_is_one_category_vector_and_a_block(self):
        """The partition keeps one (n,) category vector and one column
        block's posteriors at a time: on a four-block pool it peaks within
        the vector plus twelve block-length float64 rows, where the whole
        (n, 4) posterior matrix and its argmax took 36."""
        n = 4 * ROW_BLOCK + 3
        scores = np.random.default_rng(9).uniform(0.0, 6.0, n)
        ids = np.arange(n)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            partition_unlabeled(ids, None, None, None, WELL_SEPARATED, 1, scores=scores)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 12 * 8 * ROW_BLOCK, peak

    @pytest.mark.parametrize("n_rows", [2, 4])
    def test_rows_one_per_id(self, n_rows):
        """Scores computed from an X whose row count is not the id count
        raise the same way."""
        model = diag_model(3)
        cs = centroids_from_features(np.eye(3), [0, 1, 2], C=3)
        X = np.eye(4, 3)[:n_rows]
        with pytest.raises(ValueError, match=f"{n_rows} scores for 3 ids"):
            partition_unlabeled([10, 11, 12], X, model, cs, WELL_SEPARATED, 1)


class TestSfdaBootstrap:
    def test_no_relaxation_when_confident(self):
        """Every class confidently predicted at >= 0.95 keeps t_v at 0.95."""
        model = diag_model(3, scale=8.0)
        X = np.vstack([3.0 * np.eye(3)] * 4)
        ids = np.arange(12)
        assert model.predict_proba(X).max(axis=1).min() >= 0.95
        res = sfda_bootstrap(model, ids, X, SfdaConfig(), b=2, k=1)
        assert res.t_v == 0.95
        assert len(res.pseudo_labeled) == 12

    def test_relaxation_until_coverage(self):
        """A class whose best confidence sits below 0.95 forces t_v down in
        0.1 steps until it joins the proxy set."""
        model = diag_model(3, scale=8.0)
        X = np.vstack([3.0 * np.eye(3), [[0.12, 0, 0]], [[0, 0.12, 0]]])
        # class 2 only has the one confident sample; drop it to mid confidence
        X[2] = [0, 0, 0.16]
        ids = np.arange(5)
        P = model.predict_proba(X)
        conf2 = P[2].max()
        assert conf2 < 0.95
        res = sfda_bootstrap(model, ids, X, SfdaConfig(), b=1, k=1)
        # expected t_v from the independent sweep
        t = 0.95
        while conf2 < t:
            t -= 0.1
        assert res.t_v == pytest.approx(t)
        assert 2 in [i for i, _ in res.pseudo_labeled]

    def test_never_covered_class_errors(self):
        model = diag_model(3, bias=[0.0, 0.0, -50.0])  # class 2 never argmax
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError):
            sfda_bootstrap(model, np.arange(10), X, SfdaConfig(), b=1, k=1)

    def test_empty_pool_rejected(self):
        model = diag_model(3)
        with pytest.raises(ValueError):
            sfda_bootstrap(model, [], np.zeros((0, 3)), SfdaConfig(), b=1, k=1)

    def test_matches_threshold_sweep_oracle(self):
        """Full agreement with a brute-force reimplementation of both
        relaxation schedules on a random 20-sample pool."""
        rng = np.random.default_rng(42)
        model = random_model(rng, d_in=4, d_feat=6, C=3)
        X = 2.0 * rng.standard_normal((20, 4))
        ids = rng.permutation(200)[:20]
        k = 2
        res = sfda_bootstrap(model, ids, X, SfdaConfig(), b=4, k=k)

        P = model.predict_proba(X)
        maxp = P.max(axis=1).tolist()
        pred = P.argmax(axis=1).tolist()
        sweep_tv = 0.95
        while True:
            proxy = [i for i in range(20) if maxp[i] >= sweep_tv]
            if {pred[i] for i in proxy} == {0, 1, 2}:
                break
            sweep_tv -= 0.1
        oracle_centroids = oracles.class_centroids(
            [oracles.forward_probs(model, X[i])[0] for i in proxy],
            [pred[i] for i in proxy],
            C=3,
        )
        inconsistent = []
        for i in range(20):
            feat, _ = oracles.forward_probs(model, X[i])
            inconsistent.append(oracles.sim_label(feat, oracle_centroids, k) != pred[i])
        t_v, proxy_idx, t_c, active = oracles.sfda_sweep(
            maxp, pred, inconsistent, ids.tolist(), C=3, b=4
        )
        assert res.t_v == pytest.approx(t_v)
        assert res.t_c == pytest.approx(t_c)
        assert [i for i, _ in res.pseudo_labeled] == [int(ids[i]) for i in proxy_idx]
        assert res.active_ids == active

    def test_tied_confidences_take_the_smaller_id(self):
        """Every sample appears twice under two ids, so each candidate's max
        probability ties with its twin's; the batch cuts through a tie, and
        the smaller id of the cut pair is the one taken."""
        rng = np.random.default_rng(42)
        model = random_model(rng, d_in=4, d_feat=6, C=3)
        X = 2.0 * rng.standard_normal((20, 4))
        X = np.vstack([X, X])
        ids = rng.permutation(400)[:40]
        b = 5
        res = sfda_bootstrap(model, ids, X, SfdaConfig(), b=b, k=2)

        maxp = model.predict_proba(X).max(axis=1)
        assert maxp[:20].tobytes() == maxp[20:].tobytes()
        twin = {int(ids[i]): int(ids[(i + 20) % 40]) for i in range(40)}
        cut = [i for i in res.active_ids if twin[i] not in res.active_ids]
        assert len(cut) == 1 and cut[0] < twin[cut[0]]
        order = sorted(res.active_ids, key=lambda i: (maxp[list(ids).index(i)], i))
        assert res.active_ids == order

    def test_bootstrap_walks_the_schedule_at_the_bound(self):
        """With steps of 2**-13 every threshold value is exact, so t_v and
        t_c each take exactly MAX_RELAXATIONS steps to the end of their
        schedules, which the config accepts; the bootstrap reaches the same
        values by the same repeated additions."""
        step = 2.0 ** -13
        cfg = SfdaConfig(
            t_v_init=MAX_RELAXATIONS * step, t_v_step=step,
            t_c_init=1.0 - MAX_RELAXATIONS * step, t_c_step=step,
        )
        model = diag_model(3, scale=8.0)
        X = np.vstack([3.0 * np.eye(3), [[0.12, 0, 0]], [[0, 0.12, 0]]])
        X[2] = [0, 0, 0.16]
        conf2 = model.predict_proba(X)[2].max()
        res = sfda_bootstrap(model, np.arange(5), X, cfg, b=10, k=1)
        t = cfg.t_v_init
        while conf2 < t:
            t -= step
        assert res.t_v == t
        assert res.t_c == 1.0


def whole_matrix_bootstrap(model, ids, X, cfg, b, k):
    """The bootstrap's result from one whole-pool feature matrix, which
    gives the probabilities, the proxy centroids and the similarity labels."""
    C = model.C
    F, logp = whole_matrix_log_proba(model, X)
    P = np.exp(logp)
    pred, maxp = P.argmax(axis=1), P.max(axis=1)
    t_v = cfg.t_v_init
    while len(np.unique(pred[maxp >= t_v])) < C:
        t_v -= cfg.t_v_step
    proxy = maxp >= t_v
    centroids = centroids_from_features(F[proxy], pred[proxy], C)
    inconsistent = pred != similarity_labels(F, centroids, k)
    t_c = 1.0 / C + 1e-5
    while (inconsistent & (maxp <= t_c)).sum() < b and t_c < 1.0:
        t_c += cfg.t_c_step
    cand = np.flatnonzero(inconsistent & (maxp <= t_c))
    take = cand[np.lexsort((ids[cand], maxp[cand]))][:b]
    pseudo = [(int(i), int(p)) for i, p in zip(ids[proxy], pred[proxy])]
    return pseudo, ids[take].tolist(), t_v, t_c


class TestSfdaRowBlocks:
    """The bootstrap reads the pool in row blocks and builds features for
    its proxy rows alone, with the result of whole-pool products."""

    N = 2 * ROW_BLOCK + 1

    @pytest.fixture(scope="class")
    def pool(self):
        rng = np.random.default_rng(19)
        model = Classifier.initialize(8, 64, 5, rng)
        model.b_hidden[:] = 0.1 * rng.standard_normal(64)
        X = 2 * rng.standard_normal((self.N, 8))
        ids = rng.permutation(3 * self.N)[: self.N]
        return model, ids, X

    def test_no_whole_pool_feature_matrix(self, pool, monkeypatch):
        """Two blocked passes over the pool, for the probabilities and for
        the similarity labels, and one call on the proxy rows between them."""
        model, ids, X = pool
        sizes = block_sizes(monkeypatch)
        res = sfda_bootstrap(model, ids, X, SfdaConfig(), b=50, k=8)
        proxy = len(res.pseudo_labeled)
        assert 0 < proxy < self.N
        assert sizes == [5461, 5462, 5462, proxy, 5461, 5462, 5462]

    def test_one_head_pass(self, pool, monkeypatch):
        """The probabilities' blocked pass is the bootstrap's only head
        product: the similarity-label pass computes no log-probabilities or
        scores that it would drop."""
        model, ids, X = pool
        sizes, real = [], Classifier._head

        def spy(self, F):
            sizes.append(F.shape[0])
            return real(self, F)

        monkeypatch.setattr(Classifier, "_head", spy)
        sfda_bootstrap(model, ids, X, SfdaConfig(), b=50, k=8)
        assert sizes == [5461, 5462, 5462]

    def test_matches_whole_matrix_reference_at_five_classes(self, pool):
        model, ids, X = pool
        res = sfda_bootstrap(model, ids, X, SfdaConfig(), b=50, k=8)
        pseudo, active, t_v, t_c = whole_matrix_bootstrap(model, ids, X, SfdaConfig(), 50, 8)
        assert (res.pseudo_labeled, res.active_ids, res.t_v, res.t_c) == (pseudo, active, t_v, t_c)
        assert len(active) == 50


class TestSfdaConfig:
    @pytest.mark.parametrize("field, value", [
        ("t_v_init", None), ("t_v_step", "0.1"), ("t_c_step", True), ("t_c_init", "0.5"),
    ])
    def test_non_number_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field}={value!r} must be a number")):
            SfdaConfig(**{field: value})

    def test_t_c_init_may_be_unset(self):
        assert SfdaConfig(t_c_init=None).t_c_init is None
        assert SfdaConfig(t_c_init=np.float64(0.5)).t_c_init == 0.5
    @pytest.mark.parametrize("field, value", [
        ("t_v_step", 1e-17),
        ("t_c_step", 1e-18),
        ("t_v_init", float("inf")),
        ("t_c_init", float("nan")),
        ("t_v_step", float("nan")),
        ("t_c_step", 0.5 / MAX_RELAXATIONS),  # ends, but only after 2 * MAX_RELAXATIONS
    ])
    def test_endless_schedule_rejected_at_construction(self, field, value):
        """A step below the threshold's float spacing never moves it, and
        inf or NaN never compare true, so the bootstrap would relax forever;
        the config refuses them and names the field."""
        with pytest.raises(ValueError, match=field):
            SfdaConfig(**{field: value})

    @pytest.mark.parametrize("kw", [
        {"t_v_step": 2.0 / MAX_RELAXATIONS},
        {"t_c_init": 0.0, "t_c_step": 2.0 / MAX_RELAXATIONS},
        {"t_c_init": 2.0, "t_c_step": 1e-300},  # already past its end
    ])
    def test_schedules_within_the_bound_accepted(self, kw):
        SfdaConfig(**kw)

    @pytest.mark.parametrize("steps, accepted", [(MAX_RELAXATIONS, True), (MAX_RELAXATIONS + 1, False)])
    def test_schedule_at_the_bound(self, steps, accepted):
        """Exactly MAX_RELAXATIONS relaxations pass, one more fails. Steps of
        2**-13 make every threshold value exact."""
        step = 2.0 ** -13
        for name, kw in [
            ("t_v_step", {"t_v_init": steps * step, "t_v_step": step}),
            ("t_c_step", {"t_c_init": 1.0 - steps * step, "t_c_step": step}),
        ]:
            if accepted:
                SfdaConfig(**kw)
            else:
                with pytest.raises(ValueError, match=f"{name}=.* more than {MAX_RELAXATIONS}"):
                    SfdaConfig(**kw)


class TestConsistencyRate:
    """Rates from consistency_diagnostic on hand-built pools. The source rows
    2*e_c of class c put centroid c's top-1 feature at index c. The
    unlabeled pool is two halves: rows whose hidden label is the model's
    prediction (low loss) and rows labeled otherwise (high loss), so the
    median split separates them."""

    @staticmethod
    def rates(model, X_u, y_u):
        X_u = np.asarray(X_u, dtype=float)
        pool = DataPool(
            3,
            np.arange(3 + len(X_u)),
            np.vstack([2.0 * np.eye(3), X_u]),
            [0, 1, 2, *y_u],
            np.arange(3 + len(X_u)) < 3,
        )
        return consistency_diagnostic(model, pool, ks=[1], quantiles=(0.5,))[1][0.5]

    def test_all_consistent(self):
        X = 2.0 * np.vstack([np.eye(3), np.eye(3)])
        rates = self.rates(diag_model(3), X, [0, 1, 2, 1, 2, 0])
        assert rates == {"low": 1.0, "high": 1.0}

    def test_counting(self):
        """3 of 4 low-loss samples predict their similarity-based label: the
        output head routes feature 2 to class 0, so feature-2-dominant
        samples are inconsistent."""
        model = diag_model(3)
        model.W_out[:] = [[2.0, 0, 0], [0, 2.0, 0], [2.0, 0, 0]]
        low_X = np.vstack([2.0 * np.eye(3), [[2.0, 0.0, 0.0]]])
        assert model.predict(low_X).tolist() == [0, 1, 0, 0]
        high_X = np.tile([0.0, 2.0, 0.0], (4, 1))
        rates = self.rates(model, np.vstack([low_X, high_X]), [0, 1, 0, 0, 2, 2, 2, 2])
        assert rates["low"] == pytest.approx(0.75)
        assert rates["high"] == 1.0

    def test_none_consistent(self):
        model = diag_model(3, bias=[0.0, 50.0, 0.0])
        X = np.vstack([2.0 * np.eye(3)[[0, 2]]] * 2)
        assert model.predict(X).tolist() == [1, 1, 1, 1]
        rates = self.rates(model, X, [1, 1, 0, 2])
        assert rates == {"low": 0.0, "high": 0.0}

    def test_empty_subset_rejected(self):
        """Equal losses put every sample at or below the median, which
        leaves the high-loss subset empty."""
        with pytest.raises(ValueError, match="empty subset"):
            self.rates(diag_model(3), np.tile([2.0, 0.0, 0.0], (4, 1)), [0, 0, 0, 0])


class TestLossQuantileSplit:
    def test_median_split(self):
        low, high = loss_quantile_split([1.0, 2.0, 3.0, 4.0], 0.5)
        assert low.tolist() == [True, True, False, False]
        assert high.tolist() == [False, False, True, True]

    def test_masks_partition(self):
        rng = np.random.default_rng(3)
        losses = rng.exponential(1.0, 101)
        for q in (0.25, 0.5, 0.75):
            low, high = loss_quantile_split(losses, q)
            assert (low ^ high).all()

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            loss_quantile_split([], 0.5)
        with pytest.raises(ValueError):
            loss_quantile_split([1.0], 1.5)
