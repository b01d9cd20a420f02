"""Pool bookkeeping: generation, the oracle, annotation, and file I/O."""

import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from activeadapt.datapool import (
    DataPool,
    ShiftConfig,
    ShiftKind,
    generate_shifted_dataset,
    load_pool,
    shift_transform,
    simplex_means,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))
import workloads  # noqa: E402  perfbench's writer of the pool-200k dump


def write_dump(pool, path):
    """Write a fresh pool in the load_pool format with the benchmark's own
    writer, so these tests read exactly what the pool-200k workload reads."""
    workloads.write_dump(path, workloads.reference_from_pool(pool), pool.C)


def small_cfg(**kw):
    base = dict(C=3, d_in=4, n_source=30, n_target=50, shift_magnitude=0.5, seed=7)
    base.update(kw)
    return ShiftConfig(**base)


def assert_same_pool(a, b):
    """Every view, id list and hidden label of two pools is bit-identical."""
    assert (a.C, a.d_in, a.sizes) == (b.C, b.d_in, b.sizes)
    for include_source in (True, False):
        for va, vb in zip(a.labeled_arrays(include_source), b.labeled_arrays(include_source)):
            np.testing.assert_array_equal(va, vb)
    for va, vb in zip(a.target_arrays(), b.target_arrays()):
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_array_equal(a.target_labeled, b.target_labeled)
    ids, _ = a.target_arrays()
    np.testing.assert_array_equal(a.evaluation_labels(ids), b.evaluation_labels(ids))


class TestGenerator:
    def test_zero_shift_is_identity_transform(self):
        """At magnitude 0 the target transform is exactly (I, 0, 1), so both
        domains share the same class-conditional parameters."""
        for kind in ShiftKind:
            cfg = small_cfg(shift_kind=kind, shift_magnitude=0.0)
            rot, off, scale = shift_transform(cfg)
            np.testing.assert_array_equal(rot, np.eye(cfg.d_in))
            np.testing.assert_array_equal(off, np.zeros(cfg.d_in))
            assert scale == 1.0

    def test_determinism(self):
        """Same config, same seed: byte-identical pools."""
        assert_same_pool(generate_shifted_dataset(small_cfg()), generate_shifted_dataset(small_cfg()))

    def test_counts_and_class_coverage(self):
        cfg = ShiftConfig(C=5, d_in=8, n_source=100, n_target=2000, seed=1)
        pool = generate_shifted_dataset(cfg)
        assert len(pool.target_unlabeled) == 2000
        assert len(pool.target_labeled) == 0
        ids, _ = pool.unlabeled_arrays()
        assert set(pool.evaluation_labels(ids)) == set(range(5))
        pool.check_invariants()

    def test_rotation_is_orthogonal(self):
        rot, _, _ = shift_transform(small_cfg(shift_magnitude=0.8))
        np.testing.assert_allclose(rot @ rot.T, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("kind", ["rotation", "mixed"])
    @pytest.mark.parametrize("m", [1e9, 1e18, 1e100, 1e300, 1.7e308])
    def test_a_rotation_the_generator_cannot_honour_is_refused(self, kind, m):
        """Squaring the halved rotation h ~ log2 m times doubles its rounding
        each time: at 1e18 R had entries of 1e13, at 1e100 it was the zero
        matrix, and both pools still built. Now each is refused by name."""
        cfg = small_cfg(d_in=8, shift_kind=kind, shift_magnitude=m)
        with pytest.raises(ValueError, match=re.escape(f"shift_magnitude={m} is too large")):
            generate_shifted_dataset(cfg)

    @pytest.mark.parametrize("kind", ["rotation", "mixed"])
    def test_a_rotation_within_its_tolerance_builds(self, kind):
        rot, _, _ = shift_transform(small_cfg(d_in=8, shift_kind=kind, shift_magnitude=1e6))
        assert np.abs(rot @ rot.T - np.eye(8)).max() <= 1e-8
        generate_shifted_dataset(small_cfg(d_in=8, shift_kind=kind, shift_magnitude=1e6))

    @pytest.mark.parametrize("kind, m", [
        ("translation", 0.5), ("covariance_scale", 0.5), ("rotation", 0.0), ("mixed", 0.0),
        ("translation", 1e300), ("covariance_scale", 1e300), ("rotation", 0.5), ("mixed", 0.5),
    ])
    def test_only_a_rotation_takes_the_skew_matrix_norm(self, kind, m, monkeypatch):
        """The skew matrix's 2-norm is an SVD, once made for every pool; now
        only a rotation at a magnitude above 0 takes it, and only a rotation
        is checked, so translation and covariance-scale pools build at any
        finite magnitude."""
        norms = []
        real = np.linalg.norm

        def spy(x, *args, **kw):
            norms.append(np.ndim(x))
            return real(x, *args, **kw)

        monkeypatch.setattr(np.linalg, "norm", spy)
        generate_shifted_dataset(small_cfg(shift_kind=kind, shift_magnitude=m))
        assert norms.count(2) == (kind in ("rotation", "mixed") and m > 0)

    def test_simplex_means_equidistant(self):
        means = simplex_means(4, 6, separation=3.0)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(means[i] - means[j]) == pytest.approx(3.0)

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            small_cfg(C=1)
        with pytest.raises(ValueError):
            small_cfg(n_target=0)
        with pytest.raises(ValueError):
            small_cfg(shift_magnitude=-0.1)
        with pytest.raises(ValueError):
            small_cfg(n_source=2)  # cannot cover 3 classes

    @pytest.mark.parametrize("field", ["shift_magnitude", "class_separation", "class_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected_at_construction(self, field, value):
        """A NaN shift_magnitude used to fail every `m > 0` test, so rotation
        and translation runs silently drew an unshifted target; a NaN or inf
        class_std or class_separation built a pool that failed only later."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("shift_magnitude", None), ("class_std", "1.0"), ("class_separation", True), ("C", None),
    ])
    def test_non_number_names_its_field(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field}={value!r} must be a")):
            small_cfg(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("C", 3.0, "must be an integer"),
        ("n_target", 300.0, "must be an integer"),
        ("d_in", True, "must be an integer"),
        ("seed", -1, "must be at least 0"),
    ])
    def test_bad_count_or_seed_names_its_field(self, field, value, message):
        """A float count used to fail inside numpy without the field's name,
        and a negative seed at the first generator."""
        with pytest.raises(ValueError, match=f"{field}={value!r} {message}"):
            small_cfg(**{field: value})


class TestOracle:
    def test_returns_generator_label(self):
        pool = generate_shifted_dataset(small_cfg())
        ids, _ = pool.unlabeled_arrays()
        truth = pool.evaluation_labels(ids)
        for i, y in zip(ids[:10], truth[:10]):
            assert pool.oracle_label(int(i)) == y

    def test_idempotent(self):
        pool = generate_shifted_dataset(small_cfg())
        sid = int(pool.target_unlabeled[0])
        assert pool.oracle_label(sid) == pool.oracle_label(sid)

    def test_rejects_annotated_and_unknown_ids(self):
        pool = generate_shifted_dataset(small_cfg())
        sid = int(pool.target_unlabeled[0])
        pool.annotate_batch([sid])
        with pytest.raises(ValueError):
            pool.oracle_label(sid)
        with pytest.raises(ValueError):
            pool.oracle_label(10**9)

    def test_source_ids_not_unlabeled(self):
        pool = generate_shifted_dataset(small_cfg())
        with pytest.raises(ValueError):
            pool.oracle_label(0)  # generated source rows hold ids 0..n_source-1


class TestAnnotateBatch:
    def test_empty_batch_noop(self):
        pool = generate_shifted_dataset(small_cfg())
        before = pool.sizes
        pool.annotate_batch([])
        assert pool.sizes == before

    def test_conservation(self):
        pool = generate_shifted_dataset(small_cfg(n_target=100))
        ids = pool.target_unlabeled[:10].tolist()
        pool.annotate_batch(ids)
        assert pool.sizes == (30, 10, 90)
        assert set(pool.target_labeled.tolist()) == set(ids)

    def test_labels_come_from_oracle(self):
        pool = generate_shifted_dataset(small_cfg())
        ids = pool.target_unlabeled[:5].tolist()
        truth = pool.evaluation_labels(ids)
        pool.annotate_batch(ids)
        _, y_t = pool.labeled_arrays(include_source=False)
        assert dict(zip(pool.target_labeled.tolist(), y_t.tolist())) == dict(zip(ids, truth))

    def test_duplicate_ids_rejected(self):
        pool = generate_shifted_dataset(small_cfg())
        sid = int(pool.target_unlabeled[0])
        with pytest.raises(ValueError):
            pool.annotate_batch([sid, sid])

    def test_already_labeled_id_rejected_and_atomic(self):
        pool = generate_shifted_dataset(small_cfg())
        first, second = pool.target_unlabeled[:2].tolist()
        pool.annotate_batch([first])
        before = pool.sizes
        with pytest.raises(ValueError):
            pool.annotate_batch([second, first])
        assert pool.sizes == before

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=49), max_size=20))
    def test_disjointness_under_random_annotation(self, picks):
        """Any sequence of annotations preserves conservation and id
        disjointness."""
        pool = generate_shifted_dataset(small_cfg())
        total = sum(pool.sizes)
        for p in picks:
            ids = pool.target_unlabeled.tolist()
            if not ids:
                break
            pool.annotate_batch([ids[p % len(ids)]])
        assert sum(pool.sizes) == total
        pool.check_invariants()


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        pool = generate_shifted_dataset(small_cfg())
        path = tmp_path / "pool.csv"
        write_dump(pool, path)
        assert_same_pool(load_pool(path), pool)

    def test_round_trip_is_bit_exact(self, tmp_path):
        """Features with full-precision mantissas survive the dump and the
        load bit for bit."""
        pool = generate_shifted_dataset(
            small_cfg(C=4, d_in=6, n_source=40, n_target=300, shift_kind="mixed", seed=11)
        )
        path = tmp_path / "pool.csv"
        write_dump(pool, path)
        loaded = load_pool(path)
        assert_same_pool(loaded, pool)
        _, X = pool.target_arrays()
        _, X_loaded = loaded.target_arrays()
        assert X.tobytes() == X_loaded.tobytes()

    def test_target_labels_hidden_after_load(self, tmp_path):
        pool = generate_shifted_dataset(small_cfg())
        path = tmp_path / "pool.csv"
        write_dump(pool, path)
        loaded = load_pool(path)
        assert len(loaded.target_labeled) == 0
        sid = int(loaded.target_unlabeled[0])
        assert loaded.oracle_label(sid) == pool.evaluation_labels([sid])[0]

    def test_rejects_malformed(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("4,3\n0,S,1,0.0,0.0\n")  # wrong field count
        with pytest.raises(ValueError):
            load_pool(bad)
        bad.write_text("4,3\n0,X,1,0.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError):
            load_pool(bad)
        bad.write_text("4,0\n0,S,0,0.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="at least one class"):
            load_pool(bad)
        for header in ("0,2", "-1,2"):  # no feature columns, or fewer than none
            bad.write_text(f"{header}\n0,S,0\n1,S,1\n")
            with pytest.raises(ValueError, match=f"bad header line '{header}'"):
                load_pool(bad)

    @pytest.mark.parametrize(
        "body",
        [
            "0,S,0,0.0,0.0\n1,S,1,0.0\n2,S,2,0.0,0.0\n",  # ragged line mid-file
            "0,S,0,0.0\n1,S,1,0.0\n2,S,2,0.0\n",  # every line one field short
            "0,S,0,0.0,0.0,0.0\n1,S,1,0.0,0.0,0.0\n2,S,2,0.0,0.0,0.0\n",  # one too many
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n3,X,1,0.0,0.0\n",
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n3,SX,1,0.0,0.0\n",
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n3,T,1.5,0.0,0.0\n",
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n3,T,C,0.0,0.0\n",
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n3,T,3,0.0,0.0\n",  # label >= C
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n1,T,0,0.0,0.0\n",  # duplicate id
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,T,2,0.0,0.0\n",  # source misses class 2
            "1.0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n",  # non-integer id
            "",  # header only
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n3,T,1,nan,0.0\n",
            "0,S,0,0.0,0.0\n1,S,1,0.0,0.0\n2,S,2,0.0,0.0\n3,T,1,0.0,-inf\n",
            "0,S,0,0.0,0.0\n1,S,1,inf,0.0\n2,S,2,0.0,0.0\n3,T,1,0.0,0.0\n",
        ],
    )
    def test_rejects_malformed_rows(self, tmp_path, body):
        bad = tmp_path / "bad.csv"
        bad.write_text("2,3\n" + body)
        with pytest.raises(ValueError):
            load_pool(bad)

    @pytest.mark.parametrize("body", ["", "\n\n"])
    @pytest.mark.filterwarnings("error")
    def test_rejects_a_file_with_no_sample_rows(self, tmp_path, body):
        """A header line alone, or followed by blank lines, is refused by
        name, and numpy's warning about the empty input does not leak."""
        bad = tmp_path / "bad.csv"
        bad.write_text("2,2\n" + body)
        with pytest.raises(ValueError, match=f"^dataset file {re.escape(str(bad))} has no sample rows$"):
            load_pool(bad)

    def test_one_target_row(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("2,2\n7,S,0,0.5,1.5\n3,T,1,2.0,-1.0\n5,S,1,-0.25,0.0\n")
        pool = load_pool(path)
        assert pool.sizes == (2, 0, 1)
        X_s, y_s = pool.labeled_arrays()  # source rows in id order: 5, then 7
        np.testing.assert_array_equal(X_s, [[-0.25, 0.0], [0.5, 1.5]])
        np.testing.assert_array_equal(y_s, [1, 0])
        ids, X = pool.unlabeled_arrays()
        np.testing.assert_array_equal(ids, [3])
        np.testing.assert_array_equal(X, [[2.0, -1.0]])
        assert pool.oracle_label(3) == 1
        pool.annotate_batch([3])
        assert pool.sizes == (2, 1, 0)
        assert pool.unlabeled_arrays()[1].shape == (0, 2)

    def test_single_row_file(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("3,1\n0,S,0,1.0,2.0,3.0\n")
        pool = load_pool(path)
        assert pool.sizes == (1, 0, 0)
        np.testing.assert_array_equal(pool.labeled_arrays()[0], [[1.0, 2.0, 3.0]])


class TestArrayPool:
    def test_rejects_mismatched_rows(self):
        with pytest.raises(ValueError):
            DataPool(2, [0, 1, 2], [[0.0], [1.0]], [0, 1, 1], [True, True, False])
        with pytest.raises(ValueError):
            DataPool(2, [0, 1], [[0.0], [1.0]], [0, 1], [True])
        # unsorted ids: the shapes are checked before the table is sorted
        with pytest.raises(ValueError, match="do not describe the same rows"):
            DataPool(2, [2, 0, 1], [[0.0], [1.0]], [0, 1, 1], [True, True, False])
        with pytest.raises(ValueError, match="do not describe the same rows"):
            DataPool(2, [2, 0, 1], [[0.0], [1.0], [2.0]], [0, 1], [True, True, False])

    @pytest.mark.parametrize("ids, labels", [
        ([7.5, 3, 5], [0, 1, 1]),
        ([7, 3, 5], [0, 1.5, 1]),
        ([7, np.nan, 5], [0, 1, 1]),
        (["7", "3", "5"], [0, 1, 1]),
        ([7, 3, 9.3e18], [0, 1, 1]),  # past int64: would wrap to -2**63
        (np.array([7, 3, 2**63 + 5], dtype=np.uint64), [0, 1, 1]),
        ([7, 3, 5], [0, 1, 1e20]),
    ])
    def test_rejects_non_integer_ids_and_labels(self, ids, labels):
        """A fractional, non-finite, non-numeric or out-of-int64 id or label
        is refused, not truncated, wrapped or parsed into a whole one."""
        with pytest.raises(ValueError, match="not a whole number"):
            DataPool(2, ids, [[0.0], [1.0], [2.0]], labels, [True, False, True])

    def test_lookups_reject_non_integer_ids(self):
        """oracle_label, annotate_batch and evaluation_labels refuse a
        fractional id, which would otherwise be truncated to a pool id, and
        the pool is left untouched."""
        pool = DataPool(2, [7, 3, 5], [[0.0], [1.0], [2.0]], [0, 1, 1], [True, False, True])
        with pytest.raises(ValueError, match="not a whole number"):
            pool.oracle_label(3.9)
        with pytest.raises(ValueError, match="not a whole number"):
            pool.annotate_batch([3.7])
        with pytest.raises(ValueError, match="not a whole number"):
            pool.evaluation_labels([3.0, 3.5])
        assert pool.sizes == (2, 0, 1)
        assert pool.oracle_label(3.0) == 1  # a whole float is an id
        pool.annotate_batch(np.array([3.0]))
        assert pool.sizes == (2, 1, 0)

    @pytest.mark.parametrize("C", [2.5, np.float64(2.9), 2.0, True, "2", None])
    def test_rejects_a_class_count_that_is_not_an_integer(self, C):
        """A float, bool or string C is refused by name, not truncated to a
        smaller class count or passed on to a TypeError."""
        with pytest.raises(ValueError, match=r"C=.* must be an integer"):
            DataPool(C, [0, 1], [[0.0], [1.0]], [0, 1], [True, True])

    @pytest.mark.parametrize("C", [2, np.int64(2), np.uint8(2)])
    def test_accepts_integer_class_counts(self, C):
        pool = DataPool(C, [0, 1], [[0.0], [1.0]], [0, 1], [True, True])
        assert type(pool.C) is int and pool.C == 2

    def test_rejects_zero_features(self):
        with pytest.raises(ValueError, match="at least one feature"):
            DataPool(2, [0, 1], np.zeros((2, 0)), [0, 1], [True, True])

    @pytest.mark.parametrize("source, covered", [
        ([True, True, False, False], "[0, 1]"),  # class 2 only among target rows
        ([False, False, False, False], "[]"),  # no source row at all
    ])
    def test_rejects_a_source_that_misses_a_class(self, tmp_path, source, covered):
        """Every class appears among the source rows, so pretraining and the
        labeled set of every non-source-free round cover all classes. Both
        an array pool and a pool file whose source rows miss a class are
        refused, naming the classes they cover."""
        message = rf"source pool covers classes {re.escape(covered)}, expected all of \[0, 3\)"
        ids, X, labels = [0, 1, 2, 3], np.arange(4.0)[:, None], [0, 1, 2, 1]
        with pytest.raises(ValueError, match=message):
            DataPool(3, ids, X, labels, source)
        path = tmp_path / "pool.csv"
        path.write_text("1,3\n" + "".join(
            f"{i},{'S' if s else 'T'},{y},{x[0]}\n" for i, x, y, s in zip(ids, X, labels, source)
        ))
        with pytest.raises(ValueError, match=message):
            load_pool(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features_naming_the_first_sample(self, value):
        X = np.zeros((4, 2))
        X[2, 1] = X[3, 0] = value
        with pytest.raises(ValueError, match="sample 12: non-finite feature"):
            DataPool(2, [10, 11, 12, 13], X, [0, 1, 0, 1], [True, True, False, False])

    @pytest.mark.filterwarnings("error")
    def test_finite_features_whose_sum_overflows_are_kept(self):
        X = np.array([[1.5e308, 0.0], [1.5e308, 1.0]])
        with np.errstate(over="raise", invalid="raise"):
            pool = DataPool(2, [0, 1], X, [0, 1], [True, True])
        np.testing.assert_array_equal(pool.source_arrays()[0], X)

    def test_views_and_inputs_do_not_alias_storage(self):
        X = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        pool = DataPool(2, [0, 1, 2], X, [0, 1, 1], [True, True, False])
        X[:] = -1.0
        for view in (pool.labeled_arrays()[0], pool.unlabeled_arrays()[1], pool.target_arrays()[1]):
            view[:] = -2.0
        pool.target_unlabeled[:] = 99
        np.testing.assert_array_equal(pool.target_arrays()[1], [[4.0, 5.0]])
        np.testing.assert_array_equal(pool.labeled_arrays()[0], [[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(pool.target_unlabeled, [2])

    def test_evaluation_labels_rejects_unknown_ids(self):
        pool = generate_shifted_dataset(small_cfg())
        with pytest.raises(ValueError):
            pool.evaluation_labels([31, 10**6])


class PoolMachine(RuleBasedStateMachine):
    """annotate_batch, oracle_label and the array views against a plain
    model of the pools: S and U as sorted id lists, T as an id list in
    annotation order, and a dict of hidden labels. Ids are drawn at random,
    so the pool is given them unsorted, and source and target rows
    interleave. A rejected call leaves the model untouched, so the
    invariant also checks that every failure is atomic."""

    @initialize(seed=st.integers(0, 2**32 - 1))
    def build(self, seed):
        rng = np.random.default_rng(seed)
        C, n = 3, 14
        ids = rng.choice(200, size=n, replace=False)
        source = rng.permutation(np.arange(n) < 4)
        labels = rng.integers(0, C, n)
        labels[np.flatnonzero(source)[:C]] = np.arange(C)
        X = rng.standard_normal((n, 2))
        self.pool = DataPool(C, ids, X, labels, source)
        self.x = {int(i): X[r] for r, i in enumerate(ids)}
        self.truth = {int(i): int(y) for i, y in zip(ids, labels)}
        self.S = sorted(ids[source].tolist())
        self.T = []
        self.U = sorted(ids[~source].tolist())

    def _unlabeled_batch(self, data, **kw):
        return data.draw(st.lists(st.sampled_from(self.U), unique=True, **kw))

    def _rejected(self, batch):
        with pytest.raises(ValueError):
            self.pool.annotate_batch(batch)

    @precondition(lambda self: self.U)
    @rule(data=st.data())
    def annotate_valid(self, data):
        batch = self._unlabeled_batch(data, max_size=4)
        assert self.pool.annotate_batch(batch) is self.pool
        self.T += batch
        self.U = [i for i in self.U if i not in batch]

    @precondition(lambda self: self.U)
    @rule(data=st.data())
    def annotate_duplicate(self, data):
        batch = self._unlabeled_batch(data, min_size=1, max_size=4)
        batch.insert(data.draw(st.integers(0, len(batch))), data.draw(st.sampled_from(batch)))
        self._rejected(batch)

    @rule(data=st.data())
    def annotate_already_labeled(self, data):
        batch = self._unlabeled_batch(data, max_size=3) if self.U else []
        bad = data.draw(st.sampled_from(self.S + self.T))
        batch.insert(data.draw(st.integers(0, len(batch))), bad)
        self._rejected(batch)

    @rule(data=st.data())
    def annotate_unknown(self, data):
        batch = self._unlabeled_batch(data, max_size=3) if self.U else []
        bad = data.draw(st.integers(-3, 300).filter(lambda i: i not in self.truth))
        batch.insert(data.draw(st.integers(0, len(batch))), bad)
        self._rejected(batch)

    @rule(data=st.data())
    def oracle(self, data):
        sid = data.draw(st.sampled_from(sorted(self.truth)) | st.integers(-3, 300))
        if sid in self.U:
            assert self.pool.oracle_label(sid) == self.truth[sid]
        else:
            with pytest.raises(ValueError):
                self.pool.oracle_label(sid)

    @invariant()
    def matches_model(self):
        pool = self.pool
        eq = np.testing.assert_array_equal

        def rows(ids):
            return np.array([self.x[i] for i in ids]).reshape(len(ids), 2)

        def labels(ids):
            return [self.truth[i] for i in ids]

        X, y = pool.labeled_arrays(include_source=True)
        eq(X, rows(self.S + self.T))
        eq(y, labels(self.S + self.T))
        X, y = pool.labeled_arrays(include_source=False)
        eq(X, rows(self.T))
        eq(y, labels(self.T))
        ids, X = pool.unlabeled_arrays()
        eq(ids, self.U)
        eq(X, rows(self.U))
        ids, X = pool.target_arrays()
        eq(ids, self.T + self.U)
        eq(X, rows(self.T + self.U))
        eq(pool.evaluation_labels(ids), labels(self.T + self.U))
        eq(pool.target_labeled, self.T)
        eq(pool.target_unlabeled, self.U)
        assert pool.sizes == (len(self.S), len(self.T), len(self.U))
        pool.check_invariants()


PoolMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=12, deadline=None)
TestPoolStateMachine = PoolMachine.TestCase
