import pickle

import numpy as np
import pytest

from repro.datasets import (
    SetCollection,
    jaccard_pair,
    planted_jaccard_sets,
    zipfian_sets,
)
from repro.errors import ParameterError
from repro.lsh.minhash import MinHash


class TestZipfianSets:
    def test_shape_and_domain(self):
        X = zipfian_sets(30, 100, mean_size=10, seed=0)
        assert X.shape == (30, 100)
        assert set(np.unique(X)) <= {0, 1}

    def test_no_empty_sets(self):
        X = zipfian_sets(50, 60, mean_size=1, seed=1)
        assert (X.sum(axis=1) >= 1).all()

    def test_mean_size_roughly_respected(self):
        X = zipfian_sets(300, 500, mean_size=20, seed=2)
        assert 15 < X.sum(axis=1).mean() < 25

    def test_skew_towards_low_ranks(self):
        X = zipfian_sets(500, 200, mean_size=10, exponent=1.5, seed=3)
        first_half = X[:, :100].sum()
        second_half = X[:, 100:].sum()
        assert first_half > 2 * second_half

    def test_set_sizes_capped_at_universe(self):
        X = zipfian_sets(20, 10, mean_size=10, seed=4)
        assert X.sum(axis=1).max() <= 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0, "universe": 10, "mean_size": 2},
            {"n": 5, "universe": 1, "mean_size": 1},
            {"n": 5, "universe": 10, "mean_size": 0},
            {"n": 5, "universe": 10, "mean_size": 2, "exponent": 0},
        ],
    )
    def test_bad_parameters(self, kwargs):
        with pytest.raises(ParameterError):
            zipfian_sets(**kwargs)


class TestSetCollectionEdgeCases:
    def test_empty_sets_roundtrip(self):
        sets = SetCollection.from_lists([[], [1, 3], []], universe=5)
        assert sets.shape == (3, 5)
        assert sets.sizes.tolist() == [0, 2, 0]
        assert sets.row(0).size == 0
        dense = sets.to_dense()
        assert dense.sum() == 2
        assert SetCollection.from_dense(dense) == sets

    def test_all_empty_collection(self):
        sets = SetCollection.from_lists([[], []], universe=4)
        assert sets.indices.size == 0
        assert SetCollection.from_dense(sets.to_dense()) == sets

    def test_duplicate_elements_dropped(self):
        sets = SetCollection.from_lists([[3, 1, 3, 1, 1]], universe=5)
        assert sets.row(0).tolist() == [1, 3]

    def test_singleton_universe(self):
        sets = SetCollection.from_lists([[], [0], [0]], universe=1)
        assert sets.shape == (3, 1)
        assert jaccard_pair(sets.row(0), sets.row(1)) == 0.0
        assert jaccard_pair(sets.row(1), sets.row(2)) == 1.0
        assert SetCollection.from_dense(sets.to_dense()) == sets

    def test_jaccard_pair_empty_vs_empty_is_zero(self):
        empty = np.empty(0, dtype=np.int64)
        assert jaccard_pair(empty, empty) == 0.0
        assert jaccard_pair(empty, np.array([2, 4])) == 0.0

    def test_slice_and_fancy_index_agree(self):
        sets = SetCollection.from_lists(
            [[0], [1, 2], [], [3, 4, 5], [2, 5]], universe=6
        )
        assert sets[1:4] == sets[np.arange(1, 4)]
        assert sets[::2] == sets[np.array([0, 2, 4])]
        assert len(sets[2:2]) == 0

    def test_coerce_rejects_ragged_python_lists(self):
        with pytest.raises(ParameterError, match="from_lists"):
            SetCollection.coerce([[0, 1], [2]])

    def test_coerce_rejects_non_binary_dense(self):
        for bad in (0.5, 2, -1, np.nan, np.inf):
            X = np.zeros((2, 3))
            X[1, 2] = bad
            with pytest.raises(ParameterError, match="0/1"):
                SetCollection.coerce(X)
        with pytest.raises(ParameterError, match="0/1"):
            SetCollection.coerce(np.full((2, 3), 0.5))
        # Bool and integer 0/1 matrices are sets.
        X = np.array([[1, 0, 1], [0, 0, 1]])
        want = SetCollection.from_lists([[0, 2], [2]], universe=3)
        assert SetCollection.coerce(X) == want
        assert SetCollection.coerce(X.astype(bool)) == want
        assert SetCollection.coerce(X.astype(np.int8)) == want

    def test_constructor_validation(self):
        with pytest.raises(ParameterError):
            SetCollection(np.array([1, 2]), np.array([0, 1]), 4)
        with pytest.raises(ParameterError):
            SetCollection(np.array([0, 2]), np.array([0, 9]), 4)
        with pytest.raises(ParameterError):
            SetCollection(np.array([0, 1]), np.array([0]), 0)

    def test_pickle_roundtrip(self):
        sets = SetCollection.from_lists([[0, 2], [], [1]], universe=3)
        assert pickle.loads(pickle.dumps(sets)) == sets


class TestMinHashBatchVsPerRow:
    """The batch ``hash_matrix`` path must agree with the per-row
    reference key for key, including the empty-set sentinel rows."""

    def _tables(self, universe, n_tables=4, hashes_per_table=3, seed=0):
        family = MinHash(universe)
        rng = np.random.default_rng(seed)
        return family.sample_batch(
            rng, hashes_per_table=hashes_per_table, n_tables=n_tables
        )

    def test_batch_equals_per_row_on_random_sets(self):
        universe = 40
        tables = self._tables(universe)
        X = zipfian_sets(25, universe, mean_size=6, seed=1)
        assert np.array_equal(
            tables.hash_matrix(X), tables.hash_rows(X)
        )

    def test_batch_equals_per_row_with_empty_and_full_rows(self):
        universe = 12
        tables = self._tables(universe)
        X = np.zeros((4, universe), dtype=np.int64)
        X[1, :] = 1                      # the full universe
        X[2, 5] = 1                      # a singleton
        # row 0 and row 3 stay empty
        assert np.array_equal(tables.hash_matrix(X), tables.hash_rows(X))

    def test_empty_set_keys_are_the_packed_sentinel(self):
        universe = 9
        tables = self._tables(universe)
        X = np.zeros((2, universe), dtype=np.int64)
        keys = tables.hash_matrix(X)
        # EMPTY_SET components are -1, shifted by one to pack as 0.
        assert (keys == 0).all()

    def test_identical_sets_collide_in_every_table(self):
        universe = 30
        tables = self._tables(universe, n_tables=6)
        row = np.zeros((1, universe), dtype=np.int64)
        row[0, [2, 11, 17]] = 1
        X = np.vstack([row, row])
        keys = tables.hash_matrix(X)
        assert np.array_equal(keys[0], keys[1])

    def test_planted_workload_hashes_identically_both_paths(self):
        P, Q = planted_jaccard_sets(
            30, 8, universe=64, mean_size=8, threshold=0.6, seed=3
        )
        tables = self._tables(64, seed=5)
        for sets in (P, Q):
            dense = sets.to_dense()
            assert np.array_equal(
                tables.hash_matrix(dense), tables.hash_rows(dense)
            )
