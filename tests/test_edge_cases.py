"""Failure injection and edge cases across the library.

Degenerate dimensions, empty candidate sets, adversarial duplicates (the
p == q caveat of Section 4.2), thresholds nothing can reach, zero
vectors, and boundary approximation factors.
"""

import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec, brute_force_join
from repro.datasets import planted_mips
from repro.errors import ParameterError
from repro.lsh import DataDepALSH, HyperplaneLSH, LSHIndex
from repro.mips import ConeTreeMIPS, ExactMIPS
from repro.sketches import LKappaSketch, SketchCMIPS


class TestUnreachableThresholds:
    def test_exact_join_all_none(self, rng):
        P = rng.normal(size=(20, 4))
        Q = rng.normal(size=(5, 4))
        result = brute_force_join(P, Q, JoinSpec(s=1e9))
        assert result.matches == [None] * 5

    def test_lsh_join_all_none(self, rng):
        P = rng.normal(size=(30, 4)); P /= 2 * np.linalg.norm(P, axis=1, keepdims=True)
        Q = rng.normal(size=(4, 4)); Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        result = engine.join(
            P, Q, JoinSpec(s=100.0, c=0.5), backend="lsh",
            family=DataDepALSH(4, sphere="hyperplane"), seed=0,
        )
        assert result.matches == [None] * 4

    def test_sketch_join_all_none(self, rng):
        P = rng.normal(size=(40, 4))
        Q = rng.normal(size=(4, 4))
        result = engine.join(
            P, Q, JoinSpec(s=1e9, signed=False), backend="sketch",
            kappa=3.0, seed=1,
        )
        assert result.matches == [None] * 4


class TestDegenerateShapes:
    def test_single_data_vector(self):
        P = np.array([[1.0, 0.0]])
        Q = np.array([[1.0, 0.0], [0.0, 1.0]])
        result = brute_force_join(P, Q, JoinSpec(s=0.5))
        assert result.matches == [0, None]

    def test_single_dimension(self, rng):
        P = rng.normal(size=(10, 1))
        Q = rng.normal(size=(3, 1))
        result = brute_force_join(P, Q, JoinSpec(s=0.01, signed=False))
        assert len(result.matches) == 3

    def test_one_point_cone_tree(self):
        tree = ConeTreeMIPS(np.array([[2.0, 0.0]]), seed=0)
        assert tree.query(np.array([1.0, 1.0])).value == 2.0

    def test_sketch_on_tiny_dataset(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        structure = SketchCMIPS(P, kappa=2.0, seed=0)
        answer = structure.query(np.array([1.0, 0.0]))
        assert answer.index == 0 and answer.value == 1.0

    def test_sketch_single_row(self):
        sketch = LKappaSketch(1, 2.0, copies=3, seed=0)
        assert sketch.estimate(np.array([3.0])) > 0


class TestZeroVectors:
    def test_zero_query_brute_force(self, rng):
        P = rng.normal(size=(5, 3))
        result = brute_force_join(P, np.zeros((1, 3)), JoinSpec(s=0.1))
        assert result.matches == [None]

    def test_zero_data_sketch_estimate(self):
        sketch = LKappaSketch(8, 3.0, copies=3, seed=0)
        assert sketch.estimate(np.zeros(8)) == 0.0

    def test_zero_vector_in_cone_tree(self, rng):
        P = np.vstack([np.zeros(3), rng.normal(size=(5, 3))])
        exact = ExactMIPS(P)
        tree = ConeTreeMIPS(P, seed=1)
        q = rng.normal(size=3)
        assert abs(exact.query(q).value - tree.query(q).value) < 1e-9


class TestAdversarialDuplicates:
    def test_duplicate_rows_exact_join(self):
        P = np.array([[1.0, 0.0]] * 5)
        Q = np.array([[1.0, 0.0]])
        result = brute_force_join(P, Q, JoinSpec(s=0.5))
        assert result.matches[0] in range(5)

    def test_duplicate_rows_in_lsh_index(self, rng):
        P = np.tile(rng.normal(size=(1, 4)), (8, 1))
        P *= 0.5 / np.linalg.norm(P[0])
        idx = LSHIndex(HyperplaneLSH(4), n_tables=4, hashes_per_table=2, seed=0)
        idx.build(P)
        cands = idx.candidates(P[0])
        assert set(cands.tolist()) == set(range(8))

    def test_query_equals_data_vector_unsigned(self):
        # The p == q pair in the unsigned join; must behave like any pair.
        P = np.array([[0.9, 0.0], [0.0, 0.1]])
        result = engine.join(
            P, np.array([[0.9, 0.0]]), JoinSpec(s=0.5, signed=False),
            backend="brute_force",
        )
        assert result.matches[0] == 0


class TestBoundaryApproximationFactors:
    def test_c_exactly_one_is_exact(self, rng):
        P = rng.normal(size=(10, 4))
        Q = rng.normal(size=(3, 4))
        a = engine.join(P, Q, JoinSpec(s=0.5, c=1.0), backend="brute_force")
        b = brute_force_join(P, Q, JoinSpec(s=0.5))
        assert b.matched_count > 0
        assert a.matches == b.matches

    @pytest.mark.parametrize("c", [0.0, -0.5, 1.0001])
    def test_invalid_c_rejected(self, c, rng):
        P = rng.normal(size=(5, 3))
        with pytest.raises(ParameterError):
            JoinSpec(s=1.0, c=c)

    def test_tiny_c_accepted(self):
        spec = JoinSpec(s=1.0, c=1e-9)
        assert spec.cs == pytest.approx(1e-9)


class TestBatchIndexEdges:
    def test_empty_bucket_query(self, rng):
        # Tight bits, one table: a far query may find nothing; the index
        # must return an empty candidate array, not fail.
        P = rng.normal(size=(30, 6))
        idx = LSHIndex(
            HyperplaneLSH(6), n_tables=1, hashes_per_table=20, seed=0
        ).build(P)
        cands = idx.candidates(-P.mean(axis=0) * 100)
        assert cands.dtype == np.int64

    def test_stats_accumulate(self, rng):
        P = rng.normal(size=(30, 6))
        idx = LSHIndex(
            HyperplaneLSH(6), n_tables=4, hashes_per_table=4, seed=1
        ).build(P)
        idx.candidates(P[0])
        idx.candidates(P[1])
        assert idx.stats.queries == 2

    def test_lsh_join_accepts_batch_index(self, rng):
        inst = planted_mips(200, 8, 24, s=0.85, c=0.4, seed=2)
        idx = LSHIndex(
            DataDepALSH(24, sphere="hyperplane"),
            n_tables=12, hashes_per_table=8, seed=3
        ).build(inst.P)
        spec = JoinSpec(s=inst.s, c=0.4)
        result = engine.join(inst.P, inst.Q, spec, backend="lsh", index=idx)
        assert result.matched_count >= 6
