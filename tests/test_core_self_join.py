import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec
from repro.errors import ParameterError
from repro.lsh import LSHIndex, SymmetricIPSHash


def exact_self(P, spec, block=512):
    return engine.join(P, None, spec, backend="brute_force", block=block)


def lsh_self(P, spec, index, block=256):
    return engine.join(P, None, spec, backend="lsh", index=index, block=block)


class TestSelfJoin:
    def test_self_pairs_excluded(self, rng):
        P = rng.normal(size=(20, 6))
        spec = JoinSpec(s=0.01, signed=False)
        result = exact_self(P, spec)
        assert result.matched_count > 0
        for i, match in enumerate(result.matches):
            assert match != i

    def test_best_other_vector_found(self, rng):
        P = rng.normal(size=(30, 6))
        spec = JoinSpec(s=0.01, signed=False)
        result = exact_self(P, spec)
        assert result.matched_count > 0
        ips = np.abs(P @ P.T)
        np.fill_diagonal(ips, -np.inf)
        for i, match in enumerate(result.matches):
            if match is not None:
                assert abs(ips[i, match] - ips[i].max()) < 1e-12

    def test_duplicate_handling(self):
        P = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.2]])
        spec = JoinSpec(s=0.5)
        with_dups = exact_self(P, spec)
        assert with_dups.matches[0] == 1 and with_dups.matches[1] == 0
        without = exact_self(P, JoinSpec(s=0.5, match_duplicates=False))
        assert without.matches[0] is None  # the only >= cs partner is a duplicate

    def test_threshold_respected(self, rng):
        P = rng.normal(size=(15, 4))
        spec = JoinSpec(s=100.0)
        assert exact_self(P, spec).matched_count == 0

    def test_blocking_invariance(self, rng):
        P = rng.normal(size=(25, 5))
        spec = JoinSpec(s=0.2, signed=False)
        a = exact_self(P, spec, block=4)
        b = exact_self(P, spec, block=100)
        assert a.matched_count > 0
        assert a.matches == b.matches

    def test_needs_two_vectors(self):
        with pytest.raises(ParameterError):
            exact_self(np.ones((1, 3)), JoinSpec(s=1.0))


class TestLSHSelfJoin:
    def test_near_duplicates_found(self, rng):
        # Clustered data: pairs of near-duplicates.
        base = rng.normal(size=(25, 8))
        base *= 0.9 / np.linalg.norm(base, axis=1, keepdims=True)
        P = np.vstack([base, base + rng.normal(size=base.shape) * 0.01])
        P *= 0.99 / np.linalg.norm(P, axis=1, keepdims=True).max()
        spec = JoinSpec(s=0.7)
        idx = LSHIndex(
            SymmetricIPSHash(8, eps=0.05), n_tables=12, hashes_per_table=8, seed=0
        ).build(P)
        exact = exact_self(P, spec)
        assert exact.matched_count > 0
        approx = lsh_self(P, spec, idx)
        assert approx.recall_against(exact) >= 0.8

    def test_self_excluded(self, rng):
        P = rng.normal(size=(30, 6))
        P *= 0.9 / np.linalg.norm(P, axis=1, keepdims=True)
        idx = LSHIndex(
            SymmetricIPSHash(6, eps=0.1), n_tables=8, hashes_per_table=4, seed=1
        ).build(P)
        result = lsh_self(P, JoinSpec(s=0.01, signed=False), idx)
        for i, match in enumerate(result.matches):
            assert match != i

    def test_duplicate_exclusion(self, rng):
        row = rng.normal(size=6)
        row *= 0.9 / np.linalg.norm(row)
        P = np.vstack([row, row, rng.normal(size=6) * 0.01])
        idx = LSHIndex(
            SymmetricIPSHash(6, eps=0.1), n_tables=8, hashes_per_table=3, seed=2
        ).build(P)
        spec = JoinSpec(s=0.5, match_duplicates=False)
        strict = lsh_self(P, spec, idx)
        assert strict.matches[0] is None

    def test_subquadratic_verification(self, rng):
        P = rng.normal(size=(200, 8))
        P *= 0.9 / np.linalg.norm(P, axis=1, keepdims=True)
        idx = LSHIndex(
            SymmetricIPSHash(8, eps=0.1), n_tables=6, hashes_per_table=8, seed=3
        ).build(P)
        result = lsh_self(P, JoinSpec(s=0.6), idx)
        assert result.inner_products_evaluated < 200 * 199 / 2
