"""The fused ``LSHIndex`` over the sign-projection schemes.

Per-scheme recall, dedup and validation checks for the four schemes
the ``lsh`` backend serves with sign keys: plain hyperplane, DATA-DEP
with a hyperplane sphere (Section 4.1), SIMPLE-LSH and the symmetric
Section 4.2 hash; the dedup check runs over every family.
"""

import numpy as np
import pytest

from repro.datasets import planted_mips
from repro.errors import ParameterError
from repro.lsh import (
    CrossPolytopeLSH,
    DataDepALSH,
    HyperplaneLSH,
    LSHIndex,
    SimpleALSH,
    SymmetricIPSHash,
)
from tests.test_batch_hashing import FAMILIES, _family_and_data
from tests.test_lsh_index import _lsh_query


@pytest.fixture(scope="module")
def instance():
    return planted_mips(600, 16, 32, s=0.85, c=0.4, seed=0)


def _datadep(n_tables, bits, seed):
    return LSHIndex(
        DataDepALSH(32, sphere="hyperplane"),
        n_tables=n_tables, hashes_per_table=bits, seed=seed,
    )


class TestSignSchemeIndex:
    def test_recall_on_planted(self, instance):
        idx = _datadep(16, 10, 1).build(instance.P)
        hits = 0
        for qi in range(16):
            found = _lsh_query(idx, instance.P, instance.Q[qi], instance.cs)
            if found is not None:
                assert float(instance.P[found] @ instance.Q[qi]) >= instance.cs
                hits += 1
        assert hits >= 13

    def test_candidates_match_single_and_batch(self, instance):
        idx = _datadep(6, 8, 2).build(instance.P)
        batch = idx.candidates_batch(instance.Q[:4])
        for qi in range(4):
            single = idx.candidates(instance.Q[qi])
            np.testing.assert_array_equal(np.sort(single), np.sort(batch[qi]))

    def test_candidates_deduplicated_and_valid(self):
        rng = np.random.default_rng(3)
        for name in FAMILIES:
            family, (P, Q) = _family_and_data(name, rng)
            idx = LSHIndex(family, n_tables=10, hashes_per_table=2, seed=3)
            lists = idx.build(P).candidates_batch(Q)
            assert any(c.size for c in lists), name
            for cands in lists:
                assert len(np.unique(cands)) == cands.size, name
                assert ((cands >= 0) & (cands < P.shape[0])).all(), name

    def test_more_bits_fewer_candidates(self, instance):
        coarse = _datadep(8, 4, 4).build(instance.P)
        fine = _datadep(8, 14, 4).build(instance.P)
        q = instance.Q[0]
        assert fine.candidates(q).size <= coarse.candidates(q).size

    def test_query_before_build_raises(self):
        idx = LSHIndex(HyperplaneLSH(8), n_tables=2, hashes_per_table=4)
        with pytest.raises(ParameterError):
            idx.candidates(np.zeros(8))
        assert not idx.is_built

    def test_hyperplane_variant_identical_vector_always_candidate(self, rng):
        P = rng.normal(size=(100, 8))
        idx = LSHIndex(
            HyperplaneLSH(8), n_tables=4, hashes_per_table=8, seed=5
        ).build(P)
        # A vector always collides with itself under sign projections.
        assert 17 in idx.candidates(P[17]).tolist()

    def test_simple_lsh_variant(self, rng):
        P = rng.normal(size=(100, 8))
        P *= 0.9 / np.linalg.norm(P, axis=1, keepdims=True)
        idx = LSHIndex(
            SimpleALSH(8), n_tables=8, hashes_per_table=6, seed=6
        ).build(P)
        q = P[3] / np.linalg.norm(P[3])
        found = _lsh_query(idx, P, q, 0.5)
        assert found is not None

    def test_symmetric_variant(self, rng):
        P = rng.normal(size=(80, 6))
        P *= 0.8 / np.linalg.norm(P, axis=1, keepdims=True)
        idx = LSHIndex(
            SymmetricIPSHash(6, eps=0.1), n_tables=10, hashes_per_table=5, seed=7
        ).build(P)
        q = P[11] * 0.99
        found = _lsh_query(idx, P, q, 0.4)
        assert found is not None
        assert float(P[found] @ q) >= 0.4

    def test_unsigned_query(self, instance):
        idx = _datadep(12, 8, 8).build(instance.P)
        found = _lsh_query(idx, instance.P, -instance.Q[0], instance.cs,
                           signed=False)
        if found is not None:
            assert abs(float(instance.P[found] @ instance.Q[0])) >= instance.cs

    def test_parameter_validation(self, rng):
        with pytest.raises(ParameterError):
            HyperplaneLSH(0)
        with pytest.raises(ParameterError):
            LSHIndex(HyperplaneLSH(4), n_tables=0)
        with pytest.raises(ParameterError):
            LSHIndex(HyperplaneLSH(4), hashes_per_table=0)
        P = rng.normal(size=(20, 4))
        sign = LSHIndex(HyperplaneLSH(4), n_tables=2, hashes_per_table=3).build(P)
        sign.candidates(P[0], n_probes=3)
        for n_probes in (-1, 4):
            with pytest.raises(ParameterError, match="n_probes"):
                sign.candidates(P[0], n_probes=n_probes)
        # Cross-polytope keys are not bit patterns: no multiprobe.
        polytope = LSHIndex(CrossPolytopeLSH(4), n_tables=2).build(P)
        with pytest.raises(ParameterError, match="n_probes"):
            polytope.candidates(P[0], n_probes=1)

    def test_wrong_query_dimension(self, instance):
        idx = LSHIndex(
            HyperplaneLSH(32), n_tables=2, hashes_per_table=4, seed=9
        ).build(instance.P)
        with pytest.raises(ParameterError):
            idx.candidates(np.zeros(7))
