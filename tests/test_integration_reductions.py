"""End-to-end reductions: OVP solved through gap embeddings and joins.

These are the executable form of Theorem 1's proof: embed an OVP instance
with each of Lemma 3's gap embeddings, run a ``(cs, s)`` join on the
embedded vectors, and confirm the join answers the OVP question exactly
as the direct solvers do.
"""

import numpy as np
import pytest

from repro.core import JoinSpec, brute_force_join
from repro.datasets import planted_ovp
from repro.embeddings import (
    ChebyshevSignEmbedding,
    ChoppedBinaryEmbedding,
    SignedCoordinateEmbedding,
)
from repro.ovp import solve_ovp_bitpacked
from tests.test_lsh_index import _lsh_query


def solve_ovp_via_embedding(instance, embedding, signed):
    """The Lemma 2 pipeline: embed, join, map answers back."""
    embedded_p = embedding.embed_left_many(instance.P)
    embedded_q = embedding.embed_right_many(instance.Q)
    # Any c in (cs/s, 1) separates; use the midpoint.
    c = (embedding.cs / embedding.s + 1.0) / 2.0 if embedding.cs > 0 else 0.5
    spec = JoinSpec(s=embedding.s, c=c, signed=signed)
    result = brute_force_join(embedded_p, embedded_q, spec)
    for qi, match in enumerate(result.matches):
        if match is not None and int(instance.P[match] @ instance.Q[qi]) == 0:
            return (match, qi)
    return None


@pytest.mark.parametrize("planted", [True, False])
class TestSignedEmbeddingReduction:
    def test_matches_direct_solver(self, planted):
        inst = planted_ovp(24, 16, planted=planted, seed=10 + planted)
        emb = SignedCoordinateEmbedding(inst.d)
        via_join = solve_ovp_via_embedding(inst, emb, signed=True)
        direct = solve_ovp_bitpacked(inst)
        assert (via_join is None) == (direct is None)
        if via_join is not None:
            i, j = via_join
            assert inst.is_orthogonal(i, j)


@pytest.mark.parametrize("planted", [True, False])
class TestChebyshevEmbeddingReduction:
    def test_matches_direct_solver(self, planted):
        # density 0.75 so the unplanted instance has no accidental
        # orthogonal pair at this small dimension.
        inst = planted_ovp(16, 16, planted=planted, density=0.75, seed=20 + planted)
        emb = ChebyshevSignEmbedding(d=inst.d, q=2)
        via_join = solve_ovp_via_embedding(inst, emb, signed=False)
        direct = solve_ovp_bitpacked(inst)
        assert (via_join is None) == (direct is None)
        if via_join is not None:
            assert inst.is_orthogonal(*via_join)


@pytest.mark.parametrize("planted", [True, False])
class TestChoppedEmbeddingReduction:
    def test_matches_direct_solver(self, planted):
        inst = planted_ovp(20, 16, planted=planted, density=0.75, seed=30 + planted)
        emb = ChoppedBinaryEmbedding(d=inst.d, k=4)
        via_join = solve_ovp_via_embedding(inst, emb, signed=False)
        direct = solve_ovp_bitpacked(inst)
        assert (via_join is None) == (direct is None)
        if via_join is not None:
            assert inst.is_orthogonal(*via_join)


class TestEmbeddingJoinFindsPlantedPair:
    def test_signed_pipeline_recovers_pair(self):
        inst = planted_ovp(24, 16, planted=True, seed=40)
        emb = SignedCoordinateEmbedding(inst.d)
        found = solve_ovp_via_embedding(inst, emb, signed=True)
        assert found is not None
        assert inst.is_orthogonal(*found)

    def test_gap_separation_on_embedded_instance(self):
        # Every orthogonal pair lands at >= s, all others at <= cs.
        inst = planted_ovp(16, 12, planted=True, seed=41)
        emb = ChoppedBinaryEmbedding(d=inst.d, k=4)
        EP = emb.embed_left_many(inst.P)
        EQ = emb.embed_right_many(inst.Q)
        raw = inst.P @ inst.Q.T
        embedded = EP @ EQ.T
        assert (np.abs(embedded[raw == 0]) >= emb.s).all()
        assert (np.abs(embedded[raw != 0]) <= emb.cs).all()


class TestSymmetricLSHSolvesSearch:
    def test_search_with_self_match_pre_step(self):
        # Section 4.2's full recipe: check query membership first, then
        # use the symmetric hash for distinct vectors.
        from repro.lsh import LSHIndex, SymmetricIPSHash
        from repro.lsh.symmetric import query_is_self_match

        rng = np.random.default_rng(42)
        P = rng.normal(size=(60, 6))
        P *= 0.9 / np.linalg.norm(P, axis=1, keepdims=True)
        family = SymmetricIPSHash(6, eps=0.05)
        index = LSHIndex(family, n_tables=10, hashes_per_table=2, seed=0).build(P)

        # A query equal to a stored vector: the pre-step answers it.
        q_self = P[7]
        assert query_is_self_match(P, q_self, s=0.5)

        # A distinct query near a stored vector: the index answers it.
        q_near = P[7] * 0.99
        found = _lsh_query(index, P, q_near, 0.5)
        assert found is not None
        assert float(P[found] @ q_near) >= 0.5
