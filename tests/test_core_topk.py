from dataclasses import replace

import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec, topk_recall
from repro.datasets import planted_mips
from repro.errors import ParameterError
from repro.lsh import DataDepALSH, LSHIndex


def exact_topk(P, Q, spec, k, block=1024):
    return engine.join(
        P, Q, replace(spec, k=k), backend="brute_force", block=block
    ).topk


def lsh_topk(P, Q, spec, k, **options):
    return engine.join(P, Q, replace(spec, k=k), backend="lsh", **options).topk


class TestJoinTopK:
    def test_exact_topk_order_and_threshold(self, rng):
        P = rng.normal(size=(30, 6))
        Q = rng.normal(size=(5, 6))
        spec = JoinSpec(s=0.5, c=0.5)
        results = exact_topk(P, Q, spec, k=3)
        assert any(results)
        for qi, matches in enumerate(results):
            assert len(matches) <= 3
            values = [float(P[m] @ Q[qi]) for m in matches]
            assert all(v >= spec.cs for v in values)
            assert values == sorted(values, reverse=True)

    def test_k_one_matches_best(self, rng):
        P = rng.normal(size=(30, 6))
        Q = rng.normal(size=(4, 6))
        spec = JoinSpec(s=0.01)
        results = exact_topk(P, Q, spec, k=1)
        assert any(results)
        ips = Q @ P.T
        for qi, matches in enumerate(results):
            if matches:
                assert matches[0] == int(np.argmax(ips[qi]))

    def test_unsigned_variant(self):
        P = np.array([[1.0, 0.0], [-2.0, 0.0], [0.0, 1.0]])
        Q = np.array([[1.0, 0.0]])
        spec = JoinSpec(s=0.5, signed=False)
        results = exact_topk(P, Q, spec, k=5)
        assert results[0] == [1, 0]  # |-2| > |1|, 0.0 excluded

    def test_blocked_matches_unblocked(self, rng):
        P = rng.normal(size=(25, 5))
        Q = rng.normal(size=(9, 5))
        spec = JoinSpec(s=0.2, c=0.7)
        unblocked = exact_topk(P, Q, spec, 4)
        assert any(unblocked)
        assert exact_topk(P, Q, spec, 4, block=3) == unblocked

    def test_bad_k(self, rng):
        P = rng.normal(size=(5, 3))
        with pytest.raises(ParameterError):
            exact_topk(P, P, JoinSpec(s=1.0), k=0)


class TestLSHJoinTopK:
    def test_with_generic_family(self):
        inst = planted_mips(300, 10, 24, s=0.85, c=0.4, seed=0)
        spec = JoinSpec(s=inst.s, c=0.4)
        exact = exact_topk(inst.P, inst.Q, spec, k=3)
        assert any(exact)
        approx = lsh_topk(
            inst.P, inst.Q, spec, k=3,
            family=DataDepALSH(24, sphere="hyperplane"),
            n_tables=14, hashes_per_table=6, seed=1,
        )
        assert topk_recall(approx, exact) >= 0.6

    def test_with_batch_index(self):
        inst = planted_mips(300, 10, 24, s=0.85, c=0.4, seed=2)
        spec = JoinSpec(s=inst.s, c=0.4)
        idx = LSHIndex(
            DataDepALSH(24, sphere="hyperplane"),
            n_tables=16, hashes_per_table=8, seed=3
        ).build(inst.P)
        exact = exact_topk(inst.P, inst.Q, spec, k=3)
        assert any(exact)
        approx = lsh_topk(inst.P, inst.Q, spec, k=3, index=idx)
        assert topk_recall(approx, exact) >= 0.6


class TestTopKRecall:
    def test_perfect(self):
        assert topk_recall([[1, 2]], [[2, 1]]) == 1.0

    def test_partial(self):
        assert topk_recall([[1]], [[1, 2]]) == 0.5

    def test_empty_reference_ignored(self):
        assert topk_recall([[1], []], [[1], []]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            topk_recall([[1]], [[1], [2]])


class TestBlockedTopK:
    def test_blocked_equals_per_query_reference(self, rng):
        from repro.lsh import HyperplaneLSH, LSHIndex

        P = rng.normal(size=(200, 12))
        P /= np.linalg.norm(P, axis=1, keepdims=True) * 1.1
        Q = rng.normal(size=(67, 12))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        spec = JoinSpec(s=0.5, c=0.6)
        family = HyperplaneLSH(12)
        blocked = lsh_topk(
            P, Q, spec, k=4, family=family, n_tables=16, hashes_per_table=4,
            seed=11, block=16,
        )
        index = LSHIndex(family, n_tables=16, hashes_per_table=4, seed=11).build(P)
        reference = []
        for q in Q:
            candidates = index.candidates(q)
            if candidates.size == 0:
                reference.append([])
                continue
            values = P[candidates] @ q
            keep = values >= spec.cs
            kept, scores = candidates[keep], values[keep]
            order = np.argsort(-scores)[:4]
            reference.append(kept[order].tolist())
        assert any(reference)
        assert blocked == reference

    def test_candidate_values_block_alignment(self, rng):
        from repro.core.verify import candidate_values_block

        P = rng.normal(size=(50, 8))
        Q = rng.normal(size=(9, 8))
        cand_lists = [
            np.sort(rng.choice(50, size=rng.integers(0, 20), replace=False)).astype(np.int64)
            for _ in range(9)
        ]
        for signed in (True, False):
            values = candidate_values_block(P, Q, cand_lists, signed=signed)
            for i, cands in enumerate(cand_lists):
                expected = P[cands] @ Q[i]
                if not signed:
                    expected = np.abs(expected)
                assert values[i].shape == expected.shape
                assert np.allclose(values[i], expected, rtol=1e-9, atol=1e-12)
