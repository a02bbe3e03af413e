"""Path-equivalence tests for the CSR tables, blocked verify, and executor.

The fast paths must be *refactorings*, not new algorithms: same seed ⇒
identical candidate sets and identical join matches across the generic
``LSHIndex``, the dict-layout ``BatchSignIndex``, the CSR layout, and
the process-parallel executor at any worker count.
"""

import numpy as np
import pytest

from repro import engine
from repro.core import (
    BatchIndexSpec,
    JoinSpec,
    verify_block,
    verify_candidates,
)
from repro.datasets import planted_mips, random_unit
from repro.errors import ParameterError
from repro.lsh import BatchSignIndex, CSRBucketTable, DataDepALSH, LSHIndex


def lsh(P, Q, spec, **options):
    return engine.join(P, Q, spec, backend="lsh", **options)


@pytest.fixture(scope="module")
def instance():
    return planted_mips(800, 24, 32, s=0.85, c=0.4, seed=0)


def _pair(instance, n_tables=10, bits=8, seed=3):
    """Identically-seeded dict and CSR BatchSignIndexes over the data."""
    dict_idx = BatchSignIndex.for_datadep(
        32, n_tables=n_tables, bits_per_table=bits, seed=seed, layout="dict"
    ).build(instance.P)
    csr_idx = BatchSignIndex.for_datadep(
        32, n_tables=n_tables, bits_per_table=bits, seed=seed, layout="csr"
    ).build(instance.P)
    return dict_idx, csr_idx


class TestCSRBucketTable:
    def test_roundtrip_groups_rows_by_key(self):
        keys = np.array([5, 3, 5, 5, 3, 9], dtype=np.int64)
        table = CSRBucketTable.from_keys(keys)
        np.testing.assert_array_equal(table.keys, [3, 5, 9])
        starts, ends = table.lookup(np.array([3, 5, 9, 4]))
        buckets = [table.indices[s:e].tolist() for s, e in zip(starts, ends)]
        assert buckets == [[1, 4], [0, 2, 3], [5], []]

    def test_bucket_contents_sorted_ascending(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 16, size=500)
        table = CSRBucketTable.from_keys(keys)
        for b in range(table.n_buckets):
            bucket = table.indices[table.offsets[b]:table.offsets[b + 1]]
            assert (np.diff(bucket) > 0).all()

    def test_empty_table_lookup(self):
        table = CSRBucketTable.from_keys(np.empty(0, dtype=np.int64))
        starts, ends = table.lookup(np.array([1, 2, 3]))
        assert (starts == ends).all()

    def test_gather_matches_manual_slices(self):
        keys = np.array([1, 1, 2, 3, 3, 3], dtype=np.int64)
        table = CSRBucketTable.from_keys(keys)
        starts, ends = table.lookup(np.array([3, 7, 1]))
        rows, lengths = table.gather(starts, ends)
        assert rows.tolist() == [3, 4, 5, 0, 1]
        assert lengths.tolist() == [3, 0, 2]


class TestLayoutEquivalence:
    @pytest.mark.parametrize("n_probes", [0, 2])
    def test_dict_and_csr_identical(self, instance, n_probes):
        dict_idx, csr_idx = _pair(instance)
        dict_lists = dict_idx.candidates_batch(instance.Q, n_probes=n_probes)
        csr_lists = csr_idx.candidates_batch(instance.Q, n_probes=n_probes)
        assert len(dict_lists) == len(csr_lists) == 24
        for a, b in zip(dict_lists, csr_lists):
            np.testing.assert_array_equal(a, b)
        # Work accounting must agree too, including probe attribution.
        for field in ("queries", "candidates", "unique_candidates",
                      "probe_candidates", "probed_buckets"):
            assert getattr(dict_idx.stats, field) == getattr(csr_idx.stats, field)

    def test_generic_index_matches_batch_index(self, instance):
        """Same seed ⇒ same hash stream: LSHIndex(DataDepALSH) and
        BatchSignIndex.for_datadep bucket identically."""
        generic = LSHIndex(
            DataDepALSH(32, sphere="hyperplane"),
            n_tables=6, hashes_per_table=8, seed=11,
        ).build(instance.P)
        batch = BatchSignIndex.for_datadep(
            32, n_tables=6, bits_per_table=8, seed=11
        ).build(instance.P)
        for qi in range(24):
            np.testing.assert_array_equal(
                generic.candidates(instance.Q[qi]),
                batch.candidates(instance.Q[qi]),
            )

    def test_generic_candidates_sorted_and_deterministic(self, instance):
        index = LSHIndex(
            DataDepALSH(32, sphere="hyperplane"),
            n_tables=8, hashes_per_table=6, seed=5,
        ).build(instance.P)
        first = index.candidates(instance.Q[0])
        assert (np.diff(first) > 0).all()
        np.testing.assert_array_equal(first, index.candidates(instance.Q[0]))

    def test_batch_candidates_sorted(self, instance):
        _, csr_idx = _pair(instance)
        for cands in csr_idx.candidates_batch(instance.Q, n_probes=2):
            if cands.size > 1:
                assert (np.diff(cands) > 0).all()

    def test_empty_query_matrix(self, instance):
        for idx in _pair(instance):
            assert idx.candidates_batch(np.empty((0, 32))) == []

    def test_empty_bucket_query(self):
        rng = np.random.default_rng(7)
        P = rng.normal(size=(40, 6))
        far = -P.mean(axis=0) * 100
        for layout in ("dict", "csr"):
            idx = BatchSignIndex.for_hyperplane(
                6, n_tables=1, bits_per_table=20, seed=0, layout=layout
            ).build(P)
            cands = idx.candidates(far)
            assert cands.size == 0 and cands.dtype == np.int64


class TestQueryStats:
    def test_reset(self, instance):
        _, idx = _pair(instance)
        idx.candidates_batch(instance.Q, n_probes=1)
        assert idx.stats.queries > 0
        idx.stats.reset()
        assert idx.stats.queries == 0
        assert idx.stats.candidates == 0
        assert idx.stats.probe_candidates == 0

    def test_join_reports_delta_not_cumulative(self, instance):
        """A reused index must not inflate candidates_generated (the
        QueryStats-pollution regression)."""
        _, idx = _pair(instance)
        spec = JoinSpec(s=instance.s, c=0.4)
        first = lsh(instance.P, instance.Q, spec, index=idx)
        second = lsh(instance.P, instance.Q, spec, index=idx)
        assert first.matched_count > 0
        assert first.matches == second.matches
        assert first.candidates_generated == second.candidates_generated
        assert first.inner_products_evaluated == second.inner_products_evaluated
        # The index's cumulative stats still see both joins.
        assert idx.stats.queries == 48

    def test_probe_fraction(self, instance):
        _, idx = _pair(instance)
        idx.candidates_batch(instance.Q, n_probes=3)
        assert 0.0 < idx.stats.probe_fraction < 1.0
        assert idx.stats.probe_candidates <= idx.stats.candidates


class TestVerifyKernel:
    def _naive(self, P, Q, cand_lists, threshold, signed):
        out = []
        for qi, cands in enumerate(cand_lists):
            if cands.size == 0:
                out.append(None)
                continue
            values = P[cands] @ Q[qi]
            scores = values if signed else np.abs(values)
            best = int(np.argmax(scores))
            out.append(int(cands[best]) if scores[best] >= threshold else None)
        return out

    @pytest.mark.parametrize("signed", [True, False])
    def test_matches_naive_loop(self, signed):
        rng = np.random.default_rng(1)
        P = rng.normal(size=(300, 16))
        Q = rng.normal(size=(40, 16))
        cand_lists = [
            np.unique(rng.integers(0, 300, rng.integers(0, 25)))
            for _ in range(40)
        ]
        cand_lists[3] = np.empty(0, dtype=np.int64)  # force an empty list
        matches, evaluated = verify_candidates(
            P, Q, cand_lists, threshold=1.0, signed=signed, block=16
        )
        assert matches == self._naive(P, Q, cand_lists, 1.0, signed)
        assert evaluated == sum(c.size for c in cand_lists)

    def test_gemm_path_fires_and_agrees(self):
        """Heavily overlapping lists take the union-GEMM branch; results
        must equal the naive loop regardless."""
        rng = np.random.default_rng(2)
        P = rng.normal(size=(500, 8))
        Q = rng.normal(size=(64, 8))
        hot = np.arange(20, dtype=np.int64)
        cand_lists = [np.unique(rng.choice(hot, 15)) for _ in range(64)]
        result = verify_block(P, Q, cand_lists)
        naive = self._naive(P, Q, cand_lists, -np.inf, True)
        assert result.best_index.tolist() == naive

    def test_all_empty(self):
        P = np.eye(4)
        Q = np.eye(4)
        result = verify_block(P, Q, [np.empty(0, dtype=np.int64)] * 4)
        assert (result.best_index == -1).all()
        assert result.n_evaluated == 0


class TestExecutor:
    @pytest.fixture(scope="class")
    def workload(self):
        P = random_unit(2000, 24, seed=0) * 0.95
        Q = random_unit(300, 24, seed=1) * 0.95
        spec = JoinSpec(s=0.75, c=0.8)
        index_spec = BatchIndexSpec(
            d=24, scheme="datadep", n_tables=10, bits_per_table=9, seed=13
        )
        return P, Q, spec, index_spec

    def test_index_spec_equals_prebuilt_index(self, workload):
        P, Q, spec, index_spec = workload
        serial = lsh(P, Q, spec, index_spec=index_spec, n_workers=1)
        via_join = lsh(P, Q, spec, index=index_spec.build(P))
        assert serial.matched_count > 0
        assert serial.matches == via_join.matches
        assert serial.inner_products_evaluated == via_join.inner_products_evaluated
        assert serial.candidates_generated == via_join.candidates_generated

    def test_four_workers_identical_to_serial(self, workload):
        P, Q, spec, index_spec = workload
        serial = lsh(P, Q, spec, index_spec=index_spec, n_workers=1)
        parallel = lsh(P, Q, spec, index_spec=index_spec, n_workers=4)
        assert serial.matched_count > 0
        assert serial.matches == parallel.matches
        assert serial.inner_products_evaluated == parallel.inner_products_evaluated
        assert serial.candidates_generated == parallel.candidates_generated

    def test_multiprobe_parallel_identical(self, workload):
        P, Q, spec, index_spec = workload
        serial = lsh(P, Q, spec, index_spec=index_spec, n_workers=1, n_probes=2)
        parallel = lsh(
            P, Q, spec, index_spec=index_spec, n_workers=2, n_probes=2
        )
        assert serial.matched_count > 0
        assert serial.matches == parallel.matches
        # Multiprobe inspects strictly more candidates than exact-only.
        exact_only = lsh(P, Q, spec, index_spec=index_spec, n_workers=1)
        assert serial.candidates_generated >= exact_only.candidates_generated

    def test_prebuilt_index_shipped_to_workers(self, workload):
        P, Q, spec, index_spec = workload
        index = index_spec.build(P)
        parallel = lsh(P, Q, spec, index=index, n_workers=2)
        serial = lsh(P, Q, spec, index_spec=index_spec, n_workers=1)
        assert serial.matched_count > 0
        assert parallel.matches == serial.matches

    def test_block_alignment_worker_count_invariance(self, workload):
        """Different worker counts shard at different boundaries but the
        block alignment keeps every GEMM identical."""
        P, Q, spec, index_spec = workload
        results = [
            lsh(P, Q, spec, index_spec=index_spec, n_workers=w, block=64)
            for w in (1, 2, 3)
        ]
        assert results[0].matched_count > 0
        assert results[0].matches == results[1].matches == results[2].matches

    def test_spec_validation(self):
        with pytest.raises(ParameterError, match="scheme"):
            BatchIndexSpec(d=8, scheme="nope")
        with pytest.raises(ParameterError, match="seed"):
            BatchIndexSpec(d=8, seed=None)


class TestSelfJoinBlockedPath:
    def test_blocked_lsh_self_join_matches_per_query(self):
        P = random_unit(400, 16, seed=3) * 0.9
        spec = JoinSpec(s=0.7, c=0.7)
        idx = BatchSignIndex.for_symmetric(
            16, n_tables=12, bits_per_table=6, seed=4
        ).build(P)
        blocked = lsh(P, None, spec, index=idx, block=64)
        assert blocked.matched_count > 0
        # Per-query reference: candidates + verify one row at a time.
        for qi in [0, 17, 399]:
            cands = idx.candidates(P[qi])
            cands = cands[cands != qi]
            if cands.size == 0:
                assert blocked.matches[qi] is None
                continue
            values = P[cands] @ P[qi]
            best = int(np.argmax(values))
            expected = int(cands[best]) if values[best] >= spec.cs else None
            assert blocked.matches[qi] == expected
