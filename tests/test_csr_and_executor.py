"""Path-equivalence tests for the CSR tables, blocked verify, and executor.

The fast paths must be *refactorings*, not new algorithms: same seed ⇒
identical candidate sets and identical join matches across a naive
per-(query, table) bucket dict, the fused CSR ``LSHIndex`` (dense and
binary-search lookups), and the process-parallel executor at any worker
count.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro import engine
from repro.core import (
    JoinSpec,
    QueryStats,
    verify_block,
    verify_candidates,
)
from repro.datasets import planted_mips, random_unit
from repro.errors import ParameterError
from repro.lsh import (
    AsymmetricLSHFamily,
    BatchHashTables,
    CandidateBlock,
    CSRBucketTable,
    CrossPolytopeLSH,
    DataDepALSH,
    HyperplaneLSH,
    LSHIndex,
    SymmetricIPSHash,
)
from repro.lsh import index as index_module
from repro.lsh.base import MISS_KEY
from tests.test_batch_hashing import FAMILIES, PerRow, _family_and_data

#: The two lookup paths of the fused table: dense offsets, binary search.
LOOKUP_LIMITS = (index_module.DENSE_LOOKUP_MAX, 0)

STAT_FIELDS = ("queries", "candidates", "unique_candidates",
               "probe_candidates", "probed_buckets")

#: Families whose hashers are sign projections, hence multiprobe.
SIGN_FAMILIES = ("hyperplane", "simple_alsh", "sign_alsh", "symmetric")


def lsh(P, Q, spec, **options):
    return engine.join(P, Q, spec, backend="lsh", **options)


@pytest.fixture(scope="module")
def instance():
    return planted_mips(800, 24, 32, s=0.85, c=0.4, seed=0)


def _index(instance, n_tables=10, bits=8, seed=3):
    """A DataDep (hyperplane sphere) index over the planted data."""
    return LSHIndex(
        DataDepALSH(32, sphere="hyperplane"),
        n_tables=n_tables, hashes_per_table=bits, seed=seed,
    ).build(instance.P)


def _flip_order(hasher, q, t):
    """Bits of table ``t`` by ascending ``|projection margin|`` of ``q``."""
    margins = hasher._projections @ hasher._transform_row(q, "query")
    k = hasher.hashes_per_table
    return np.argsort(np.abs(margins[t * k:(t + 1) * k]), kind="stable")


def _naive_candidates(family, P, Q, n_probes, n_tables=4, k=3, seed=99):
    """Reference lists and stats from a per-(query, table) bucket dict.

    Keys come from the scalar ``hash_rows`` path of an identically
    seeded hasher; multiprobe flips the bit of component ``j`` of a
    sign key (Horner order: component 0 is the highest of ``k`` bits)
    for the ``n_probes`` smallest margins.
    """
    hasher = family.sample_batch(np.random.default_rng(seed), k, n_tables)
    buckets = defaultdict(list)
    for i, row in enumerate(hasher.hash_rows(P, side="data")):
        for t, key in enumerate(row):
            buckets[t, int(key)].append(i)
    stats = QueryStats()
    lists = []
    for qi, row in enumerate(hasher.hash_rows(Q, side="query")):
        hits, probe_hits, probed = [], 0, 0
        for t, key in enumerate(row):
            hits += buckets.get((t, int(key)), [])
            flips = _flip_order(hasher, Q[qi], t)[:n_probes] if n_probes else ()
            for bit in flips:
                bucket = buckets.get((t, int(key) ^ (1 << (k - 1 - int(bit)))), [])
                hits += bucket
                probe_hits += len(bucket)
                probed += bool(bucket)
        lists.append(np.unique(np.asarray(hits, dtype=np.int64)))
        stats.record(len(hits), lists[-1].size, probe_hits, probed)
    return lists, stats


class _FixedKeys(BatchHashTables):
    """A hasher handing out preset data and query keys."""

    def __init__(self, data_keys, query_keys):
        super().__init__(data_keys.shape[1], 1)
        self._keys = {"data": data_keys, "query": query_keys}

    def hash_matrix(self, X, side="data"):
        return self._keys[side]

    hash_rows = hash_matrix


class _FixedFamily(AsymmetricLSHFamily):
    def __init__(self, hasher):
        self.hasher = hasher

    def sample(self, rng):
        raise NotImplementedError

    def sample_batch(self, rng, hashes_per_table, n_tables):
        return self.hasher


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
    @pytest.mark.parametrize("n_probes", [0, 1, 2])
    def test_dict_and_csr_identical(self, n_probes, monkeypatch):
        """Every native family, both lookup paths: the fused index gives
        the naive bucket dict's candidate lists and QueryStats exactly
        (multiprobe on the sign-projection families)."""
        rng = np.random.default_rng(1234)
        for name in FAMILIES:
            family, (P, Q) = _family_and_data(name, rng)
            if n_probes and name not in SIGN_FAMILIES:
                continue
            want, want_stats = _naive_candidates(family, P, Q, n_probes)
            for limit in LOOKUP_LIMITS:
                monkeypatch.setattr(index_module, "DENSE_LOOKUP_MAX", limit)
                index = LSHIndex(family, n_tables=4, hashes_per_table=3, seed=99)
                index.build(P)
                assert index.uses_batch_hashing, name
                assert (index._dense is not None) == (limit > 0), name
                got = index.candidates_batch(Q, n_probes=n_probes)
                assert len(got) == len(want) == Q.shape[0]
                assert any(c.size for c in got), name
                for a, b in zip(want, got):
                    np.testing.assert_array_equal(a, b, err_msg=name)
                for field in STAT_FIELDS:
                    assert getattr(index.stats, field) == \
                        getattr(want_stats, field), (name, field)

    def test_miss_key_never_aliases_previous_table(self, monkeypatch):
        """Query keys outside a table's data range, MISS_KEY included,
        name empty buckets, never the edge bucket of a neighbouring
        table (t * bound - 1 or (t + 1) * bound)."""
        data = np.array([[0, 0], [1, 1]], dtype=np.int64)
        query = np.array(
            [[MISS_KEY, MISS_KEY], [5, MISS_KEY], [2, MISS_KEY], [1, 0]],
            dtype=np.int64,
        )
        for limit in LOOKUP_LIMITS:
            monkeypatch.setattr(index_module, "DENSE_LOOKUP_MAX", limit)
            index = LSHIndex(
                _FixedFamily(_FixedKeys(data, query)),
                n_tables=2, hashes_per_table=1,
            ).build(np.zeros((2, 3)))
            got = index.candidates_batch(np.zeros((4, 3)))
            assert [c.tolist() for c in got] == [[], [], [], [0, 1]]
            assert index.stats.candidates == 2

    def test_generic_index_matches_batch_index(self, instance):
        """Same seed ⇒ same hash stream: the generic per-row closure path
        and the native batch hasher bucket identically."""
        family = DataDepALSH(32, sphere="hyperplane")
        generic, batch = (
            LSHIndex(fam, n_tables=6, hashes_per_table=8, seed=11).build(instance.P)
            for fam in (PerRow(family), family)
        )
        assert not generic.uses_batch_hashing and batch.uses_batch_hashing
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
        idx = _index(instance)
        for cands in idx.candidates_batch(instance.Q, n_probes=2):
            if cands.size > 1:
                assert (np.diff(cands) > 0).all()

    def test_empty_query_matrix(self, instance):
        assert len(_index(instance).candidates_batch(np.empty((0, 32)))) == 0

    def test_empty_bucket_query(self, monkeypatch):
        rng = np.random.default_rng(7)
        P = rng.normal(size=(40, 6))
        far = -P.mean(axis=0) * 100
        for limit in LOOKUP_LIMITS:
            monkeypatch.setattr(index_module, "DENSE_LOOKUP_MAX", limit)
            idx = LSHIndex(
                HyperplaneLSH(6), n_tables=1, hashes_per_table=20, seed=0
            ).build(P)
            cands = idx.candidates(far)
            assert cands.size == 0 and cands.dtype == np.int64


class TestQueryStats:
    def test_reset(self, instance):
        idx = _index(instance)
        idx.candidates_batch(instance.Q, n_probes=1)
        assert idx.stats.queries > 0
        idx.stats.reset()
        assert idx.stats.queries == 0
        assert idx.stats.candidates == 0
        assert idx.stats.probe_candidates == 0

    def test_join_reports_delta_not_cumulative(self, instance):
        """A reused index must not inflate candidates_generated (the
        QueryStats-pollution regression)."""
        idx = _index(instance)
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
        idx = _index(instance)
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
        assert any(m is not None for m in matches)
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
        result = verify_block(P, Q, CandidateBlock.from_lists(cand_lists))
        naive = self._naive(P, Q, cand_lists, -np.inf, True)
        assert result.best_index.tolist() == naive
        matches, _ = verify_candidates(P, Q, cand_lists, threshold=1.0,
                                       block=64)
        assert any(m is not None for m in matches)
        assert matches == self._naive(P, Q, cand_lists, 1.0, True)

    def test_all_empty(self):
        P = np.eye(4)
        Q = np.eye(4)
        result = verify_block(
            P, Q, CandidateBlock.from_lists([np.empty(0, dtype=np.int64)] * 4)
        )
        assert (result.best_index == -1).all()
        assert result.n_evaluated == 0


class TestExecutor:
    @pytest.fixture(scope="class")
    def workload(self):
        P = random_unit(2000, 24, seed=0) * 0.95
        Q = random_unit(300, 24, seed=1) * 0.95
        spec = JoinSpec(s=0.75, c=0.8)
        recipe = dict(
            family=DataDepALSH(24, sphere="hyperplane"),
            n_tables=10, hashes_per_table=9, seed=13,
        )
        return P, Q, spec, recipe

    @staticmethod
    def _build(P, recipe):
        family = recipe["family"]
        shape = {k: v for k, v in recipe.items() if k != "family"}
        return LSHIndex(family, **shape).build(P)

    def test_family_equals_prebuilt_index(self, workload):
        P, Q, spec, recipe = workload
        serial = lsh(P, Q, spec, **recipe, n_workers=1)
        via_join = lsh(P, Q, spec, index=self._build(P, recipe))
        assert serial.matched_count > 0
        assert serial.matches == via_join.matches
        assert serial.inner_products_evaluated == via_join.inner_products_evaluated
        assert serial.candidates_generated == via_join.candidates_generated

    def test_four_workers_identical_to_serial(self, workload):
        P, Q, spec, recipe = workload
        serial = lsh(P, Q, spec, **recipe, n_workers=1)
        parallel = lsh(P, Q, spec, **recipe, n_workers=4)
        assert serial.matched_count > 0
        assert serial.matches == parallel.matches
        assert serial.inner_products_evaluated == parallel.inner_products_evaluated
        assert serial.candidates_generated == parallel.candidates_generated

    def test_multiprobe_parallel_identical(self, workload):
        P, Q, spec, recipe = workload
        serial = lsh(P, Q, spec, **recipe, n_workers=1, n_probes=2)
        parallel = lsh(P, Q, spec, **recipe, n_workers=2, n_probes=2)
        assert serial.matched_count > 0
        assert serial.matches == parallel.matches
        # Multiprobe inspects strictly more candidates than exact-only.
        exact_only = lsh(P, Q, spec, **recipe, n_workers=1)
        assert serial.candidates_generated >= exact_only.candidates_generated

    def test_prebuilt_index_shipped_to_workers(self, workload):
        P, Q, spec, recipe = workload
        parallel = lsh(P, Q, spec, index=self._build(P, recipe), n_workers=2)
        serial = lsh(P, Q, spec, **recipe, n_workers=1)
        assert serial.matched_count > 0
        assert parallel.matches == serial.matches

    def test_block_alignment_worker_count_invariance(self, workload):
        """Different worker counts shard at different boundaries but the
        block alignment keeps every GEMM identical."""
        P, Q, spec, recipe = workload
        results = [
            lsh(P, Q, spec, **recipe, n_workers=w, block=64)
            for w in (1, 2, 3)
        ]
        assert results[0].matched_count > 0
        assert results[0].matches == results[1].matches == results[2].matches

    def test_spec_validation(self, workload):
        P, Q, spec, recipe = workload
        with pytest.raises(ParameterError, match="unknown lsh options"):
            lsh(P, Q, spec, **recipe, layout="csr")
        with pytest.raises(ParameterError, match="n_probes"):
            lsh(P, Q, spec, family=CrossPolytopeLSH(24), n_probes=1)


class TestSelfJoinBlockedPath:
    def test_blocked_lsh_self_join_matches_per_query(self):
        P = random_unit(400, 16, seed=3) * 0.9
        spec = JoinSpec(s=0.7, c=0.7)
        idx = LSHIndex(
            SymmetricIPSHash(16), n_tables=12, hashes_per_table=6, seed=4
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
