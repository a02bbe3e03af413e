"""Multi-table LSH index: the OR construction as a data structure.

``LSHIndex`` samples ``n_tables`` independent AND-compositions of a base
family, buckets every data vector per table with ``hash_data``, and at
query time unions the buckets matching ``hash_query``.  This is the
standard LSH search/join engine: with amplified probabilities ``(P1^k,
P2^k)`` the expected number of false candidates per query is
``n_tables * n * P2^k`` while a true neighbor is retrieved with
probability ``1 - (1 - P1^k)^{n_tables}``.

Hashing goes through the batch hashing protocol (:mod:`repro.lsh.base`):
when the family implements ``sample_batch``, hashing a whole matrix is a
few vectorized kernels; otherwise the generic per-row wrapper
(:class:`repro.lsh.batch_hash.GenericHashTables`) calls the sampled
closures one row at a time — same variates, same buckets, just slower.

Buckets live in CSR form (:mod:`repro.lsh.csr`), and all tables fuse
into ONE physical table keyed by ``t * bound + key``, where ``bound`` is
one past the largest data key of any table.  When that fused key space
is small (:data:`DENSE_LOOKUP_MAX`) a dense offset array addresses every
bucket directly; beyond it lookups binary-search the sorted keys — same
results.  Candidate generation for a whole query block is therefore one
``hash_matrix`` call, one lookup and one ragged gather over every
(query, table) pair at once, and one sort-based dedup.  Sign-projection
hashers also offer query-directed multiprobe (``n_probes`` extra
buckets per table, each one bit flip away), looked up in the same call.
Candidate sets come out **sorted**, making query results and downstream
argmax tie-breaks reproducible run to run.

The index records per-query candidate counts, the quantity the paper's
subquadratic claims are really about (candidate verification dominates the
work of an LSH join).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

# QueryStats is defined with the problem records so every backend (LSH
# or not) shares one stats type and one merge(); re-exported here for
# backwards compatibility.
from repro.core.problems import QueryStats
from repro.errors import ParameterError, ValidationError
from repro.lsh.base import AsymmetricLSHFamily
from repro.lsh.batch_hash import MAX_PACKED_KEY, GenericHashTables
from repro.lsh.csr import CandidateBlock, CSRBucketTable, sorted_unique
from repro.obs.metrics import current_metrics
from repro.obs.trace import span
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_matrix

#: Largest fused key space (``n_tables * bound``) for which the index
#: keeps a dense offset array (direct addressing, one gather per lookup)
#: next to the sorted key column.
DENSE_LOOKUP_MAX = 1 << 22


def block_candidates(index, Q_block, n_probes: int = 0) -> CandidateBlock:
    """The candidate block of a query block: one ``candidates_batch`` call.

    The join kernels' one entry into an index, kept as a named function
    so the candidate-generation layer can be timed on its own.
    """
    return index.candidates_batch(Q_block, n_probes=n_probes)


class LSHIndex:
    """Bucketed multi-table index over a data matrix.

    Args:
        family: base (A)LSH family; AND-amplified internally.
        n_tables: OR width ``L``.
        hashes_per_table: AND width ``k``.
        seed: reproducibility seed for the sampled hash functions.

    Hashing uses the family's native ``sample_batch`` hasher when it has
    one and the generic per-row closure path otherwise; both consume the
    seed's variates in the same order, so they build identical buckets.
    """

    def __init__(
        self,
        family: AsymmetricLSHFamily,
        n_tables: int = 8,
        hashes_per_table: int = 4,
        seed: SeedLike = None,
    ):
        if n_tables < 1:
            raise ParameterError(f"n_tables must be >= 1, got {n_tables}")
        if hashes_per_table < 1:
            raise ParameterError(f"hashes_per_table must be >= 1, got {hashes_per_table}")
        self.family = family
        self.n_tables = int(n_tables)
        self.hashes_per_table = int(hashes_per_table)
        rng = ensure_rng(seed)
        hasher = family.sample_batch(rng, self.hashes_per_table, self.n_tables)
        if hasher is None:
            hasher = GenericHashTables(family, rng, self.hashes_per_table, self.n_tables)
        self._hasher = hasher
        #: All tables fused into one CSR table keyed by ``t * bound + key``.
        self._table: Optional[CSRBucketTable] = None
        #: One past the largest data key of any table.
        self._bound = 0
        #: ``t * bound`` per table, shape ``(n_tables, 1)``.
        self._offsets: Optional[np.ndarray] = None
        #: Dense ``(n_tables * bound + 2,)`` offsets into the fused
        #: table's ``indices``: bucket ``f`` is ``dense[f]:dense[f + 1]``,
        #: and the sentinel key ``n_tables * bound`` is an empty slice.
        #: None means binary-search lookups.
        self._dense: Optional[np.ndarray] = None
        self._data: Optional[np.ndarray] = None
        self.stats = QueryStats()

    @property
    def is_built(self) -> bool:
        return self._table is not None

    @property
    def uses_batch_hashing(self) -> bool:
        """True when hashing runs through a family-native vectorized path."""
        return self._hasher.is_native

    @property
    def n(self) -> int:
        if self._data is None:
            raise ParameterError("index not built yet")
        return self._data.shape[0]

    def build(self, P) -> "LSHIndex":
        """Hash every row of ``P`` into every table.

        One ``hash_matrix`` call (blocked for the sign families) gives
        the ``(n, n_tables)`` keys, and :meth:`CSRBucketTable.from_keys
        <repro.lsh.csr.CSRBucketTable.from_keys>` sorts each table once
        into the fused table.  The dense offsets, where the fused key
        space allows them, are the running sum of the bucket sizes.
        """
        P = check_matrix(P, "P")
        with span("hash", side="data", n_rows=P.shape[0]):
            keys = self._hasher.hash_matrix(P, side="data")
        bound = int(keys.max()) + 1
        if keys.min() < 0 or bound > MAX_PACKED_KEY // self.n_tables:
            raise ValidationError(
                f"data keys must lie in [0, 2**62 / n_tables), got "
                f"[{int(keys.min())}, {bound - 1}]"
            )
        self._bound = bound
        self._offsets = (np.arange(self.n_tables, dtype=np.int64) * bound)[:, None]
        table = CSRBucketTable.from_keys(keys.T)
        sizes = np.diff(table.offsets)
        space = self.n_tables * bound
        self._dense = None
        if space <= DENSE_LOOKUP_MAX:
            dense = np.zeros(space + 2, dtype=np.int64)
            dense[table.keys + 1] = sizes
            self._dense = np.cumsum(dense, out=dense)
        metrics = current_metrics()
        if metrics.enabled:
            metrics.histogram("lsh.bucket_occupancy").observe_array(sizes)
        self._table = table
        self._data = P
        return self

    def _lookup(self, keys: np.ndarray):
        """Slice bounds in the fused table for ``(n, n_tables, s)`` query keys.

        A key outside ``[0, bound)`` — :data:`~repro.lsh.base.MISS_KEY`
        included — names no data bucket, so it maps to the sentinel
        ``n_tables * bound`` instead of a neighbouring table's range.
        """
        # As unsigned, a negative key compares above every bound.
        fused = np.where(
            keys.view(np.uint64) < self._bound,
            keys + self._offsets,
            self.n_tables * self._bound,
        )
        if self._dense is not None:
            return self._dense[fused], self._dense[fused + 1]
        return self._table.lookup(fused)

    def candidates(self, q, n_probes: int = 0) -> np.ndarray:
        """Union of bucket contents over all tables, **sorted** ascending.

        Sorted output makes the candidate order (and any downstream
        argmax tie-break) deterministic, unlike a set-iteration order.
        """
        q = np.asarray(q, dtype=np.float64)
        return self.candidates_batch(q.reshape(1, -1), n_probes=n_probes)[0]

    def candidates_batch(self, Q, n_probes: int = 0) -> CandidateBlock:
        """The :class:`~repro.lsh.csr.CandidateBlock` of the rows of ``Q``.

        One ``hash_matrix`` call per block, then one lookup and one
        ragged gather over every (query, table) bucket and one fused
        sort-based dedup, whose output is already the block's flat,
        per-query sorted layout.  ``n_probes`` extra buckets per table
        are probed with the query-directed single-bit-flip heuristic
        (sign-projection families only, up to ``hashes_per_table``);
        ``0`` queries only the exact bucket.  An empty query matrix (0
        rows) returns an empty block.
        """
        if self._table is None:
            raise ParameterError("index not built yet; call build() first")
        # Only sign-projection hashers name a neighbouring bucket by
        # flipping a key bit; every other family takes n_probes=0.
        limit = getattr(self._hasher, "max_probes", 0) if n_probes else 0
        if not 0 <= n_probes <= limit:
            raise ParameterError(
                f"n_probes must be in [0, {limit}] for an index over "
                f"{type(self.family).__name__} with "
                f"hashes_per_table={self.hashes_per_table}, got {n_probes}"
            )
        Q = check_matrix(Q, "Q", allow_empty=True)
        n_queries = Q.shape[0]
        if n_queries == 0:
            return CandidateBlock(np.zeros(1, dtype=np.int64),
                                  np.empty(0, dtype=np.int64))
        if Q.shape[1] != self._data.shape[1]:
            raise ParameterError(
                f"queries must have dimension {self._data.shape[1]}, "
                f"got {Q.shape[1]}"
            )
        with span("hash", side="query", n_rows=n_queries):
            if n_probes:
                keys = self._hasher.probe_keys(Q, n_probes)
            else:
                keys = self._hasher.hash_matrix(Q, side="query")[:, :, None]
        starts, ends = self._lookup(keys)
        rows, lengths = self._table.gather(starts, ends)
        query_ids = np.repeat(
            np.arange(n_queries, dtype=np.int64),
            lengths.reshape(n_queries, -1).sum(axis=1),
        )
        # Fuse (query, row) into one key with a power-of-two stride, so
        # fuse/split are shifts and masks; one sorted dedup then leaves
        # the pairs grouped by query with rows ascending.
        shift = np.int64(max(1, int(self.n - 1).bit_length()))
        fused = sorted_unique((query_ids << shift) | rows)
        indptr = np.searchsorted(
            fused, np.arange(n_queries + 1, dtype=np.int64) << shift
        )
        block = CandidateBlock(indptr.astype(np.int64),
                               fused & ((np.int64(1) << shift) - 1))
        probe_hits = probed = 0
        if n_probes:
            probes = lengths.reshape(keys.shape)[:, :, 1:]
            probe_hits, probed = int(probes.sum()), int(np.count_nonzero(probes))
        self.stats.record_batch(
            n_queries, rows.size, fused.size, probe_hits, probed
        )
        return block
