"""Vectorized multi-table index for sign-projection hash families.

The generic :class:`repro.lsh.index.LSHIndex` calls one Python hash
function per (vector, table, bit) — flexible but slow.  Every
hyperplane-based scheme in this package (SIMPLE-LSH, DATA-DEP, Sign-ALSH,
the symmetric Section 4.2 hash) is "signs of Gaussian projections of a
transformed vector", which vectorizes completely: one matrix product per
side computes all ``L x k`` bits of all vectors at once, and each table's
``k`` bits pack into one integer key.

Concretely, with ``A`` an ``(L k, D)`` Gaussian matrix and ``f, g`` the
data/query transforms:

    bits(data)  = sign(f(P) A^T),   bits(query) = sign(g(Q) A^T)

Buckets live in CSR form (:mod:`repro.lsh.csr`) by default: all ``L``
tables fuse into ONE physical table keyed by ``table_id << k | key``
(sorted key column plus offset/indices arrays), so candidate generation
for an entire query block is a single ``np.searchsorted`` of all query
keys against every table at once followed by one vectorized ragged
gather — no Python loop per query or per table.  Multiprobe keys
(query-directed single-bit flips) are generated as one extra
``(n_queries, L, n_probes)`` key batch and looked up the same way.  The
historical dict-of-lists layout is kept behind ``layout="dict"`` as the
reference implementation the CSR path is benchmarked and
equivalence-tested against.

This is 100-1000x faster than the per-vector path at index scale and is
what the crossover benches use for wall-clock comparisons.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, List, Optional

import numpy as np

from repro.embeddings.incoherent_map import SymmetricSphereCompletion
from repro.embeddings.mips_reductions import (
    NeyshaburSrebroTransform,
    SimpleLSHTransform,
)
from repro.errors import ParameterError
from repro.core.problems import QueryStats
from repro.lsh.csr import CSRBucketTable, merge_candidates_per_query
from repro.obs.metrics import current_metrics
from repro.obs.trace import span
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import check_matrix

MatrixTransform = Callable[[np.ndarray], np.ndarray]

#: Supported bucket storage layouts.
LAYOUTS = ("csr", "dict")

#: Largest fused key space (``n_tables * 2**bits_per_table``) for which
#: the csr layout materializes dense start/end offset arrays (direct
#: addressing, one gather per lookup) next to the sorted key column.
#: Beyond it lookups binary-search the keys instead — same results.
DENSE_LOOKUP_MAX = 1 << 22


def _identity(X: np.ndarray) -> np.ndarray:
    return np.asarray(X, dtype=np.float64)


class BatchSignIndex:
    """Multi-table sign-projection index with fully vectorized hashing.

    Args:
        dim: dimension of the *transformed* vectors.
        data_transform / query_transform: matrix-level maps applied to the
            raw data/query matrices before projection (identity for plain
            hyperplane LSH).
        n_tables: OR width ``L``.
        bits_per_table: AND width ``k`` (packed into one ``int64`` key, so
            ``k <= 62``).
        seed: projection seed.
        layout: bucket storage, ``"csr"`` (default, array-native batch
            lookups) or ``"dict"`` (the reference dict-of-lists path).
            Both produce identical candidate sets for identical seeds.
    """

    def __init__(
        self,
        dim: int,
        data_transform: MatrixTransform = _identity,
        query_transform: MatrixTransform = _identity,
        n_tables: int = 16,
        bits_per_table: int = 12,
        seed: SeedLike = None,
        layout: str = "csr",
    ):
        if dim < 1:
            raise ParameterError(f"dim must be >= 1, got {dim}")
        if n_tables < 1:
            raise ParameterError(f"n_tables must be >= 1, got {n_tables}")
        if not 1 <= bits_per_table <= 62:
            raise ParameterError(
                f"bits_per_table must be in [1, 62], got {bits_per_table}"
            )
        if layout not in LAYOUTS:
            raise ParameterError(f"layout must be one of {LAYOUTS}, got {layout!r}")
        if layout == "csr" and (n_tables << bits_per_table) > 2 ** 62:
            raise ParameterError(
                "csr layout fuses table ids into the int64 bucket key and "
                f"needs n_tables * 2**bits_per_table <= 2**62; got "
                f"{n_tables} * 2**{bits_per_table}.  Use layout='dict'."
            )
        self.dim = int(dim)
        self.n_tables = int(n_tables)
        self.bits_per_table = int(bits_per_table)
        self.data_transform = data_transform
        self.query_transform = query_transform
        self.layout = layout
        rng = ensure_rng(seed)
        self._projections = rng.normal(
            size=(self.n_tables * self.bits_per_table, self.dim)
        )
        self._weights = (1 << np.arange(self.bits_per_table, dtype=np.int64))
        #: csr: one fused key per (table, bucket) — table id in the high bits.
        self._table_offsets = (
            np.arange(self.n_tables, dtype=np.int64) << self.bits_per_table
        )
        #: csr: single fused CSRBucketTable; dict: list of per-table dicts.
        self._tables = None
        #: csr only: dense (starts, ends) offset arrays indexed by fused
        #: key, built when the key space is small enough (see
        #: :data:`DENSE_LOOKUP_MAX`); None means binary-search lookups.
        self._dense: Optional[tuple] = None
        self._data: Optional[np.ndarray] = None
        #: Same work accounting as :class:`repro.lsh.index.LSHIndex`, so a
        #: batch index slots into the ``lsh`` backend's chunk kernels.
        self.stats = QueryStats()

    def _projections_of(self, transformed: np.ndarray) -> np.ndarray:
        """Raw projection values; shape (n, L, k)."""
        transformed = check_matrix(transformed, "transformed", allow_empty=True)
        if transformed.shape[1] != self.dim:
            raise ParameterError(
                f"transformed vectors must have dimension {self.dim}, "
                f"got {transformed.shape[1]}"
            )
        values = transformed @ self._projections.T  # (n, L*k)
        return values.reshape(
            transformed.shape[0], self.n_tables, self.bits_per_table
        )

    def _keys(self, transformed: np.ndarray) -> np.ndarray:
        """Per-table integer keys for every row; shape (n, L)."""
        return self._pack(self._projections_of(transformed), self._weights)

    @staticmethod
    def _pack(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        bits = values >= 0.0
        if weights.size <= 52:
            # One BLAS matvec; exact while keys stay below 2**53.
            flat = bits.reshape(-1, weights.size).astype(np.float64)
            packed = flat @ weights.astype(np.float64)
            return packed.astype(np.int64).reshape(values.shape[:-1])
        return (bits.astype(np.int64) * weights).sum(axis=2)

    def _probe_key_batch(self, keys: np.ndarray, values: np.ndarray, n_probes: int) -> np.ndarray:
        """Query-directed multiprobe keys for a whole block; (n, L, n_probes).

        A sign bit whose projection value sits near 0 is the one a
        near-duplicate vector is most likely to disagree on (Lv et al.'s
        multiprobe heuristic), so the ``n_probes`` lowest-|margin| bits
        of every (query, table) are flipped — one argsort over the block
        instead of a nested Python generator loop.
        """
        order = np.argsort(np.abs(values), axis=2, kind="stable")[:, :, :n_probes]
        return keys[:, :, None] ^ (np.int64(1) << order.astype(np.int64))

    def build(self, P) -> "BatchSignIndex":
        P = check_matrix(P, "P")
        with span("hash", side="data", n_rows=P.shape[0]):
            keys = self._keys(self.data_transform(P))
        if self.layout == "csr":
            # Table-major flat layout: keys grouped by table, row ids
            # ascending inside each table, so the stable bucket sort
            # leaves every (table, key) bucket's contents ascending.
            fused = (keys + self._table_offsets[None, :]).T.ravel()
            rows = np.tile(np.arange(P.shape[0], dtype=np.int64), self.n_tables)
            table = CSRBucketTable.from_keys(fused, rows=rows)
            self._tables = table
            metrics = current_metrics()
            if metrics.enabled:
                metrics.histogram("lsh.bucket_occupancy").observe_array(
                    np.diff(table.offsets)
                )
            space = self.n_tables << self.bits_per_table
            if space <= DENSE_LOOKUP_MAX:
                starts = np.zeros(space, dtype=np.int64)
                ends = np.zeros(space, dtype=np.int64)
                starts[table.keys] = table.offsets[:-1]
                ends[table.keys] = table.offsets[1:]
                self._dense = (starts, ends)
            else:
                self._dense = None
        else:
            tables = []
            for t in range(self.n_tables):
                buckets = defaultdict(list)
                for i, key in enumerate(keys[:, t]):
                    buckets[int(key)].append(i)
                tables.append(
                    {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}
                )
            self._tables = tables
        self._data = P
        return self

    @property
    def is_built(self) -> bool:
        return self._tables is not None

    def candidates_batch(self, Q, n_probes: int = 0) -> List[np.ndarray]:
        """Deduplicated, sorted candidate indices for every query row.

        ``n_probes`` extra buckets per table are probed using the
        query-directed single-bit-flip heuristic; ``0`` queries only the
        exact bucket.  An empty query matrix (0 rows) returns ``[]``.
        """
        if self._tables is None:
            raise ParameterError("index not built yet; call build() first")
        if n_probes < 0 or n_probes > self.bits_per_table:
            raise ParameterError(
                f"n_probes must be in [0, bits_per_table={self.bits_per_table}], "
                f"got {n_probes}"
            )
        Q = check_matrix(Q, "Q", allow_empty=True)
        if Q.shape[0] == 0:
            return []
        with span("hash", side="query", n_rows=Q.shape[0]):
            values = self._projections_of(self.query_transform(Q))  # (n, L, k)
            keys = self._pack(values, self._weights)
        if self.layout == "csr":
            return self._candidates_batch_csr(keys, values, n_probes)
        return self._candidates_batch_dict(keys, values, n_probes)

    def _lookup(self, fused_keys: np.ndarray):
        """Slice bounds per fused key: direct-addressed when possible."""
        if self._dense is not None:
            starts, ends = self._dense
            return starts[fused_keys], ends[fused_keys]
        return self._tables.lookup(fused_keys)

    def _candidates_batch_csr(
        self, keys: np.ndarray, values: np.ndarray, n_probes: int
    ) -> List[np.ndarray]:
        """One lookup + one ragged gather over the fused table."""
        nq = keys.shape[0]
        n = self._data.shape[0]
        qid = np.arange(nq, dtype=np.int64)
        # (nq, L) fused keys: every query against every table at once.
        starts, ends = self._lookup(keys + self._table_offsets[None, :])
        rows, lengths = self._tables.gather(starts, ends)
        qids = np.repeat(qid, lengths.reshape(nq, self.n_tables).sum(axis=1))
        exact_total = int(lengths.sum())
        probe_total = 0
        probed = 0
        if n_probes:
            probe_keys = (
                self._probe_key_batch(keys, values, n_probes)
                + self._table_offsets[None, :, None]
            )
            pstarts, pends = self._lookup(probe_keys)
            prows, plengths = self._tables.gather(pstarts, pends)
            pqids = np.repeat(
                qid, plengths.reshape(nq, self.n_tables * n_probes).sum(axis=1)
            )
            probe_total = int(plengths.sum())
            probed = int(np.count_nonzero(plengths))
            rows = np.concatenate([rows, prows])
            qids = np.concatenate([qids, pqids])
        merged = merge_candidates_per_query(qids, rows, nq, n)
        self.stats.record_batch(
            nq,
            exact_total + probe_total,
            int(sum(m.size for m in merged)),
            probe_total,
            probed,
        )
        return merged

    def _candidates_batch_dict(
        self, keys: np.ndarray, values: np.ndarray, n_probes: int
    ) -> List[np.ndarray]:
        """Reference dict-of-lists path (one Python loop per query, table)."""
        out = []
        empty = np.empty(0, dtype=np.int64)
        for qi in range(keys.shape[0]):
            buckets = []
            probe_hits = 0
            probed = 0
            for t in range(self.n_tables):
                key = int(keys[qi, t])
                bucket = self._tables[t].get(key)
                if bucket is not None:
                    buckets.append(bucket)
                if n_probes:
                    margins = values[qi, t]
                    order = np.argsort(np.abs(margins), kind="stable")
                    for bit in order[:n_probes]:
                        bucket = self._tables[t].get(key ^ (1 << int(bit)))
                        if bucket is not None:
                            buckets.append(bucket)
                            probe_hits += bucket.size
                            probed += 1
            if not buckets:
                self.stats.record(0, 0)
                out.append(empty)
            else:
                merged = np.unique(np.concatenate(buckets))
                self.stats.record(
                    sum(b.size for b in buckets), merged.size, probe_hits, probed
                )
                out.append(merged)
        return out

    def candidates(self, q, n_probes: int = 0) -> np.ndarray:
        """Candidates for a single query vector."""
        return self.candidates_batch(
            np.asarray(q, dtype=np.float64)[None, :], n_probes=n_probes
        )[0]

    def query(self, q, threshold: float, signed: bool = True) -> Optional[int]:
        """Best verified candidate above ``threshold``, or None."""
        idx = self.candidates(q)
        if idx.size == 0:
            return None
        values = self._data[idx] @ np.asarray(q, dtype=np.float64)
        if not signed:
            values = np.abs(values)
        best = int(np.argmax(values))
        return int(idx[best]) if values[best] >= threshold else None

    # Convenience constructors for the package's sign-projection schemes.

    @classmethod
    def for_hyperplane(cls, d: int, **kwargs) -> "BatchSignIndex":
        """Plain SimHash on raw vectors."""
        return cls(dim=d, **kwargs)

    @classmethod
    def for_datadep(cls, d: int, query_radius: float = 1.0, **kwargs) -> "BatchSignIndex":
        """Section 4.1: asymmetric ball-to-sphere maps + hyperplane."""
        transform = NeyshaburSrebroTransform(query_radius=query_radius)
        return cls(
            dim=transform.output_dimension(d),
            data_transform=transform.embed_data_many,
            query_transform=transform.embed_query_many,
            **kwargs,
        )

    @classmethod
    def for_simple_lsh(cls, d: int, **kwargs) -> "BatchSignIndex":
        """SIMPLE-LSH [39]: ball completion for data, sphere queries."""
        transform = SimpleLSHTransform()
        return cls(
            dim=transform.output_dimension(d),
            data_transform=transform.embed_data_many,
            query_transform=transform.embed_query_many,
            **kwargs,
        )

    @classmethod
    def for_symmetric(cls, d: int, eps: float = 0.05, **kwargs) -> "BatchSignIndex":
        """Section 4.2: symmetric incoherent completion on both sides."""
        completion = SymmetricSphereCompletion(eps=eps)
        return cls(
            dim=completion.output_dimension(d),
            data_transform=completion.embed_many,
            query_transform=completion.embed_many,
            **kwargs,
        )
