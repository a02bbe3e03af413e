"""CSR-style bucket tables: hash buckets as three flat integer arrays.

A hash table used by an LSH index is a map ``key -> list of row ids``.
The dict-of-lists representation makes candidate generation a Python
loop per (query, table); this module stores each table in compressed
sparse row form instead —

* ``keys``:    sorted unique bucket keys, shape ``(n_buckets,)``
* ``offsets``: bucket boundaries into ``indices``, shape ``(n_buckets + 1,)``
* ``indices``: row ids grouped by bucket, ascending inside each bucket

— so looking up *every* query key of a block against *every* table is a
handful of :func:`numpy.searchsorted` calls, and gathering the matched
buckets is one vectorized ragged gather.  Candidate generation for a
whole query block never touches a Python-level per-query loop, and its
output, a :class:`CandidateBlock`, keeps the same flat layout: one
``indptr`` over the block's queries and one array of candidate rows.

One table holds any number of logical tables: ``from_keys`` fuses table
``t``'s key ``k`` into ``t * bound + k``.  It sorts each table's keys
once, with a stable argsort over ascending row ids, so bucket contents
come out ascending, which is what makes the CSR path's candidate sets
bit-for-bit reproducible and ties in downstream argmax resolution
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted unique values of a flat int64 array.

    Equivalent to ``np.unique`` but via sort + neighbor mask: numpy >= 2.3
    routes integer ``np.unique`` through a hash table that is an order of
    magnitude slower than its own sort at the array sizes the candidate
    pipeline produces, and every hot path here needs the sorted order
    anyway.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return values
    ordered = np.sort(values)
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def budget_blocks(cum: np.ndarray, budget: int):
    """Split rows into consecutive ``[lo, hi)`` blocks of bounded cost.

    ``cum`` is the ``(n + 1,)`` running cost of the rows (a CSR
    ``indptr`` when the cost is the row length).  Each block's cost stays
    within ``budget``, except that a block always holds at least one row.
    """
    n = cum.size - 1
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(cum, cum[lo] + budget, side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


@dataclass(frozen=True)
class CSRBucketTable:
    """Hash tables in CSR layout.  Build with :meth:`from_keys`."""

    keys: np.ndarray     # (n_buckets,) int64, sorted ascending, unique
    offsets: np.ndarray  # (n_buckets + 1,) int64
    indices: np.ndarray  # (n_entries,) int64, grouped by bucket

    @classmethod
    def from_keys(cls, keys: np.ndarray) -> "CSRBucketTable":
        """Bucket rows by their int64 keys, one table per row of ``keys``.

        ``keys`` is ``(n,)`` for one table or ``(n_tables, n)``: row ``i``
        lands in bucket ``keys[t, i]`` of table ``t``.  Keys must be
        non-negative.  The tables fuse into one keyed by
        ``t * bound + key``, where ``bound`` is one past the largest key.

        Each table is one stable argsort, so every bucket lists its rows
        ascending.  numpy's stable sort of 16-bit keys is a radix sort,
        several times faster than its int64 merge sort and in the same
        order, so tables whose keys fit sort as ``uint16``.  A bucket
        starts wherever a table's sorted keys change.
        """
        tables = np.atleast_2d(np.asarray(keys, dtype=np.int64))
        n_tables, n = tables.shape
        if tables.size and tables.min() < 0:
            raise ValidationError("bucket keys must be non-negative")
        bound = int(tables.max()) + 1 if tables.size else 0
        narrow = tables.astype(np.uint16) if bound <= 1 << 16 else tables
        order = np.argsort(narrow, axis=1, kind="stable")
        starts = np.arange(n_tables, dtype=np.int64)[:, None] * n
        ordered = np.take(narrow, order + starts)
        keep = np.empty(ordered.shape, dtype=bool)
        keep[:, :1] = True
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=keep[:, 1:])
        first = np.flatnonzero(keep)
        return cls(keys=ordered.ravel()[first] + first // n * bound,
                   offsets=np.append(first, ordered.size), indices=order.ravel())

    @property
    def n_buckets(self) -> int:
        return int(self.keys.size)

    def lookup(self, query_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Slice bounds ``(starts, ends)`` into ``indices`` per query key.

        Missing keys get an empty slice (``start == end == 0``).  Fully
        vectorized over any shape of ``query_keys``; the returned arrays
        share its shape.
        """
        query_keys = np.asarray(query_keys, dtype=np.int64)
        if self.keys.size == 0:
            zeros = np.zeros(query_keys.shape, dtype=np.int64)
            return zeros, zeros.copy()
        pos = np.searchsorted(self.keys, query_keys)
        pos_safe = np.minimum(pos, self.keys.size - 1)
        hit = self.keys[pos_safe] == query_keys
        starts = np.where(hit, self.offsets[pos_safe], 0)
        ends = np.where(hit, self.offsets[pos_safe + 1], 0)
        return starts, ends

    def gather(self, starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate the slices ``indices[starts[i]:ends[i]]`` for all i.

        Returns ``(rows, lengths)`` where ``rows`` is the flat
        concatenation and ``lengths[i] = ends[i] - starts[i]`` tells the
        caller how to attribute rows back to slice ``i``.  This is the
        vectorized ragged gather that replaces per-bucket list appends.
        """
        starts = np.asarray(starts, dtype=np.int64).ravel()
        ends = np.asarray(ends, dtype=np.int64).ravel()
        lengths = ends - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), lengths
        # Positions each slice starts at inside the output.
        out_starts = np.cumsum(lengths) - lengths
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(out_starts, lengths)
            + np.repeat(starts, lengths)
        )
        return self.indices[flat], lengths


@dataclass(frozen=True, eq=False)
class CandidateBlock:
    """Candidate pairs of a query block in CSR form.

    The one hand-off between every candidate generator (LSH buckets, the
    sketch descent, the int8 scan, the sketch filter) and exact
    verification: query ``i``'s candidate rows are
    ``rows[indptr[i]:indptr[i + 1]]``, ascending and unique.  The block
    indexes and iterates as those per-query row arrays.
    """

    indptr: np.ndarray  # (n_queries + 1,) int64
    rows: np.ndarray    # (indptr[-1],) int64

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        return self.rows[self.indptr[i]:self.indptr[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(np.split(self.rows, self.indptr[1:-1]) if len(self) else ())

    @property
    def sizes(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    def qids(self) -> np.ndarray:
        """The query of every pair, aligned with ``rows``."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.sizes)

    def slice(self, lo: int, hi: int) -> "CandidateBlock":
        """Queries ``[lo, hi)`` as a block of their own."""
        first = self.indptr[lo]
        return CandidateBlock(self.indptr[lo:hi + 1] - first,
                              self.rows[first:self.indptr[hi]])

    @classmethod
    def from_pairs(cls, qids: np.ndarray, rows: np.ndarray,
                   n_queries: int) -> "CandidateBlock":
        """From pairs grouped by ascending query (rows ascending, unique)."""
        indptr = np.searchsorted(qids, np.arange(n_queries + 1))
        return cls(indptr.astype(np.int64), np.asarray(rows, dtype=np.int64))

    @classmethod
    def from_tiles(cls, qids: Sequence[np.ndarray], rows: Sequence[np.ndarray],
                   n_queries: int) -> "CandidateBlock":
        """From per-tile pair lists whose row ranges ascend tile by tile:
        a stable sort by query keeps every query's rows ascending."""
        if not qids:
            empty = np.empty(0, dtype=np.int64)
            return cls.from_pairs(empty, empty, n_queries)
        q, r = np.concatenate(qids), np.concatenate(rows)
        order = np.argsort(q, kind="stable")
        return cls.from_pairs(q[order], r[order], n_queries)

    @classmethod
    def from_lists(cls, lists: Sequence[np.ndarray]) -> "CandidateBlock":
        """From one ascending, unique row array per query."""
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in lists], out=indptr[1:])
        rows = (np.concatenate(lists) if indptr[-1]
                else np.empty(0, dtype=np.int64))
        return cls(indptr, rows.astype(np.int64))

