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
whole query block never touches a Python-level per-query loop.

Bucket contents come out ascending (``from_keys`` uses a stable argsort
over ascending row ids), which is what makes the CSR path's candidate
sets bit-for-bit reproducible and ties in downstream argmax resolution
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


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
    """One hash table in CSR layout.  Build with :meth:`from_keys`."""

    keys: np.ndarray     # (n_buckets,) int64, sorted ascending, unique
    offsets: np.ndarray  # (n_buckets + 1,) int64
    indices: np.ndarray  # (n_entries,) int64, grouped by bucket

    @classmethod
    def from_keys(cls, keys: np.ndarray, rows: np.ndarray = None) -> "CSRBucketTable":
        """Bucket rows by their int64 ``keys`` (one key per entry).

        ``rows`` supplies the row id stored for each entry; by default
        entry ``i`` stores row ``i``.  Passing explicit rows lets several
        logical tables share one physical table (fuse the table number
        into the key and repeat the row ids per table).  The stable
        argsort preserves input order inside each bucket, so feed rows
        ascending per logical table to keep bucket contents ascending.
        """
        keys = np.asarray(keys, dtype=np.int64)
        # Stable => ascending ids per bucket.  numpy's stable sort of
        # 16-bit keys is a radix sort, several times faster than its
        # int64 merge sort, and gives the same order.
        narrow = keys.size and keys.min() >= 0 and keys.max() < 1 << 16
        order = np.argsort(keys.astype(np.uint16) if narrow else keys, kind="stable")
        sorted_keys = keys[order]
        if keys.size == 0:
            unique = keys
            offsets = np.zeros(1, dtype=np.int64)
        else:
            keep = np.empty(sorted_keys.size, dtype=bool)
            keep[0] = True
            np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=keep[1:])
            unique = sorted_keys[keep]
            offsets = np.append(np.flatnonzero(keep), keys.size).astype(np.int64)
        indices = order if rows is None else np.asarray(rows, dtype=np.int64)[order]
        return cls(keys=unique, offsets=offsets, indices=indices.astype(np.int64))

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


def merge_candidates_per_query(
    query_ids: np.ndarray, rows: np.ndarray, n_queries: int, n_rows: int
) -> list:
    """Deduplicate ``(query, row)`` pairs into per-query sorted id arrays.

    ``query_ids`` and ``rows`` are parallel flat arrays (one entry per
    gathered bucket member).  Returns ``(lists, n_unique)``: a list of
    ``n_queries`` sorted, unique int64 arrays and their total length.
    Vectorized: one sort-based dedup over a fused 64-bit key, then one
    boundary search, instead of a Python set-union per query.
    """
    empty = np.empty(0, dtype=np.int64)
    if rows.size == 0:
        return [empty] * n_queries, 0
    # Power-of-two stride: fuse/split become shifts and masks instead of
    # 64-bit multiplies and divisions.
    shift = np.int64(max(1, int(n_rows - 1).bit_length()))
    fused = (query_ids.astype(np.int64) << shift) | rows
    fused = sorted_unique(fused)  # sorted: by query id, then row id
    ur = fused & ((np.int64(1) << shift) - 1)
    bounds = np.searchsorted(
        fused, np.arange(n_queries + 1, dtype=np.int64) << shift
    )
    lists = [
        ur[bounds[qi]:bounds[qi + 1]] if bounds[qi] < bounds[qi + 1] else empty
        for qi in range(n_queries)
    ]
    return lists, int(fused.size)
