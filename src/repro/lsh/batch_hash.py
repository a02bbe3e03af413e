"""Vectorized multi-table hashers behind the batch hashing protocol.

Each class here is a concrete :class:`repro.lsh.base.BatchHashTables`:
one object holds *all* ``n_tables x hashes_per_table`` hash functions of
a multi-table index and maps whole matrices to fused int64 bucket keys.
Families hand one out from ``sample_batch`` after drawing parameters in
the exact per-vector order, so a batch index and a closure-based index
built from the same seed hash with identical functions.

Key fusing
----------

A table's ``k`` component hash values must be fused into one int64 key.
Two strategies, chosen automatically:

* **fixed mixed-radix** — when every component lives in ``[0, radix)``
  and ``n_tables * prod(radices) < 2**62`` (so an index can fuse the
  table number into the key, :class:`repro.lsh.index.LSHIndex`), keys
  are the Horner pack ``((c0 * r1 + c1) * r2 + c2) ...``; data and
  query sides pack independently and identically.
* **adaptive rank recoding** — for unbounded components (E2LSH floors)
  or overflowing radix products, the *data* side recodes each stage to
  dense ranks via a sorted-unique codebook and refuses to grow past
  ``n * (n + 1)``, so data keys stay below ``n``; the query side replays
  the codebooks, mapping values absent from the data to
  :data:`repro.lsh.base.MISS_KEY` (which no data key ever equals, so
  index lookups miss cleanly).  This requires hashing the data side
  before the query side.

Every class also implements ``hash_rows`` — a deliberately scalar
per-row evaluation mirroring the family's closure math — as the
equivalence-tested reference for the vectorized kernels.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

import numpy as np

from repro.errors import DomainError, ParameterError, ValidationError
from repro.lsh.base import BatchHashTables, MISS_KEY
from repro.lsh.csr import budget_blocks, sorted_unique
from repro.utils.validation import check_matrix

#: Largest fused key product handled by the fixed mixed-radix pack.
MAX_PACKED_KEY = 1 << 62

#: Per-chunk element budget for the intermediate tensors of the
#: vectorized kernels (~32 MiB of float64).
CHUNK_ELEMS = 1 << 22

#: Margins per block of :class:`SignProjectionTables`' GEMM (1 MiB of
#: float64), so a block's margins, sign bits and keys stay in cache.
#: Swept over 2**14..2**22, 16 x 12-bit index builds over 24,000 x 32
#: and 100,000 x 64 rows ran fastest at 2**17; at ``CHUNK_ELEMS``
#: (2**22) they took 1.4x and 1.3x as long.
SIGN_BLOCK_ELEMS = 1 << 17

Transform = Optional[Callable[[np.ndarray], np.ndarray]]


class ComponentHashTables(BatchHashTables):
    """Shared fuse machinery for hashers built from per-slot components.

    Subclasses produce an ``(n, n_tables, hashes_per_table)`` int64
    component array (vectorized ``_components`` and scalar
    ``_component_row``); this base class fuses the last axis into one
    key per table using the fixed mixed-radix pack when ``n_tables``
    times the radix product fits in an int64, and adaptive rank
    recoding otherwise.
    """

    def __init__(self, n_tables: int, hashes_per_table: int, radices=None):
        super().__init__(n_tables, hashes_per_table)
        self._radices = self._resolve_radices(radices)
        self._codebooks: Optional[List[List[np.ndarray]]] = None

    def _resolve_radices(self, radices) -> Optional[np.ndarray]:
        if radices is None:
            return None
        arr = np.broadcast_to(
            np.asarray(radices, dtype=np.int64), (self.hashes_per_table,)
        ).copy()
        if (arr < 1).any():
            raise ParameterError(f"radices must be >= 1, got {arr}")
        # Counting the tables keeps an index's fused key (table number
        # times the key bound, plus the key) inside an int64 too.
        product = self.n_tables
        for radix in arr:
            product *= int(radix)
            if product >= MAX_PACKED_KEY:
                return None  # overflow: fall back to adaptive rank recoding
        return arr

    # -- subclass surface ------------------------------------------------

    def _components(self, X: np.ndarray, side: str) -> np.ndarray:
        """Vectorized ``(n, n_tables, hashes_per_table)`` components."""
        raise NotImplementedError

    def _component_row(self, x: np.ndarray, side: str) -> np.ndarray:
        """Scalar reference ``(n_tables, hashes_per_table)`` components."""
        raise NotImplementedError

    def _as_rows(self, X) -> np.ndarray:
        """Validate ``X`` for the per-row reference path."""
        return check_matrix(X, "X")

    # -- protocol --------------------------------------------------------

    def hash_matrix(self, X, side: str = "data") -> np.ndarray:
        side = self._check_side(side)
        comps = np.asarray(self._components(X, side), dtype=np.int64)
        return self._fuse(comps, side)

    def hash_rows(self, X, side: str = "data") -> np.ndarray:
        side = self._check_side(side)
        rows = self._as_rows(X)
        comps = np.stack(
            [np.asarray(self._component_row(row, side), dtype=np.int64) for row in rows]
        )
        return self._fuse(comps, side)

    # -- fusing ----------------------------------------------------------

    def _fuse(self, comps: np.ndarray, side: str) -> np.ndarray:
        if comps.shape[1:] != (self.n_tables, self.hashes_per_table):
            raise ValidationError(
                f"components must have shape (n, {self.n_tables}, "
                f"{self.hashes_per_table}), got {comps.shape}"
            )
        if self._radices is not None:
            return self._fuse_packed(comps)
        if side == "data":
            return self._fuse_fit(comps)
        if self._codebooks is None:
            raise ParameterError(
                "adaptive key fusing requires hashing the data side before queries"
            )
        return self._fuse_map(comps)

    def _fuse_packed(self, comps: np.ndarray) -> np.ndarray:
        keys = np.zeros(comps.shape[:2], dtype=np.int64)
        valid = np.ones(comps.shape[:2], dtype=bool)
        for j in range(self.hashes_per_table):
            component = comps[:, :, j]
            radix = self._radices[j]
            valid &= (component >= 0) & (component < radix)
            keys = keys * radix + component
        return np.where(valid, keys, MISS_KEY)

    @staticmethod
    def _rank_fit(values: np.ndarray, books: List[np.ndarray]) -> np.ndarray:
        book = sorted_unique(values)
        books.append(book)
        return np.searchsorted(book, values).astype(np.int64)

    @staticmethod
    def _rank_map(book: np.ndarray, values: np.ndarray) -> np.ndarray:
        positions = np.searchsorted(book, values)
        positions = np.minimum(positions, book.size - 1)
        hits = book[positions] == values
        return np.where(hits, positions, MISS_KEY).astype(np.int64)

    def _fuse_fit(self, comps: np.ndarray) -> np.ndarray:
        n = comps.shape[0]
        keys = np.empty((n, self.n_tables), dtype=np.int64)
        self._codebooks = []
        for t in range(self.n_tables):
            books: List[np.ndarray] = []
            key = self._rank_fit(comps[:, t, 0], books)
            for j in range(1, self.hashes_per_table):
                component = self._rank_fit(comps[:, t, j], books)
                width = np.int64(books[-1].size)
                # ranks < n and width <= n keep the raw key below n*(n+1).
                key = self._rank_fit(key * width + component, books)
            self._codebooks.append(books)
            keys[:, t] = key
        return keys

    def _fuse_map(self, comps: np.ndarray) -> np.ndarray:
        n = comps.shape[0]
        keys = np.empty((n, self.n_tables), dtype=np.int64)
        for t in range(self.n_tables):
            books = iter(self._codebooks[t])
            key = self._rank_map(next(books), comps[:, t, 0])
            for j in range(1, self.hashes_per_table):
                component_book = next(books)
                component = self._rank_map(component_book, comps[:, t, j])
                raw = np.where(
                    (key < 0) | (component < 0),
                    MISS_KEY,
                    key * np.int64(component_book.size) + component,
                )
                key = self._rank_map(next(books), raw)
            keys[:, t] = key
        return keys


class _TransformMixin:
    """Optional per-side matrix transforms (ALSH embeddings)."""

    _data_transform: Transform
    _query_transform: Transform

    def _set_transforms(self, data_transform: Transform, query_transform: Transform):
        self._data_transform = data_transform
        self._query_transform = query_transform

    def _transform(self, X: np.ndarray, side: str) -> np.ndarray:
        fn = self._data_transform if side == "data" else self._query_transform
        if fn is None:
            return X
        return np.asarray(fn(X), dtype=np.float64)

    def _transform_row(self, x, side: str) -> np.ndarray:
        row = np.asarray(x, dtype=np.float64).reshape(1, -1)
        return self._transform(row, side)[0]


class SignProjectionTables(_TransformMixin, ComponentHashTables):
    """Hyperplane-sign components: one GEMM against all projections.

    Covers :class:`~repro.lsh.hyperplane.HyperplaneLSH` and every
    sign-ALSH variant (the variant supplies its embedding as the per-side
    transform).  Component ``f`` of a vector is ``1`` iff its transformed
    image has non-negative dot product with projection ``f``.  A table's
    key packs its ``k`` bits (component 0 the highest) with one matvec,
    so flipping one bit of a query key names a neighbouring bucket: the
    multiprobe primitive (:meth:`probe_keys`).

    :meth:`hash_matrix` runs the GEMM, the sign and the pack over blocks
    of :data:`SIGN_BLOCK_ELEMS` margins, so hashing ``n`` rows never
    builds an ``n x n_tables * k`` array.  The transform still maps the
    whole matrix and the GEMM stays float64, but the BLAS may sum a
    block's dot products in another order than the whole matrix's, so
    a margin can move by a rounding error; a key can change only where
    such a margin lies within that error of zero.
    """

    def __init__(
        self,
        projections: np.ndarray,
        n_tables: int,
        hashes_per_table: int,
        data_transform: Transform = None,
        query_transform: Transform = None,
    ):
        super().__init__(n_tables, hashes_per_table, radices=2)
        projections = np.asarray(projections, dtype=np.float64)
        if projections.ndim != 2 or projections.shape[0] != n_tables * hashes_per_table:
            raise ValidationError(
                f"projections must be (n_tables * hashes_per_table, D), "
                f"got {projections.shape}"
            )
        self._projections = projections
        self._set_transforms(data_transform, query_transform)
        #: Bit weights of the Horner pack: float64 (one BLAS matvec) while
        #: every key stays below 2**53, int64 past it; None when keys are
        #: rank-recoded.
        self._weights: Optional[np.ndarray] = None
        if self._radices is not None:
            k = hashes_per_table
            self._weights = (1 << np.arange(k - 1, -1, -1, dtype=np.int64)).astype(
                np.float64 if k <= 53 else np.int64
            )

    def _margins(self, T: np.ndarray) -> np.ndarray:
        """Projection values of the transformed rows ``T``, ``(n, n_tables, k)``."""
        return (T @ self._projections.T).reshape(
            T.shape[0], self.n_tables, self.hashes_per_table
        )

    def _pack(self, bits: np.ndarray) -> np.ndarray:
        """Horner keys ``(n, n_tables)`` of ``n`` rows of bits: one matvec.

        ``bits`` is bool or 0/1 floats, shaped ``(n, n_tables, k)`` or
        ``(n, n_tables * k)``.
        """
        flat = bits.reshape(-1, self.hashes_per_table).astype(
            self._weights.dtype, copy=False)
        return (flat @ self._weights).astype(np.int64).reshape(
            bits.shape[0], self.n_tables)

    def hash_matrix(self, X, side: str = "data") -> np.ndarray:
        """Fused ``(n, n_tables)`` int64 keys, hashed in blocks of margins.

        At most :data:`SIGN_BLOCK_ELEMS` margins (every batch-1 query)
        take one GEMM, sign and pack, as do rank-recoded keys.  Past that
        the rows split into blocks of equal size; each block's GEMM
        writes into one reused buffer, which then holds the block's sign
        bits as 0/1 floats for the pack, and the keys are written
        table-major and returned as the transposed view, the layout the
        index's per-table bucket sort reads.
        """
        side = self._check_side(side)
        T = self._transform(check_matrix(X, "X"), side)
        n, width = T.shape[0], self._projections.shape[0]
        if self._weights is None or n * width <= SIGN_BLOCK_ELEMS:
            bits = self._margins(T) >= 0.0
            if self._weights is None:
                return self._fuse(bits.astype(np.int64), side)
            return self._pack(bits)
        # Blocks of equal size: OpenBLAS (0.3.31) picks its kernel and
        # thread split by shape.  Equal blocks of 16 x 12 and 4 x 20
        # tables reproduce the unblocked margins bit for bit, where a
        # 1-4 row remainder block moves some in the last bit.  Wider
        # tables move margins at every block size: at k = 23, L = 449
        # (blocks of 1-128 rows) by up to 4e-15 on unit rows of 32
        # dims, which flipped no key.
        n_blocks = -(-n // max(1, SIGN_BLOCK_ELEMS // width))
        edges = np.arange(n_blocks + 1) * n // n_blocks
        keys = np.empty((self.n_tables, n), dtype=np.int64)
        margins = np.empty((-(-n // n_blocks), width))
        for lo, hi in zip(edges[:-1], edges[1:]):
            bits = np.matmul(T[lo:hi], self._projections.T, out=margins[:hi - lo])
            np.greater_equal(bits, 0.0, out=bits)
            keys[:, lo:hi] = self._pack(bits).T
        return keys.T

    @property
    def max_probes(self) -> int:
        """Bits a multiprobe query may flip per table; 0 once rank-recoded."""
        return self.hashes_per_table if self._weights is not None else 0

    def probe_keys(self, X, n_probes: int) -> np.ndarray:
        """Query keys plus ``n_probes`` neighbours per table, ``(n, L, 1 + n_probes)``.

        Slot 0 is the exact key.  A sign bit whose projection value sits
        near 0 is the one a near-duplicate vector is most likely to
        disagree on (Lv et al.'s query-directed multiprobe), so slot
        ``1 + i`` flips the bit with the ``i``-th smallest ``|margin|``.
        """
        values = self._margins(self._transform(check_matrix(X, "X"), "query"))
        keys = self._pack(values >= 0.0)[:, :, None]
        order = np.argsort(np.abs(values), axis=2, kind="stable")[:, :, :n_probes]
        flips = keys ^ (np.int64(1) << (self.hashes_per_table - 1 - order))
        return np.concatenate([keys, flips], axis=2)

    def _component_row(self, x, side):
        v = self._transform_row(x, side)
        out = [1 if float(p @ v) >= 0.0 else 0 for p in self._projections]
        return np.asarray(out, dtype=np.int64).reshape(
            self.n_tables, self.hashes_per_table
        )


class CrossPolytopeTables(_TransformMixin, ComponentHashTables):
    """Cross-polytope components: one GEMM against all stacked rotations.

    ``rotations`` is ``(n_tables * hashes_per_table, D, D)``; flattened
    to ``(F * D, D)`` so hashing a block is a single GEMM, reshaped back
    to take the per-function signed argmax (value ``2i`` for ``+e_i``,
    ``2i + 1`` for ``-e_i`` — the closure's convention exactly).
    """

    def __init__(
        self,
        rotations: np.ndarray,
        n_tables: int,
        hashes_per_table: int,
        data_transform: Transform = None,
        query_transform: Transform = None,
    ):
        rotations = np.asarray(rotations, dtype=np.float64)
        count = n_tables * hashes_per_table
        if rotations.ndim != 3 or rotations.shape[0] != count or (
            rotations.shape[1] != rotations.shape[2]
        ):
            raise ValidationError(
                f"rotations must be ({count}, D, D), got {rotations.shape}"
            )
        super().__init__(n_tables, hashes_per_table, radices=2 * rotations.shape[1])
        self._rotations = rotations
        self._rotations_flat = rotations.reshape(-1, rotations.shape[2])
        self._set_transforms(data_transform, query_transform)

    def _components(self, X, side):
        T = self._transform(check_matrix(X, "X"), side)
        n = T.shape[0]
        count = self.n_tables * self.hashes_per_table
        dim = self._rotations.shape[1]
        comps = np.empty((n, count), dtype=np.int64)
        step = max(1, CHUNK_ELEMS // max(1, count * dim))
        # One reusable GEMM output buffer; materializing |rotated| to
        # argmax it costs a full extra pass over the (big) rotated tensor,
        # so the signed argmax is built from an argmax/argmin pair instead.
        buf = np.empty((min(step, n), count * dim), dtype=np.float64)
        for start in range(0, n, step):
            block = T[start:start + step]
            b = block.shape[0]
            rotated = np.matmul(block, self._rotations_flat.T, out=buf[:b]).reshape(
                b, count, dim
            )
            imax = np.argmax(rotated, axis=2)
            imin = np.argmin(rotated, axis=2)
            vmax = np.take_along_axis(rotated, imax[:, :, None], axis=2)[:, :, 0]
            vmin = np.take_along_axis(rotated, imin[:, :, None], axis=2)[:, :, 0]
            # argmax(|rotated|) with first-occurrence ties: the earliest
            # max beats the earliest min exactly when it is larger in
            # magnitude, or equal in magnitude but earlier.
            neg = (-vmin > vmax) | ((-vmin == vmax) & (imin < imax))
            comps[start:start + step] = np.where(neg, 2 * imin + 1, 2 * imax)
        return comps.reshape(n, self.n_tables, self.hashes_per_table)

    def _component_row(self, x, side):
        v = self._transform_row(x, side)
        out = np.empty(self.n_tables * self.hashes_per_table, dtype=np.int64)
        for f, rotation in enumerate(self._rotations):
            rotated = rotation @ v
            i = int(np.argmax(np.abs(rotated)))
            out[f] = 2 * i + (1 if rotated[i] < 0 else 0)
        return out.reshape(self.n_tables, self.hashes_per_table)


class E2LSHTables(_TransformMixin, ComponentHashTables):
    """p-stable components: floor of one GEMM plus offsets.

    Floors are unbounded, so keys always go through the adaptive
    rank-recoded fuse (data side first).
    """

    def __init__(
        self,
        directions: np.ndarray,
        offsets: np.ndarray,
        width: float,
        n_tables: int,
        hashes_per_table: int,
        data_transform: Transform = None,
        query_transform: Transform = None,
    ):
        super().__init__(n_tables, hashes_per_table, radices=None)
        directions = np.asarray(directions, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.float64)
        count = n_tables * hashes_per_table
        if directions.ndim != 2 or directions.shape[0] != count:
            raise ValidationError(
                f"directions must be ({count}, D), got {directions.shape}"
            )
        if offsets.shape != (count,):
            raise ValidationError(f"offsets must be ({count},), got {offsets.shape}")
        self._directions = directions
        self._offsets = offsets
        self._width = float(width)
        self._set_transforms(data_transform, query_transform)

    def _components(self, X, side):
        T = self._transform(check_matrix(X, "X"), side)
        values = T @ self._directions.T + self._offsets[None, :]
        comps = np.floor(values / self._width).astype(np.int64)
        return comps.reshape(T.shape[0], self.n_tables, self.hashes_per_table)

    def _component_row(self, x, side):
        v = self._transform_row(x, side)
        out = [
            int(math.floor((float(a @ v) + float(b)) / self._width))
            for a, b in zip(self._directions, self._offsets)
        ]
        return np.asarray(out, dtype=np.int64).reshape(
            self.n_tables, self.hashes_per_table
        )


def _binary_rows(X) -> np.ndarray:
    """Validate a binary matrix without the float64 round-trip."""
    arr = np.asarray(X)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValidationError(f"X must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValidationError(f"X must be non-empty, got shape {arr.shape}")
    if not np.isin(arr, (0, 1)).all():
        raise DomainError("minwise hashing requires binary vectors")
    return arr != 0


def _binary_csr(X, universe: int):
    """``(indptr, indices)`` of a validated dense binary matrix."""
    B = _binary_rows(X)
    if B.shape[1] != universe:
        raise ValidationError(f"X must have {universe} columns, got {B.shape[1]}")
    rows, cols = np.nonzero(B)
    indptr = np.zeros(B.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=B.shape[0]), out=indptr[1:])
    return indptr, cols.astype(np.int64)


def _order_keys(priorities: np.ndarray, universe: int) -> np.ndarray:
    """``(count, universe)`` keys ``priority * universe + element``.

    Comparing keys compares ``(priority, element)`` lexicographically, so
    the smallest key over a set names its member with the smallest
    priority, ties to the lowest element (``argmin``'s first occurrence),
    and ``key % universe`` is that member.  Keys are int32 when they fit,
    which halves the memory traffic of the hashing gather.
    """
    top = int(priorities.max()) + 1 if priorities.size else 1
    if priorities.size and (priorities.min() < 0 or top > MAX_PACKED_KEY // universe):
        raise ValidationError("priorities must lie in [0, 2**62 / universe)")
    dtype = np.int32 if top * universe <= np.iinfo(np.int32).max else np.int64
    keys = priorities * np.int64(universe) + np.arange(universe, dtype=np.int64)
    return keys.astype(dtype)


def _csr_min_keys(keys: np.ndarray, indptr, indices, empty: int) -> np.ndarray:
    """``(n, count)`` row minima of ``keys[:, element]`` over CSR rows.

    One gather at ``indices`` and one flat ``np.minimum.reduceat`` whose
    segments are every (function, non-empty row) pair: ``nnz x count``
    work.  Rows are gathered in blocks of at most ``CHUNK_ELEMS`` keys;
    empty rows get ``empty``.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    count = keys.shape[0]
    out = np.full((indptr.size - 1, count), empty, dtype=np.int64)
    for lo, hi in budget_blocks(indptr, max(1, CHUNK_ELEMS // count)):
        first, last = indptr[lo], indptr[hi]
        if first == last:
            continue
        filled = indptr[lo + 1:hi + 1] > indptr[lo:hi]
        # The first non-empty row starts at 0, so each function's last
        # segment ends exactly where the next function's keys begin.
        starts = (np.arange(count)[:, None] * (last - first)
                  + (indptr[lo:hi] - first)[filled])
        gathered = np.take(keys, indices[first:last], axis=1)
        mins = np.minimum.reduceat(gathered.ravel(), starts.ravel())
        out[lo:hi][filled] = mins.reshape(count, -1).T
    return out


class MinHashTables(ComponentHashTables):
    """Minwise components from CSR rows: one gather + segmented minimum.

    Every function's priorities are folded into lexicographic
    ``(priority, element)`` keys (:func:`_order_keys`), so hashing a block
    of sets is a gather of their members' keys and one segmented minimum
    per row: ``nnz x functions`` work.  Dense input goes through the same
    kernel via its nonzeros.  Component values are the minimizing
    *element index* shifted by one so the empty-set sentinel packs as
    ``0`` (radix ``universe + 1``).
    """

    def __init__(self, priorities: np.ndarray, n_tables: int, hashes_per_table: int):
        priorities = np.asarray(priorities, dtype=np.int64)
        count = n_tables * hashes_per_table
        if priorities.ndim != 2 or priorities.shape[0] != count:
            raise ValidationError(
                f"priorities must be ({count}, universe), got {priorities.shape}"
            )
        super().__init__(n_tables, hashes_per_table, radices=priorities.shape[1] + 1)
        self._universe = priorities.shape[1]
        #: ``(count, universe)`` order keys; the only copy of the priorities.
        self.order_keys = _order_keys(priorities, self._universe)

    @property
    def _priorities(self) -> np.ndarray:
        return self.order_keys // self._universe

    def _as_rows(self, X):
        return _binary_rows(X)

    def hash_csr(self, indptr, indices, side: str = "data") -> np.ndarray:
        """Fused keys ``(n, n_tables)`` of the sets ``indices[indptr[i]:indptr[i+1]]``."""
        side = self._check_side(side)
        return self._fuse(self._csr_components(indptr, indices), side)

    def _csr_components(self, indptr, indices) -> np.ndarray:
        keys = _csr_min_keys(self.order_keys, indptr, indices, empty=-1)
        comps = np.where(keys >= 0, keys % self._universe + 1, 0)
        return comps.reshape(-1, self.n_tables, self.hashes_per_table)

    def _components(self, X, side):
        return self._csr_components(*_binary_csr(X, self._universe))

    def _component_row(self, x, side):
        from repro.lsh.minhash import _min_under, _support

        members = _support(np.asarray(x))
        out = [_min_under(p, members) + 1 for p in self._priorities]
        return np.asarray(out, dtype=np.int64).reshape(
            self.n_tables, self.hashes_per_table
        )


class AsymmetricMinHashTables(ComponentHashTables):
    """MH-ALSH components: minwise hashing with dummy-padded data.

    A data vector of weight ``w`` competes its real support minimum
    against the precomputed prefix minimum of the first ``M - w`` dummy
    priorities; queries hash unpadded.  Values are global element indices
    (dummies at ``universe + j``) shifted by one, radix
    ``universe + max_norm + 1``.
    """

    def __init__(
        self,
        priorities: np.ndarray,
        universe: int,
        max_norm: int,
        n_tables: int,
        hashes_per_table: int,
    ):
        priorities = np.asarray(priorities, dtype=np.int64)
        count = n_tables * hashes_per_table
        if priorities.shape != (count, universe + max_norm):
            raise ValidationError(
                f"priorities must be ({count}, {universe + max_norm}), "
                f"got {priorities.shape}"
            )
        super().__init__(n_tables, hashes_per_table, radices=universe + max_norm + 1)
        self._priorities = priorities
        self._universe = int(universe)
        self._max_norm = int(max_norm)
        self._real_keys = _order_keys(priorities[:, :universe], self._universe)
        # Prefix minima over the dummy block: entry j is the min (and its
        # in-block argmin) of the first j+1 dummy priorities, so padding a
        # weight-w vector is an O(1) lookup at j = (M - w) - 1.
        dummy = priorities[:, universe:]
        self._dummy_min = np.minimum.accumulate(dummy, axis=1)
        positions = np.broadcast_to(np.arange(max_norm), dummy.shape)
        self._dummy_argmin = np.maximum.accumulate(
            np.where(dummy == self._dummy_min, positions, -1), axis=1
        )

    def _as_rows(self, X):
        return _binary_rows(X)

    def _components(self, X, side):
        indptr, indices = _binary_csr(X, self._universe)
        shape = (indptr.size - 1, self.n_tables, self.hashes_per_table)
        sentinel = np.int64(self._universe + self._max_norm)  # > every priority
        keys = _csr_min_keys(
            self._real_keys, indptr, indices, empty=sentinel * self._universe
        )
        real_min, real_arg = np.divmod(keys, self._universe)
        weights = np.diff(indptr)
        if side == "query":
            comps = np.where(weights[:, None] > 0, real_arg + 1, 0)
            return comps.reshape(shape)

        if (weights > self._max_norm).any():
            worst = int(weights[np.argmax(weights > self._max_norm)])
            raise DomainError(
                f"data vector weight {worst} exceeds max_norm {self._max_norm}"
            )
        dummy_count = self._max_norm - weights
        last = np.maximum(dummy_count - 1, 0)
        dummy_min = self._dummy_min[:, last].T
        dummy_arg = self._universe + self._dummy_argmin[:, last].T
        # Weight-M vectors get no dummies; priorities are distinct so
        # the real/dummy comparison never ties.
        dummy_min = np.where(dummy_count[:, None] > 0, dummy_min, sentinel)
        comps = np.where(real_min < dummy_min, real_arg, dummy_arg)
        return (comps + 1).reshape(shape)

    def _component_row(self, x, side):
        from repro.lsh.minhash import _min_under, _support

        support = _support(np.asarray(x))
        out = np.empty(self.n_tables * self.hashes_per_table, dtype=np.int64)
        if side == "query":
            real = self._priorities[:, : self._universe]
            for f in range(out.size):
                out[f] = _min_under(real[f], support) + 1
            return out.reshape(self.n_tables, self.hashes_per_table)
        if support.size > self._max_norm:
            raise DomainError(
                f"data vector weight {support.size} exceeds max_norm {self._max_norm}"
            )
        dummies = np.arange(
            self._universe, self._universe + (self._max_norm - support.size)
        )
        members = np.concatenate([support, dummies])
        for f in range(out.size):
            out[f] = _min_under(self._priorities[f], members) + 1
        return out.reshape(self.n_tables, self.hashes_per_table)


class GenericHashTables(BatchHashTables):
    """Per-row fallback wrapping a family's sampled closures.

    Draws ``n_tables x hashes_per_table`` pairs in exactly the order
    ``LSHIndex`` historically did (table-major, AND components inner) and
    interns each table's tuple keys into dense ints on the data side;
    query tuples absent from the data map to :data:`MISS_KEY`.  This is
    the reference every native batch path is equivalence-tested against.
    """

    is_native = False

    def __init__(self, family, rng: np.random.Generator, hashes_per_table: int, n_tables: int):
        super().__init__(n_tables, hashes_per_table)
        self._pairs = [
            [family.sample(rng) for _ in range(hashes_per_table)]
            for _ in range(n_tables)
        ]
        self._key_ids: Optional[List[dict]] = None

    def hash_matrix(self, X, side: str = "data") -> np.ndarray:
        side = self._check_side(side)
        X = np.asarray(X)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ValidationError(f"X must be 2-dimensional, got shape {X.shape}")
        keys = np.empty((X.shape[0], self.n_tables), dtype=np.int64)
        if side == "data":
            self._key_ids = [dict() for _ in range(self.n_tables)]
            for t, pairs in enumerate(self._pairs):
                ids = self._key_ids[t]
                for i in range(X.shape[0]):
                    key = tuple(pair.hash_data(X[i]) for pair in pairs)
                    keys[i, t] = ids.setdefault(key, len(ids))
            return keys
        if self._key_ids is None:
            raise ParameterError(
                "generic hashing requires hashing the data side before queries"
            )
        for t, pairs in enumerate(self._pairs):
            ids = self._key_ids[t]
            for i in range(X.shape[0]):
                key = tuple(pair.hash_query(X[i]) for pair in pairs)
                keys[i, t] = ids.get(key, int(MISS_KEY))
        return keys

    def hash_rows(self, X, side: str = "data") -> np.ndarray:
        return self.hash_matrix(X, side)
