"""Set-valued data: Zipfian generators and the CSR ``SetCollection``.

The ``{0,1}^d`` domain "occurs often in practice, for example when the
vectors represent sets" (paper, Section 1.1).  Real set data (documents,
baskets) has heavily skewed element frequencies; the Zipfian generator
draws set elements from a Zipf distribution over the universe so the
binary-domain experiments run on realistically skewed sets rather than
uniform ones.

:class:`SetCollection` is the ragged/CSR container the engine's
``jaccard`` measure accepts as ``P``/``Q``: it stores ``n`` sets over a
shared integer universe as two flat arrays (``indptr``/``indices``),
supports the small matrix protocol the executor relies on (``shape``,
``len``, slice and fancy ``__getitem__``), pickles as plain ndarrays so
the shared-memory arena can freeze/thaw it zero-copy, and round-trips
to the dense binary matrices the MinHash kernels hash.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.utils.rng import SeedLike, ensure_rng


class SetCollection:
    """``n`` sets over ``{0, ..., universe-1}`` in CSR form.

    Row ``i`` is ``indices[indptr[i]:indptr[i+1]]`` — sorted, duplicate
    free.  ``shape`` is ``(n, universe)`` so engine code written against
    dense matrices (chunk bounds, span attributes, dimension checks)
    works unchanged.  Instances are immutable by convention: slicing and
    fancy indexing return new collections sharing no mutable state.
    """

    __slots__ = ("indptr", "indices", "universe")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, universe: int):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size < 1 or indptr[0] != 0:
            raise ParameterError("indptr must be 1-D, non-empty, starting at 0")
        if indices.ndim != 1 or indptr[-1] != indices.size:
            raise ParameterError("indices length must match indptr[-1]")
        if int(universe) < 1:
            raise ParameterError(f"universe must be >= 1, got {universe}")
        if indices.size and (indices.min() < 0 or indices.max() >= universe):
            raise ParameterError("set elements must lie in [0, universe)")
        self.indptr = indptr
        self.indices = indices
        self.universe = int(universe)

    # -- matrix protocol -------------------------------------------------
    @property
    def shape(self) -> tuple:
        return (int(self.indptr.size - 1), self.universe)

    def __len__(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def sizes(self) -> np.ndarray:
        """Per-set cardinalities, ``(n,)`` int64."""
        return np.diff(self.indptr)

    def row(self, i: int) -> np.ndarray:
        """The ``i``-th set's sorted member array (a view)."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def __getitem__(self, key) -> "SetCollection":
        """Slice or fancy-index rows; always returns a ``SetCollection``."""
        n = len(self)
        if isinstance(key, slice):
            start, stop, step = key.indices(n)
            if step == 1:
                lo, hi = self.indptr[start], self.indptr[stop]
                return SetCollection(
                    self.indptr[start:stop + 1] - lo,
                    self.indices[lo:hi],
                    self.universe,
                )
            key = np.arange(start, stop, step)
        idx = np.asarray(key, dtype=np.int64).reshape(-1)
        sizes = self.indptr[idx + 1] - self.indptr[idx]
        indptr = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        out = np.empty(int(indptr[-1]), dtype=np.int64)
        for j, i in enumerate(idx):
            out[indptr[j]:indptr[j + 1]] = self.indices[
                self.indptr[i]:self.indptr[i + 1]
            ]
        return SetCollection(indptr, out, self.universe)

    def __iter__(self) -> Iterable[np.ndarray]:
        for i in range(len(self)):
            yield self.row(i)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SetCollection)
            and self.universe == other.universe
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self):  # mutable ndarrays inside; match list/dict usage
        return id(self)

    def __repr__(self) -> str:
        return (
            f"SetCollection(n={len(self)}, universe={self.universe}, "
            f"nnz={self.indices.size})"
        )

    # -- pickling --------------------------------------------------------
    def __reduce__(self):
        # Plain ndarray fields: the array detour of repro.core.arena
        # takes them out of the pickle (to the shared-memory arena or to
        # sidecar files), and pool pinning finds them by the same walk.
        return (SetCollection, (self.indptr, self.indices, self.universe))

    # -- conversions -----------------------------------------------------
    def to_dense(self, dtype=np.float64) -> np.ndarray:
        """Dense ``(n, universe)`` binary matrix (MinHash kernel input)."""
        out = np.zeros(self.shape, dtype=dtype)
        rows = np.repeat(np.arange(len(self)), self.sizes)
        out[rows, self.indices] = 1
        return out

    def to_scipy(self, dtype=np.int32):
        """``scipy.sparse`` CSR matrix of ones (``dtype``), ``shape``
        ``(n, universe)``."""
        from scipy import sparse

        ones = np.ones(self.indices.size, dtype=dtype)
        # int32 indices when they fit, so scipy neither scans nor recasts.
        fits = max(self.indices.size, *self.shape) < 2**31
        index = np.int32 if fits else np.int64
        return sparse.csr_matrix(
            (ones, self.indices.astype(index), self.indptr.astype(index)),
            shape=self.shape,
        )

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "SetCollection":
        """CSR form of a dense binary matrix (any numeric dtype)."""
        X = np.asarray(X)
        if X.ndim != 2:
            raise ParameterError(f"dense set matrix must be 2-D, got {X.ndim}-D")
        if X.size and not np.isin(np.unique(X), (0, 1)).all():
            raise ParameterError("dense set matrix entries must be 0/1")
        rows, cols = np.nonzero(X)
        indptr = np.zeros(X.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=X.shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(np.int64), X.shape[1])

    @classmethod
    def from_lists(
        cls, lists: Sequence[Iterable[int]], universe: int
    ) -> "SetCollection":
        """Build from per-row member iterables; duplicates are dropped."""
        rows = [np.unique(np.asarray(list(r), dtype=np.int64)) for r in lists]
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum([r.size for r in rows], out=indptr[1:])
        indices = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )
        return cls(indptr, indices.astype(np.int64), universe)

    @classmethod
    def concat(cls, parts: Sequence["SetCollection"]) -> "SetCollection":
        """The rows of ``parts`` in order, as one collection (CSR row
        concatenation); every part must share one universe."""
        if len({part.universe for part in parts}) != 1:
            raise ParameterError("concat needs collections over one universe")
        indptr, nnz = [np.zeros(1, dtype=np.int64)], 0
        for part in parts:
            indptr.append(part.indptr[1:] + nnz)
            nnz += part.indices.size
        indices = np.concatenate([part.indices for part in parts])
        return cls(np.concatenate(indptr), indices, parts[0].universe)

    @classmethod
    def coerce(cls, obj, name: str = "sets") -> "SetCollection":
        """Accept a ``SetCollection``, dense binary matrix, or list of sets."""
        if isinstance(obj, cls):
            return obj
        if isinstance(obj, np.ndarray):
            return cls.from_dense(obj)
        if isinstance(obj, (list, tuple)):
            raise ParameterError(
                f"{name}: pass SetCollection.from_lists(rows, universe) for "
                "ragged python lists (the universe size is ambiguous)"
            )
        raise ParameterError(
            f"{name} must be a SetCollection or dense 0/1 matrix, "
            f"got {type(obj).__name__}"
        )


def jaccard_pair(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted member arrays; empty-vs-empty is 0."""
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 0.0


def planted_jaccard_sets(
    n: int,
    n_queries: int,
    universe: int,
    mean_size: int,
    threshold: float = 0.6,
    exponent: float = 1.1,
    seed: SeedLike = None,
) -> tuple:
    """Planted Jaccard workload: ``(P, Q)`` as :class:`SetCollection`.

    ``P`` is Zipfian background data; each query resamples a random base
    set of ``P`` keeping a fraction of its members and adding fresh ones
    so that the planted pair's Jaccard concentrates above ``threshold``
    while random pairs stay far below it (skewed sets overlap on hot
    elements, so the gap — not emptiness — is what makes the instance a
    recall test).
    """
    if not 0.0 < threshold < 1.0:
        raise ParameterError(f"threshold must be in (0, 1), got {threshold}")
    rng = ensure_rng(seed)
    P_dense = zipfian_sets(n, universe, mean_size, exponent=exponent, seed=rng)
    P = SetCollection.from_dense(P_dense)
    # keep-fraction f gives Jaccard >= f/(2-f) when the query keeps f|b|
    # members and adds (1-f)|b| fresh ones; invert for the target.
    keep = min(1.0, 2 * threshold / (1 + threshold) + 0.1)
    bases = rng.integers(0, n, size=n_queries)
    rows = []
    for b in bases:
        members = P.row(int(b))
        k = max(1, int(round(keep * members.size)))
        kept = rng.choice(members, size=min(k, members.size), replace=False)
        n_fresh = members.size - kept.size
        if n_fresh > 0:
            fresh = rng.integers(0, universe, size=2 * n_fresh + 4)
            fresh = np.setdiff1d(fresh, members)[:n_fresh]
            kept = np.concatenate([kept, fresh])
        rows.append(kept)
    Q = SetCollection.from_lists(rows, universe)
    return P, Q


def ov_jaccard_gadget(
    n: int,
    m: int,
    d: int,
    seed: SeedLike = None,
) -> tuple:
    """Orthogonal-vectors instance as sets: ``(P, Q)`` over ``3 d`` elements.

    The set-valued OV gadget after Pagh, Stausholm and Thorup
    (arXiv:1907.02251), whose reduction makes exact Jaccard closest pair
    OV-hard.  Coordinate ``i`` owns elements ``x_i, y_i, z_i``
    (``3i, 3i + 1, 3i + 2``).  A data vector ``a`` becomes
    ``{x_i : a_i = 0} | {y_i : a_i = 1}`` (``d`` members) and a query
    vector ``b`` becomes ``{x_i} | {y_i : b_i = 0} | {z_i : b_i = 1}``
    (``2 d`` members), so ``|A & B| = d - a.b`` and
    ``J(A, B) = (d - a.b) / (2 d + a.b)``: exactly 1/2 for an orthogonal
    pair and below 1/2 for every other.  The threshold ``s = 1/2`` thus
    asks for the orthogonal pairs, and every query overlaps every data
    set, so no filter can prune.

    Each data coordinate is balanced (``a_i = 1`` in ``n // 2`` rows),
    so every ``x_i`` and ``y_i`` lies in about half the data sets: the
    element frequencies are flat.  Query vectors have density 1/2, and
    the even-numbered ones are planted orthogonal to a random data
    vector.
    """
    if n < 2 or m < 1 or d < 1:
        raise ParameterError(
            f"need n >= 2, m >= 1 and d >= 1, got n={n}, m={m}, d={d}")
    rng = ensure_rng(seed)
    balanced = np.arange(n) < n // 2
    A = np.stack([rng.permutation(balanced) for _ in range(d)], axis=1)
    B = rng.random((m, d)) < 0.5
    B[::2] &= ~A[rng.integers(0, n, size=B[::2].shape[0])]
    coords = 3 * np.arange(d)
    P = SetCollection.from_lists(
        [np.where(a, coords + 1, coords) for a in A], 3 * d)
    Q = SetCollection.from_lists(
        [np.concatenate([coords, np.where(b, coords + 2, coords + 1)])
         for b in B], 3 * d)
    return P, Q


def zipfian_sets(
    n: int,
    universe: int,
    mean_size: int,
    exponent: float = 1.1,
    seed: SeedLike = None,
) -> np.ndarray:
    """Binary matrix of ``n`` sets over ``universe`` elements.

    Each set's size is Poisson around ``mean_size`` (clamped to at least 1)
    and its elements are drawn without replacement with probabilities
    proportional to ``rank^{-exponent}``.
    """
    if n <= 0 or universe <= 1:
        raise ParameterError(f"need n >= 1 and universe >= 2, got n={n}, universe={universe}")
    if not 1 <= mean_size <= universe:
        raise ParameterError(f"mean_size must be in [1, universe], got {mean_size}")
    if exponent <= 0:
        raise ParameterError(f"exponent must be positive, got {exponent}")
    rng = ensure_rng(seed)

    weights = np.arange(1, universe + 1, dtype=np.float64) ** (-exponent)
    weights /= weights.sum()

    out = np.zeros((n, universe), dtype=np.int64)
    sizes = np.maximum(1, rng.poisson(mean_size, size=n))
    np.minimum(sizes, universe, out=sizes)
    for i in range(n):
        members = rng.choice(universe, size=int(sizes[i]), replace=False, p=weights)
        out[i, members] = 1
    return out
