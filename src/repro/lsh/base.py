"""The (asymmetric) LSH framework — Definition 2 of the paper.

An asymmetric LSH family is a distribution over *pairs* of hash functions
``(h_p, h_q)``; two vectors collide when ``h_p(p) == h_q(q)``.  Symmetric
families are the special case ``h_p == h_q``.  Every concrete family in
this package implements :class:`AsymmetricLSHFamily` by returning a
:class:`HashFunctionPair` from :meth:`sample`; symmetric families derive
from :class:`LSHFamily`, which wires both sides to the same function.

Batch hashing protocol
----------------------

The per-vector interface (one Python closure call per vector) is the
flexible reference, but it makes hashing the bottleneck of every index
built on a non-sign family.  :meth:`AsymmetricLSHFamily.sample_batch`
is the vectorized alternative: it samples all ``L x k`` hash functions
of a multi-table index at once and returns a :class:`BatchHashTables`
whose :meth:`~BatchHashTables.hash_matrix` maps a whole matrix to one
``(n, n_tables)`` int64 key array — typically a single GEMM plus a
vectorized key-packing step.  Families that implement it MUST draw
random variates from the generator in exactly the order the per-vector
path would (``L * k`` successive :meth:`sample` calls), so that a batch
index and a per-vector index built from the same seed hash with
*identical* functions; :meth:`BatchHashTables.hash_rows` is the per-row
reference evaluation used to equivalence-test the vectorized kernels.
The default :meth:`sample_batch` returns ``None``, meaning "no native
batch path" — callers fall back to the generic per-row wrapper
(:class:`repro.lsh.batch_hash.GenericHashTables`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Hashable, Optional

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng

HashValue = Hashable

#: Query-side key for "this bucket cannot exist in the data": guaranteed
#: never to equal any data-side key emitted by :class:`BatchHashTables`.
MISS_KEY = np.int64(-1)

#: Sides accepted by :meth:`BatchHashTables.hash_matrix`.
HASH_SIDES = ("data", "query")


class BatchHashTables(abc.ABC):
    """``n_tables`` tables of ``hashes_per_table``-wise AND-composed hashes.

    One object represents every hash function of a multi-table index.
    ``hash_matrix(X, side)`` returns an ``(n, n_tables)`` int64 key
    array: entry ``(i, t)`` is the fused key of vector ``i`` in table
    ``t`` (the AND composition of that table's ``hashes_per_table``
    component hashes).  Data-side keys are always ``>= 0``; query-side
    keys may be :data:`MISS_KEY` when the query provably matches no data
    bucket.  Keys are representation-level: two vectors share a bucket
    iff their keys are equal, which is all an index needs.
    """

    #: False for the per-row fallback wrapper; tests use this to fail
    #: loudly when a family silently loses its vectorized path.
    is_native = True

    def __init__(self, n_tables: int, hashes_per_table: int):
        self.n_tables = int(n_tables)
        self.hashes_per_table = int(hashes_per_table)

    @staticmethod
    def _check_side(side: str) -> str:
        if side not in HASH_SIDES:
            raise ValueError(f"side must be one of {HASH_SIDES}, got {side!r}")
        return side

    @abc.abstractmethod
    def hash_matrix(self, X, side: str = "data") -> np.ndarray:
        """Fused ``(n, n_tables)`` int64 bucket keys for every row of ``X``.

        ``X`` must be finite: :class:`~repro.lsh.index.LSHIndex` checks
        its input once, at ``build`` and ``candidates_batch``, and the
        kernels hash it without a second scan.
        """

    @abc.abstractmethod
    def hash_rows(self, X, side: str = "data") -> np.ndarray:
        """Per-row reference evaluation; must equal :meth:`hash_matrix` exactly."""


@dataclass(frozen=True)
class HashFunctionPair:
    """One sampled hash function pair ``(h_data, h_query)``.

    ``hash_data`` is the paper's ``h_p`` (applied to data vectors),
    ``hash_query`` its ``h_q`` (applied to queries).  Values must be
    hashable so they can key buckets.
    """

    hash_data: Callable[[np.ndarray], HashValue]
    hash_query: Callable[[np.ndarray], HashValue]

    def collides(self, p, q) -> bool:
        """Whether data vector ``p`` and query ``q`` collide under this pair."""
        return self.hash_data(np.asarray(p)) == self.hash_query(np.asarray(q))


class AsymmetricLSHFamily(abc.ABC):
    """A distribution over hash-function pairs (Definition 2)."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator) -> HashFunctionPair:
        """Draw one hash function pair."""

    def sample_batch(
        self,
        rng: np.random.Generator,
        hashes_per_table: int,
        n_tables: int,
    ) -> Optional[BatchHashTables]:
        """Sample all ``n_tables * hashes_per_table`` functions vectorized.

        Returns ``None`` when the family has no native batch path (the
        base-class default).  Implementations must consume ``rng`` in
        exactly the order ``n_tables * hashes_per_table`` successive
        :meth:`sample` calls would, so batch and per-vector indexes
        built from the same seed use identical hash functions.
        """
        return None

    @property
    def is_symmetric(self) -> bool:
        """True when ``h_p == h_q`` always (traditional LSH)."""
        return False


class LSHFamily(AsymmetricLSHFamily):
    """A symmetric LSH family: one function used on both sides."""

    @abc.abstractmethod
    def sample_function(self, rng: np.random.Generator) -> Callable[[np.ndarray], HashValue]:
        """Draw one hash function."""

    def sample(self, rng: np.random.Generator) -> HashFunctionPair:
        h = self.sample_function(rng)
        return HashFunctionPair(hash_data=h, hash_query=h)

    @property
    def is_symmetric(self) -> bool:
        return True


def estimate_collision_probability(
    family: AsymmetricLSHFamily,
    p,
    q,
    trials: int = 1000,
    seed: SeedLike = None,
) -> float:
    """Monte-Carlo estimate of ``Pr[h_p(p) == h_q(q)]``.

    The standard error is about ``sqrt(P (1-P) / trials)``; callers that
    compare against closed forms should budget trials accordingly.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = ensure_rng(seed)
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    hits = sum(1 for _ in range(trials) if family.sample(rng).collides(p, q))
    return hits / trials


def empirical_gap(
    family: AsymmetricLSHFamily,
    data: np.ndarray,
    queries: np.ndarray,
    above_pairs,
    below_pairs,
    trials: int = 500,
    seed: SeedLike = None,
) -> tuple:
    """Estimate ``(P1, P2)`` over explicit sets of (query, data) index pairs.

    ``P1`` is the *minimum* estimated collision probability over
    ``above_pairs`` (pairs that must collide often) and ``P2`` the
    *maximum* over ``below_pairs`` — exactly the quantities Definition 2
    constrains, evaluated on a concrete instance.  Hash functions are
    sampled once and reused across all pairs so the estimates are
    positively correlated (cheaper and conservative for the gap).
    """
    rng = ensure_rng(seed)
    data = np.asarray(data, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    pairs = [family.sample(rng) for _ in range(trials)]

    def collision_rate(i: int, j: int) -> float:
        q, p = queries[i], data[j]
        return sum(1 for h in pairs if h.collides(p, q)) / trials

    p1 = min(collision_rate(i, j) for i, j in above_pairs)
    p2 = max(collision_rate(i, j) for i, j in below_pairs)
    return p1, p2
