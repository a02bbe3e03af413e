"""Exact and MinHash-filtered Jaccard set-join chunk kernels.

The Jaccard analogues of :mod:`repro.core.brute_force` /
:mod:`repro.core.topk`: every kernel here
operates on one contiguous query chunk of a :class:`SetCollection` and
returns the ``(matches, evaluated, generated, stats)`` tuple the engine's
chunk contract expects, with the same determinism guarantees — strict
improvement / stable ranking keeps the lowest-index maximizer, so block
size, chunking, and worker count never change results.

Both kernels work on a whole query block at a time; no step loops over
queries in Python.  The exact scan keeps ``P`` transposed as a sparse
element x row matrix (the inverted postings) and gets every
intersection size of a block from one sparse product
``CSR(Q_block) x CSR(P^T)`` (cost = total posting length of the
members it walks, the set analogue of one GEMM).  Skewed data's most
frequent elements (the *head*) are kept apart as one bitmap word per
set, so a query that cannot reach the threshold on head elements alone
walks only its other members' postings and counts its head overlap
with one popcount per surviving pair.  The MinHash index partitions
``P`` by set size (the ``MinHashLSHEnsemble`` idea: a size-incompatible
partition cannot reach the threshold, so it is never probed) and fuses
all ``partitions x tables`` bucket tables into one sorted composite-key
array, so probing a block is one pair of binary searches; candidates
are verified exactly against a bitmap of the block, so the filter only
affects recall, never precision.  Scored pairs become answers through
the reducer the inner-product pipeline uses
(:func:`repro.core.verify._answers`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.core.problems import QueryStats
from repro.core.verify import BlockVerification, _answers
from repro.datasets.sets import SetCollection
from repro.errors import ParameterError
from repro.lsh.batch_hash import CHUNK_ELEMS
from repro.lsh.csr import CandidateBlock, budget_blocks, sorted_unique
from repro.lsh.minhash import MinHash
from repro.obs.trace import span
from repro.quant.bitpack import popcount_words

#: Default MinHash banding: 32 tables of 4 fused minima per key.  At the
#: bench's planted threshold (J >= 0.6) a true pair collides in at least
#: one table with probability ``1 - (1 - 0.6^4)^32 ~ 0.989``.
DEFAULT_MINHASH_TABLES = 32
DEFAULT_MINHASH_HASHES = 4
DEFAULT_MINHASH_PARTITIONS = 8

#: Relative margin under ``cs |q|`` kept by the scan's score filter, so
#: rounding in the float Jaccard can never drop a pair scoring ``>= cs``.
_SCORE_SLACK = 1.0 - 1e-12

#: Most head elements one ``int64`` word holds with every mask positive.
HEAD_BITS = 63


def _multi_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` for each pair, vectorized."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    keep = lens > 0
    starts, lens = starts[keep], lens[keep]
    out = np.ones(total, dtype=np.int64)
    out[0] = starts[0]
    pos = np.cumsum(lens)[:-1]
    out[pos] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    return np.cumsum(out)


def _searchsorted(sorted_values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.searchsorted`` with the keys visited in ascending order.

    Each binary search then starts from the previous hit, which on a
    large array is several times faster than searching in key order.
    """
    ascending = np.argsort(keys, axis=None)
    out = np.empty(keys.size, dtype=np.int64)
    out[ascending] = np.searchsorted(sorted_values, keys.ravel()[ascending])
    return out.reshape(keys.shape)


def _jaccard_scores(
    inter: np.ndarray, sizes_p: np.ndarray, sizes_q: np.ndarray
) -> np.ndarray:
    union = sizes_p + sizes_q - inter
    # union == 0 only for empty-vs-empty pairs, defined as similarity 0.
    return np.where(union > 0, inter / np.maximum(union, 1), 0.0)


def _record(
    stats: QueryStats, generated: np.ndarray, evaluated: np.ndarray
) -> Tuple[int, int]:
    """Fold per-query work counts into ``stats``; returns their totals."""
    total_generated, total_evaluated = int(generated.sum()), int(evaluated.sum())
    stats.record_batch(generated.size, total_generated, total_evaluated)
    return total_generated, total_evaluated


def _head(df: np.ndarray) -> np.ndarray:
    """The head of a posting-length vector, ascending.

    The head is the (at most ``HEAD_BITS``) most frequent elements whose
    posting list is at least twice the mean posting length; ties at the
    cut go to the lower element.  Flat data has no such element, so its
    head is empty.
    """
    df = df.astype(np.int64)
    hot = np.flatnonzero(df >= max(-(-2 * int(df.sum()) // df.size), 1))
    return np.sort(hot[np.argsort(-df[hot], kind="stable")[:HEAD_BITS]])


class SetPostings:
    """Inverted index of a :class:`SetCollection`: element -> member rows.

    ``matrix`` is ``P^T`` as a sparse ``(universe, n)`` CSR matrix of
    ones: row ``e`` lists (ascending) the rows whose sets contain element
    ``e``.  The head (:func:`_head`) is also kept as bitmaps:
    ``masks`` holds each element's bit (0 off the head) and ``words``
    each set's head members, so ``popcount(words[p] & w)`` is a set's
    head overlap with a query word ``w``.  Both are empty when the head
    is empty.  Built once per join and shared read-only across workers.
    """

    __slots__ = ("matrix", "sizes", "masks", "words")

    def __init__(self, sets: SetCollection):
        # Transposing the 0/1 pattern with 1-byte ones moves a quarter of
        # the data bytes int32 ones would (it pays for the head words);
        # the postings then get the int32 ones the product sums.
        rows = sets.to_scipy(np.int8)
        postings = rows.T.tocsr()
        self.matrix = sparse.csr_matrix(
            (np.ones(postings.nnz, dtype=np.int32), postings.indices,
             postings.indptr), shape=postings.shape)
        self.sizes = sets.sizes.astype(np.int64)
        head = _head(np.diff(self.matrix.indptr))
        self.masks = np.empty(0, dtype=np.int64)
        self.words = np.empty(0, dtype=np.int64)
        if head.size:
            self.masks = np.zeros(sets.universe, dtype=np.int64)
            self.masks[head] = 1 << np.arange(head.size, dtype=np.int64)
            # Distinct powers of two sum to their OR.
            self.words = rows @ self.masks

    def walk(self, Q: SetCollection, need: np.ndarray):
        """The members each query walks: ``(walked, words, bound)``.

        A query is *light* when its head members alone cannot supply the
        ``need`` overlap: every row it can match then shares one of its
        other members, so it walks only those, and a row survives once
        its walked overlap reaches ``bound = need - |q & head|``.
        ``words`` holds each light query's head word (0 for heavy ones,
        which walk every member against ``bound = need``).  With an
        empty head ``Q`` walks unchanged and ``words`` is ``None``.
        """
        if not self.masks.size:
            return Q, None, need
        words = Q.to_scipy() @ self.masks
        in_head = popcount_words(words.view(np.uint64)).astype(np.int64)
        light = in_head < need
        words[~light] = 0
        in_head[~light] = 0
        keep = (self.masks[Q.indices] == 0) | ~np.repeat(light, Q.sizes)
        indptr = np.zeros_like(Q.indptr)
        np.cumsum(Q.sizes - in_head, out=indptr[1:])
        walked = SetCollection(indptr, Q.indices[keep], Q.universe)
        return walked, words, need - in_head

    def gathered(self, Q: SetCollection) -> np.ndarray:
        """Running posting-entry count over ``Q``'s rows, ``(len(Q) + 1,)``:
        each query's pairs gathered with multiplicity, cumulated."""
        df = np.diff(self.matrix.indptr)
        cum = np.zeros(Q.indices.size + 1, dtype=np.int64)
        np.cumsum(df[Q.indices], out=cum[1:])
        return cum[Q.indptr]

    def overlaps(self, Q: SetCollection):
        """``(indptr, rows, intersection_sizes)``: every overlapping pair
        in CSR form, from one sparse product ``Q x P^T``.

        Pairs come grouped by query; rows inside a group are unordered.
        """
        product = Q.to_scipy() @ self.matrix
        return product.indptr, product.indices, product.data


def _scan(
    postings: SetPostings,
    Q_chunk: SetCollection,
    cs: float,
    *,
    k: Optional[int] = None,
    self_start: Optional[int] = None,
    match_duplicates: bool = True,
):
    """The exact scan behind every ``set_scan`` variant.

    Jaccard is at most ``|p & q| / |q|``, so a pair with
    ``|p & q| < need = cs |q|`` (less a rounding margin) can neither
    match nor enter a top-k list.  Each query walks the postings
    :meth:`SetPostings.walk` picks; every row that shares a walked
    member counts as evaluated, but only rows whose walked overlap
    reaches the query's bound are kept, topped up with their exact head
    overlap, and scored if they still reach ``need``.  Query blocks are
    sized so each product walks at most ``CHUNK_ELEMS`` posting entries.
    A query's pairs generated are the posting entries it walks, but 0
    when no row is left to evaluate (a self-join query overlapping only
    itself).
    """
    out: list = []
    stats = QueryStats()
    need = np.ceil(cs * Q_chunk.sizes * _SCORE_SLACK).astype(np.int64)
    walked, words, bound = postings.walk(Q_chunk, need)
    cum = postings.gathered(walked)
    for lo, hi in budget_blocks(cum, CHUNK_ELEMS):
        Q = Q_chunk[lo:hi]
        indptr, rows, inter = postings.overlaps(walked[lo:hi])
        overlapping = np.diff(indptr)
        pos = np.flatnonzero(inter >= np.repeat(bound[lo:hi], overlapping))
        qids = np.searchsorted(indptr, pos, side="right") - 1
        rows, inter = rows[pos].astype(np.int64), inter[pos]
        if words is not None:
            head = (words[lo + qids] & postings.words[rows]).view(np.uint64)
            inter = inter + popcount_words(head).astype(inter.dtype)
            keep = inter >= need[lo + qids]
            qids, rows, inter = qids[keep], rows[keep], inter[keep]
        if self_start is not None:
            # The self pair (Jaccard 1) always clears the filter, so it
            # is dropped here and from the evaluated counts.
            own = rows == self_start + lo + qids
            overlapping = overlapping - np.bincount(qids[own], minlength=hi - lo)
            qids, rows, inter = qids[~own], rows[~own], inter[~own]
        scores = _jaccard_scores(inter, postings.sizes[rows], Q.sizes[qids])
        if self_start is not None and not match_duplicates:
            scores[scores >= 1.0] = -np.inf
        out.extend(_answers(qids, rows, scores, hi - lo, cs, k))
        _record(stats, np.where(overlapping > 0, np.diff(cum[lo:hi + 1]), 0),
                overlapping)
    return out, stats.unique_candidates, stats.candidates, stats


def jaccard_scan_chunk(
    postings: SetPostings,
    Q_chunk: SetCollection,
    cs: float,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Exact Jaccard threshold scan over one contiguous query chunk.

    Returns ``(matches, scores_evaluated, pairs_generated, stats)``; the
    lowest-index maximizer is reported, so results are chunking- and
    worker-independent.
    """
    with span("set_scan", n_queries=len(Q_chunk)):
        return _scan(postings, Q_chunk, cs)


def jaccard_topk_chunk(
    postings: SetPostings,
    Q_chunk: SetCollection,
    cs: float,
    k: int,
) -> Tuple[List[List[int]], int, int, QueryStats]:
    """Exact Jaccard top-k lists (ranked by score, ties to lower index)."""
    with span("set_scan_topk", n_queries=len(Q_chunk)):
        return _scan(postings, Q_chunk, cs, k=k)


def jaccard_self_chunk(
    postings: SetPostings,
    Q_chunk: SetCollection,
    start: int,
    cs: float,
    match_duplicates: bool,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Exact Jaccard self-join over ``P[start:start+len(Q_chunk)]``.

    The self pair is masked by *global* row index; with
    ``match_duplicates`` off, rows whose sets equal the query set
    (Jaccard exactly 1) are masked too.
    """
    with span("set_scan_self", n_queries=len(Q_chunk)):
        return _scan(postings, Q_chunk, cs, self_start=start,
                     match_duplicates=match_duplicates)


def hash_sets(tables, sets: SetCollection, side: str = "data") -> np.ndarray:
    """Fused MinHash keys ``(n, n_tables)`` of a collection, hashed
    straight from its CSR arrays."""
    return tables.hash_csr(sets.indptr, sets.indices, side=side)


class MinHashSetIndex:
    """Size-partitioned MinHash bucket index over a :class:`SetCollection`.

    ``P`` is split into ``num_part`` equal-count partitions by set size
    (the ensemble trick): a partition whose size range ``[lo, hi]``
    cannot reach Jaccard ``t`` against a query of size ``q`` — i.e.
    ``hi < t*q`` or ``lo > q/t`` — is skipped entirely at query time.

    The ``num_part x n_tables`` bucket tables are fused into one sorted
    array of composite keys ``slot * n_codes + code`` (``slot`` =
    partition x table, ``code`` = the rank of the fused MinHash key among
    the data's distinct keys) with a parallel array of row ids, the
    :mod:`repro.lsh.csr` layout: every lookup of a query block is one
    pair of binary searches.
    """

    def __init__(
        self,
        P: SetCollection,
        *,
        n_tables: int = DEFAULT_MINHASH_TABLES,
        hashes_per_table: int = DEFAULT_MINHASH_HASHES,
        num_part: int = DEFAULT_MINHASH_PARTITIONS,
        seed: int = 0,
    ):
        if n_tables < 1 or hashes_per_table < 1 or num_part < 1:
            raise ParameterError(
                "n_tables, hashes_per_table and num_part must all be >= 1"
            )
        n, universe = P.shape
        self.P = P
        self.n_tables = int(n_tables)
        self.sizes = P.sizes.astype(np.int64)
        rng = np.random.default_rng(seed)
        self.tables = MinHash(universe).sample_batch(
            rng, hashes_per_table, n_tables
        )
        keys = hash_sets(self.tables, P, side="data")
        order = np.argsort(self.sizes, kind="stable")
        num_part = min(int(num_part), n)
        bounds = np.linspace(0, n, num_part + 1).astype(np.int64)
        part = np.empty(n, dtype=np.int64)
        part[order] = np.repeat(np.arange(num_part), np.diff(bounds))
        self.part_lo = self.sizes[order[bounds[:-1]]]
        self.part_hi = self.sizes[order[bounds[1:] - 1]]
        flat = keys.ravel()
        by_key = np.argsort(flat, kind="stable")
        distinct = np.ones(flat.size, dtype=bool)
        np.not_equal(flat[by_key[1:]], flat[by_key[:-1]], out=distinct[1:])
        self.codes = flat[by_key[distinct]]
        code = np.empty(flat.size, dtype=np.int64)
        code[by_key] = np.cumsum(distinct) - 1
        slots = part[:, None] * self.n_tables + np.arange(self.n_tables)
        fused = slots.ravel() * self.codes.size + code
        key_order = np.argsort(fused, kind="stable")
        self.fused_keys = fused[key_order]
        self.fused_rows = key_order // self.n_tables

    def candidates(
        self, q_keys: np.ndarray, q_sizes: np.ndarray, threshold: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Colliding pairs of a query block: ``(qids, rows, multiplicity)``.

        ``qids`` / ``rows`` list each distinct ``(query, row)`` pair once,
        grouped by query with rows ascending; ``multiplicity[i]`` counts
        query ``i``'s bucket hits across all probed tables.
        """
        n_queries = q_keys.shape[0]
        multiplicity = np.zeros(n_queries, dtype=np.int64)
        if self.codes.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, multiplicity
        code = np.minimum(_searchsorted(self.codes, q_keys), self.codes.size - 1)
        known = self.codes[code] == q_keys                          # (B, T)
        q_sizes = np.asarray(q_sizes)[:, None]
        fits = (q_sizes > 0) & ~(
            (self.part_hi < threshold * q_sizes)
            | (self.part_lo * threshold > q_sizes)
        )                                                           # (B, parts)
        probe = fits[:, :, None] & known[:, None, :]                # (B, parts, T)
        qid, part, table = np.nonzero(probe)
        slot = part * self.n_tables + table
        composite = slot * self.codes.size + code[qid, table]
        ascending = np.argsort(composite)
        qid, composite = qid[ascending], composite[ascending]
        left = np.searchsorted(self.fused_keys, composite, side="left")
        hits = np.searchsorted(self.fused_keys, composite, side="right") - left
        np.add.at(multiplicity, qid, hits)
        rows = self.fused_rows[_multi_arange(left, hits)]
        n = len(self.P)
        pairs = sorted_unique(np.repeat(qid, hits) * n + rows)
        return pairs // n, pairs % n, multiplicity

    def verify(
        self, Q: SetCollection, qids: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Exact Jaccard of each ``(query, row)`` pair of a query block,
        the pairs grouped by ascending query: :func:`verify_set_block`."""
        block = CandidateBlock.from_pairs(qids, rows, len(Q))
        return verify_set_block(self.P, Q, block).scores


def verify_set_block(
    P: SetCollection,
    Q: SetCollection,
    block: CandidateBlock,
    signed: bool = True,
) -> BlockVerification:
    """Score every candidate pair of one query block by exact Jaccard.

    The ``jaccard`` measure's block scorer, the set analogue of
    :func:`repro.core.verify.verify_block` (``signed`` is accepted for
    the shared signature; Jaccard is never negative).  The block's
    members go into a ``(queries, universe)`` bitmap; the candidate
    rows' members are gathered against it and the hits summed per pair
    with one ``bincount``.  Queries are taken ``CHUNK_ELEMS // universe``
    at a time to bound the bitmap.
    """
    universe = P.universe
    qids, rows, indptr = block.qids(), block.rows, block.indptr
    scores = np.empty(rows.size, dtype=np.float64)
    step = max(1, CHUNK_ELEMS // universe)
    for lo in range(0, len(Q), step):
        Qb = Q[lo:lo + step]
        a, b = indptr[lo], indptr[lo + len(Qb)]
        q, r = qids[a:b] - lo, rows[a:b]
        bitmap = np.zeros(len(Qb) * universe, dtype=bool)
        bitmap[np.repeat(np.arange(len(Qb)) * universe, Qb.sizes)
               + Qb.indices] = True
        starts = P.indptr[r]
        lens = P.indptr[r + 1] - starts
        members = P.indices[_multi_arange(starts, lens)]
        pair = np.repeat(np.arange(r.size), lens)
        hit = bitmap[np.repeat(q * universe, lens) + members]
        inter = np.bincount(pair[hit], minlength=r.size)
        scores[a:b] = _jaccard_scores(inter, lens, Qb.sizes[q])
    return BlockVerification(block, scores, int(rows.size))


def minhash_join_chunk(
    index: MinHashSetIndex,
    Q_chunk: SetCollection,
    cs: float,
    *,
    k: Optional[int] = None,
    self_start: Optional[int] = None,
    match_duplicates: bool = True,
):
    """Filter-then-verify Jaccard join over one contiguous query chunk.

    Handles all three variants: threshold (default), top-k (``k`` set),
    and self-join (``self_start`` set to the chunk's global offset into
    ``P``).  Returns ``(matches_or_topk, evaluated, generated, stats)``.
    """
    stats = QueryStats()
    q_keys = hash_sets(index.tables, Q_chunk, side="query")
    with span("minhash_probe", n_queries=len(Q_chunk)):
        qids, rows, multiplicity = index.candidates(q_keys, Q_chunk.sizes, cs)
        if self_start is not None:
            keep = rows != self_start + qids
            qids, rows = qids[keep], rows[keep]
        scores = index.verify(Q_chunk, qids, rows)
        if self_start is not None and not match_duplicates:
            scores[scores >= 1.0] = -np.inf
        out = _answers(qids, rows, scores, len(Q_chunk), cs, k)
        generated, evaluated = _record(
            stats, multiplicity, np.bincount(qids, minlength=len(Q_chunk))
        )
    return out, evaluated, generated, stats
