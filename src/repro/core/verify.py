"""Exact verification: the IP scorer and the one answer reducer.

Every filter-then-verify algorithm in this package ends the same way:
a generator proposes candidate pairs as a
:class:`~repro.lsh.csr.CandidateBlock`, exact inner products score
them, and the pairs clearing a threshold become answers.  This module
holds the two shared steps.

:func:`verify_block` scores a whole query *block* at once: gather the
union of the block's candidate rows, multiply once —

    G = P[union] @ Q_block.T        # (|union|, block) — a single GEMM

— and pick each pair's value out of ``G`` by position.  When candidate
sets within a block overlap (hot rows landing in every query's buckets
— skewed norms, clustered data, popular items), ``|union|`` sits far
below the number of pairs and the GEMM does less arithmetic than the
GEMVs it replaces, at several times the throughput.  When they do *not*
overlap (uniform data, tight buckets), the union GEMM would multiply
``|union| x block`` pairs to use a few of them, so the scorer applies a
per-block cost test (``|union| * block <= GEMM_ADVANTAGE * pairs``) and
falls back to one GEMV per query for sparse-overlap blocks.  A
one-query block is its own union: it takes one ``P[rows] @ q`` with no
union sort and no inverse map.  The test depends only on the block, so
the chosen strategy — and the exact sequence of BLAS calls — is
identical no matter which process scores the block.

:func:`_answers` turns scored ``(query, row)`` pairs into answers, for
both measures (the Jaccard kernels in :mod:`repro.core.set_join` use it
too).  Threshold joins keep the lowest-index best pair scoring at least
``cs``; top-k joins keep the pairs scoring at least ``cs`` ordered by
``(-score, index)`` and cut to ``k``.  Every backend breaks ties this
way, so answers never depend on which backend ``auto`` picks.

The top-k rule is two cuts, each defined once here: the dense cut
(:func:`_dense_topk_mask`) of a score tile, which the exact scans of
:mod:`repro.core.topk` and :mod:`repro.core.norm_pruning` take before
building pairs, and the pair-level cut (:func:`_topk_pairs`), which ends
:func:`_answers` and merges each norm-pruned step into the kept pairs.

Work accounting: ``n_evaluated`` counts **candidate pairs**, the paper's
work measure, not the GEMM's ``|union| * block`` products — the measure
must stay comparable across the serial, blocked, and process-parallel
paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.lsh.csr import CandidateBlock, sorted_unique
from repro.obs.metrics import current_metrics

DEFAULT_BLOCK = 256

#: The union GEMM is taken when it does at most this factor more raw
#: multiplies than the candidate pairs require — roughly the throughput
#: edge a large dgemm holds over a stream of small dgemvs.
GEMM_ADVANTAGE = 4.0


def _group_best(qids: np.ndarray, rows: np.ndarray, scores: np.ndarray):
    """Per non-empty query group (pairs grouped by ascending query):
    ``(query, best score, lowest row holding it)``."""
    first = np.empty(qids.size, dtype=bool)
    first[0] = True
    np.not_equal(qids[1:], qids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    top = np.maximum.reduceat(scores, starts)
    at_top = scores == top[np.cumsum(first) - 1]
    lowest = np.minimum.reduceat(
        np.where(at_top, rows, np.iinfo(rows.dtype).max), starts
    )
    return qids[starts], top, lowest


def _kth_best(qids: np.ndarray, scores: np.ndarray, n_queries: int,
              k: int) -> np.ndarray:
    """Per query (pairs grouped by ascending query), its ``k``-th best
    score; ``-inf`` for a query with at most ``k`` pairs."""
    sizes = np.bincount(qids, minlength=n_queries)
    kth = np.full(n_queries, -np.inf)
    crowded = np.flatnonzero(sizes > k)
    if crowded.size:
        slot = np.full(n_queries, -1)
        slot[crowded] = np.arange(crowded.size)
        pair = np.flatnonzero(slot[qids] >= 0)
        q = qids[pair]
        dense = np.full((crowded.size, sizes[crowded].max()), -np.inf)
        dense[slot[q], pair - (np.cumsum(sizes) - sizes)[q]] = scores[pair]
        kth[crowded] = -np.partition(-dense, k - 1, axis=1)[:, k - 1]
    return kth


def _dense_topk_mask(
    scores: np.ndarray, cs: Union[float, np.ndarray], k: int
) -> np.ndarray:
    """The dense cut: which entries of a ``(queries, rows)`` score tile
    can make their query's top-``k`` list.

    An entry survives when it scores at least ``cs`` (one floor for the
    tile, or a ``(queries,)`` array of floors) and, in a query with more
    than ``k`` such entries, at least that query's ``k``-th best.  Ties
    at the ``k``-th score all survive; :func:`_topk_pairs` ranks them.
    """
    hit = scores >= np.reshape(cs, (-1, 1))
    crowded = np.flatnonzero(np.count_nonzero(hit, axis=1) > k)
    if crowded.size:
        top = -np.partition(-scores[crowded], k - 1, axis=1)[:, k - 1:k]
        hit[crowded] &= scores[crowded] >= top
    return hit


def _topk_pairs(
    qids: np.ndarray, rows: np.ndarray, scores: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pair-level cut: each query's ``k`` best pairs, in any input
    order.

    Returns the kept ``(qids, rows, scores)`` sorted by query, then best
    first with ties to the lower row: the ``(-score, index)`` rule every
    top-k answer follows.
    """
    order = np.lexsort((rows, -scores, qids))
    qids, rows, scores = qids[order], rows[order], scores[order]
    first = np.searchsorted(qids, qids, side="left")
    keep = np.arange(qids.size) - first < k
    return qids[keep], rows[keep], scores[keep]


def _answers(
    qids: np.ndarray,
    rows: np.ndarray,
    scores: np.ndarray,
    n_queries: int,
    cs: float,
    k: Optional[int],
) -> list:
    """Per-query answers from scored ``(query, row)`` pairs.

    Pairs are grouped by ascending query, in any row order inside a
    group.  Without ``k``: the lowest-index best row if it scores at
    least ``cs``, else ``None``.  With ``k``: the rows scoring at least
    ``cs``, best first, ties to the lower index, cut to ``k``.
    """
    if k is not None:
        keep = scores >= cs
        qids, rows, scores = qids[keep], rows[keep], scores[keep]
        # No pair below its query's k-th best score can make the list;
        # dropping those first keeps the sort small.
        keep = scores >= _kth_best(qids, scores, n_queries, k)[qids]
        qids, rows, _ = _topk_pairs(qids[keep], rows[keep], scores[keep], k)
        bounds = np.searchsorted(qids, np.arange(n_queries + 1))
        rows = rows.tolist()
        return [rows[bounds[i]:bounds[i + 1]] for i in range(n_queries)]
    best = np.full(n_queries, -1, dtype=np.int64)
    if qids.size:
        query, top, lowest = _group_best(qids, rows, scores)
        hit = top >= cs
        best[query[hit]] = lowest[hit]
    return [int(r) if r >= 0 else None for r in best.tolist()]


@dataclass
class BlockVerification:
    """One scored candidate block.

    ``scores[j]`` is the exact inner product of pair ``j`` of ``block``
    (its absolute value for unsigned joins); thresholding is the
    reducer's job.
    """

    block: CandidateBlock
    scores: np.ndarray  # (n_pairs,) float64
    n_evaluated: int

    def _best(self):
        b = len(self.block)
        index, score = np.full(b, -1, dtype=np.int64), np.full(b, -np.inf)
        if self.scores.size:
            query, top, lowest = _group_best(
                self.block.qids(), self.block.rows, self.scores
            )
            index[query], score[query] = lowest, top
        return index, score

    @property
    def best_index(self) -> np.ndarray:
        """Per query, the lowest row holding its best score; -1 if none."""
        return self._best()[0]

    @property
    def best_score(self) -> np.ndarray:
        """Per query, its best score; -inf for a query with no pairs."""
        return self._best()[1]


def _union_values(P, Q_block, block: CandidateBlock, total: int):
    """Every pair's inner product from one union GEMM, or ``None`` when
    the block fails the cost test.  Returns ``(values, |union|)``."""
    b = Q_block.shape[0]
    rows = block.rows
    # The union can never be smaller than the largest single list, so a
    # block that fails the cost test at that lower bound skips the union
    # computation entirely.
    if int(block.sizes.max()) * b > GEMM_ADVANTAGE * total:
        return None, 0
    if P.shape[0] <= 16 * total:
        # Presence scatter + flatnonzero: sorted union without a sort;
        # the O(n) scan is cheaper below this density.
        present = np.zeros(P.shape[0], dtype=bool)
        present[rows] = True
        union = np.flatnonzero(present)
    else:
        union = sorted_unique(rows)
    if union.size * b > GEMM_ADVANTAGE * total:
        return None, 0
    gram = P[union] @ Q_block.T  # (|union|, b)
    # Candidate id -> gram row via a scatter map; binary-searching the
    # union instead costs more than the GEMM on slow cores.
    inverse = np.empty(P.shape[0], dtype=np.int64)
    inverse[union] = np.arange(union.size, dtype=np.int64)
    return gram.ravel()[inverse[rows] * b + block.qids()], int(union.size)


def verify_block(
    P: np.ndarray,
    Q_block: np.ndarray,
    block: CandidateBlock,
    signed: bool = True,
) -> BlockVerification:
    """Score every candidate pair of one query block.

    Args:
        P: data matrix, shape (n, d).
        Q_block: queries, shape (b, d).
        block: the block's candidates, ``len(block) == b``.
        signed: score by signed value or absolute value.
    """
    b = Q_block.shape[0]
    rows = block.rows
    total = int(rows.size)
    if total == 0:
        return BlockVerification(block, np.empty(0), 0)
    metrics = current_metrics()
    if metrics.enabled:
        metrics.counter("verify.pairs_evaluated").inc(total)
    if b == 1:
        values, union_rows = P[rows] @ Q_block[0], total
    else:
        values, union_rows = _union_values(P, Q_block, block, total)
    if values is not None:
        if metrics.enabled:
            metrics.counter("verify.gemm_blocks").inc()
            metrics.histogram("verify.gemm_union_rows").observe(union_rows)
    else:
        # Sparse-overlap block: the union GEMM would waste arithmetic;
        # one gathered GEMV per non-empty query is cheaper.
        if metrics.enabled:
            metrics.counter("verify.gemv_blocks").inc()
        values = np.empty(total)
        indptr = block.indptr
        for i in np.flatnonzero(block.sizes):
            lo, hi = indptr[i], indptr[i + 1]
            values[lo:hi] = P[rows[lo:hi]] @ Q_block[i]
    return BlockVerification(
        block, values if signed else np.abs(values), total
    )


def verify_candidates(
    P: np.ndarray,
    Q: np.ndarray,
    cand_lists: Sequence[np.ndarray],
    threshold: float,
    signed: bool = True,
    block: int = DEFAULT_BLOCK,
) -> Tuple[List[Optional[int]], int]:
    """Blocked verification of precomputed candidate lists.

    The lists (one ascending, unique array per query) become one
    :class:`~repro.lsh.csr.CandidateBlock`; returns ``(matches,
    n_evaluated)`` where ``matches[i]`` is the lowest-index best
    candidate of query ``i`` if its (absolute) inner product clears
    ``threshold``, else ``None``.
    """
    cands = CandidateBlock.from_lists(cand_lists)
    matches: List[Optional[int]] = []
    evaluated = 0
    for q0 in range(0, Q.shape[0], block):
        part = cands.slice(q0, min(q0 + block, Q.shape[0]))
        result = verify_block(P, Q[q0:q0 + block], part, signed=signed)
        evaluated += result.n_evaluated
        matches.extend(_answers(part.qids(), part.rows, result.scores,
                                len(part), threshold, None))
    return matches, evaluated
