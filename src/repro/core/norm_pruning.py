"""Norm-pruned exact joins in the style of LEMP (Teflioudi et al. [50]).

The paper's motivating prior work on IPS join for recommender systems:
because ``p . q <= |p| |q|`` (Cauchy-Schwarz), a query with threshold
``t`` can only match data vectors with ``|p| >= t / |q|``.  Sorting the
data by decreasing norm turns that into a *prefix* scan, and a running
best value tightens the cutoff further for MIPS-style queries:
once ``best >= |p_i| |q|`` for the next vector in norm order, no later
vector can win.

On realistic (popularity-skewed) norm distributions the qualifying
prefix is a small fraction of the data — an *exact* subquadratic-in-
practice join, the kind of baseline the paper's theory explains the
limits of (in the worst case, when all norms are equal, it degrades to
the full scan).

One walk answers both variants: a threshold join
(:meth:`NormScanIndex.query_block`) is the top-1 case of
:meth:`NormScanIndex.topk_block`, and each step folds one GEMM into the
kept pairs through the shared top-k cuts of :mod:`repro.core.verify`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.problems import QueryStats
from repro.core.verify import _answers, _dense_topk_mask, _topk_pairs
from repro.errors import ParameterError
from repro.obs.trace import span
from repro.utils.validation import check_matrix, check_vector

#: Relative slack on the Cauchy-Schwarz cutoff and stop bounds.  The
#: computed ``t / |q|`` and ``|p| |q|`` can land an ulp or two on the
#: wrong side of the exact values, which would prune a pair whose
#: ``p . q`` reaches the threshold exactly; a few ulps of slack keep it,
#: and the final ``>= threshold`` test keeps results exact.
_BOUND_SLACK = 8 * np.finfo(np.float64).eps


def norm_order(P) -> Tuple[np.ndarray, np.ndarray]:
    """Row norms of ``P`` and its row indices by decreasing norm.

    The sort is stable, so rows with tied norms keep ascending index
    order.  :class:`NormScanIndex` walks its prefix in this order and
    :func:`repro.engine.plan.norm_partition` splits hybrid plans by it.
    """
    norms = np.linalg.norm(P, axis=1)
    return norms, np.argsort(-norms, kind="stable")


class NormScanIndex:
    """Data sorted by decreasing norm, with prefix-pruned exact queries."""

    def __init__(self, P):
        P = check_matrix(P, "P")
        self.norms_unsorted, self.order = norm_order(P)
        self.P_sorted = P[self.order]
        self.norms = self.norms_unsorted[self.order]
        self.n, self.d = P.shape

    def prefix_length(
        self, query_norm: Union[float, np.ndarray], threshold: float
    ) -> Union[int, np.ndarray]:
        """Vectors that could reach ``threshold`` against a query this long.

        ``query_norm`` is one norm (returns an ``int``) or an array of
        query norms (returns an int64 array of the same shape).
        """
        norms = np.asarray(query_norm, dtype=np.float64)
        if threshold <= 0:
            lengths = np.full(norms.shape, self.n, dtype=np.int64)
        else:
            # A zero-norm query gets an infinite cutoff: an empty prefix.
            with np.errstate(divide="ignore"):
                cutoff = threshold / norms * (1.0 - _BOUND_SLACK)
            # norms are descending; count entries >= cutoff.
            lengths = np.searchsorted(-self.norms, -cutoff, side="right")
        return int(lengths) if norms.ndim == 0 else lengths

    def query(self, q, threshold: float, signed: bool = True, block: int = 256):
        """Best data index with (absolute) inner product >= threshold.

        Returns ``(index, value, work)`` with ``index = None`` on a miss;
        ``work`` is the number of inner products evaluated.  Scans the
        norm-ordered prefix in blocks, tightening with the running best:
        scanning stops as soon as ``|p| |q|`` of the next block cannot
        beat the current best *and* the best already clears the
        threshold.  Equal scores go to the lower original index, within
        a block and across blocks, as in every other backend.  The
        one-query reference for :meth:`query_block`.
        """
        q = check_vector(q, "q")
        if q.size != self.d:
            raise ParameterError(f"expected query dimension {self.d}, got {q.size}")
        q_norm = float(np.linalg.norm(q))
        limit = self.prefix_length(q_norm, threshold)
        best_value = -np.inf
        best_index = self.n
        work = 0
        for start in range(0, limit, block):
            stop = min(start + block, limit)
            # Upper bound for everything from `start` on.
            bound = self.norms[start] * q_norm * (1.0 + _BOUND_SLACK)
            if best_value >= threshold and best_value >= bound:
                break
            values = self.P_sorted[start:stop] @ q
            scores = values if signed else np.abs(values)
            work += stop - start
            top = float(scores.max())
            index = int(self.order[start:stop][scores == top].min())
            if top > best_value or (top == best_value and index < best_index):
                best_value, best_index = top, index
        if best_index == self.n or best_value < threshold:
            return None, best_value, work
        return best_index, best_value, work

    def query_block(
        self, Q_block, threshold: float, signed: bool = True, block: int = 256
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched :meth:`query` over the rows of ``Q_block``.

        Returns ``(indices, values, work)`` arrays; ``indices[i]`` is
        ``-1`` on a miss.  The top-1 case of the walk: a query leaves it
        exactly where the scalar scan stops, so per-query work counts
        match, and equal scores go to the lower original index.
        """
        qids, rows, scores, values, work = self._walk(
            Q_block, threshold, 1, signed, block
        )
        indices = np.full(work.size, -1, dtype=np.int64)
        indices[qids] = rows
        values[qids] = scores
        return indices, values, work

    def topk_block(
        self,
        Q_block,
        threshold: float,
        k: int,
        signed: bool = True,
        block: int = 256,
    ) -> Tuple[List[List[int]], np.ndarray]:
        """Top-k-above-threshold lists for the rows of ``Q_block``.

        The LEMP-style extension of :meth:`query`: each query keeps its
        ``k`` best above-``threshold`` scores instead of a single
        champion, and leaves the walk once its k-th best score reaches
        the ``|p| |q|`` bound of the next prefix step — no later vector
        can then displace any of its current top k.  Ties rank by
        ``(-score, index)``.  Returns ``(topk_lists, work)``.
        """
        qids, rows, scores, _, work = self._walk(
            Q_block, threshold, k, signed, block
        )
        return _answers(qids, rows, scores, work.size, threshold, k), work

    def _walk(self, Q_block, threshold: float, k: int, signed: bool,
              block: int):
        """The prefix walk behind both block queries.

        Each ``block``-row step is one GEMM over the still-active
        queries, cut to the entries that can enter a query's top ``k``
        and merged into its kept pairs.  Returns ``(qids, rows, scores,
        best, work)``: the kept pairs (sorted by query, then
        ``(-score, row)``), and per query the best score it evaluated
        before keeping ``k`` pairs and its inner products evaluated.
        """
        Q_block = check_matrix(Q_block, "Q", allow_empty=True)
        b = Q_block.shape[0]
        if b and Q_block.shape[1] != self.d:
            raise ParameterError(
                f"expected query dimension {self.d}, got {Q_block.shape[1]}"
            )
        q_norms = np.linalg.norm(Q_block, axis=1)
        limits = self.prefix_length(q_norms, threshold)
        best = np.full(b, -np.inf)
        work = np.zeros(b, dtype=np.int64)
        # Each query's k-th kept score; -inf until k pairs clear the
        # threshold, so the stop rule below cannot fire early.
        kth = np.full(b, -np.inf)
        qids = rows = np.empty(0, dtype=np.int64)
        scores = np.empty(0)
        active = limits > 0
        max_limit = int(limits.max(initial=0))
        for start in range(0, max_limit, block):
            stop = min(start + block, max_limit)
            # Checked before the step, as in the scalar scan: a query
            # leaves once no row from here on can displace its k pairs.
            bound = self.norms[start] * q_norms * (1.0 + _BOUND_SLACK)
            active &= (kth < bound) & (limits > start)
            qidx = np.flatnonzero(active)
            if qidx.size == 0:
                break
            # Active since the first step, a query has evaluated exactly
            # its rows before its stop.
            stops = np.minimum(limits[qidx], stop)
            work[qidx] = stops
            tile = (self.P_sorted[start:stop] @ Q_block[qidx].T).T
            if not signed:
                tile = np.abs(tile)
            # Rows past a query's own prefix limit are not in its scan.
            if stops.min() < stop:
                tile[np.arange(start, stop) >= stops[:, None]] = -np.inf
            # A query's best evaluated score is tracked only until it
            # keeps k pairs; after that its best kept pair holds it.
            held = kth[qidx]
            fresh = held == -np.inf
            if fresh.any():
                sub = qidx[fresh]
                best[sub] = np.maximum(best[sub], tile[fresh].max(axis=1))
            # An entry below a query's k-th kept score cannot enter its
            # list.  Survivors are read in the GEMM output's memory order
            # (row * |qidx| + query): a 1-D nonzero is far cheaper.
            floor = np.maximum(held, threshold)
            lr, lq = np.divmod(
                np.flatnonzero(_dense_topk_mask(tile, floor, k).T),
                qidx.size,
            )
            if lq.size == 0:
                continue
            qids, rows, scores = _topk_pairs(
                np.concatenate([qids, qidx[lq]]),
                np.concatenate([rows, self.order[start + lr]]),
                np.concatenate([scores, tile[lq, lr]]),
                k,
            )
            sizes = np.bincount(qids, minlength=b)
            full = sizes == k
            kth[full] = scores[np.cumsum(sizes)[full] - 1]
        return qids, rows, scores, best, work


def norm_scan_chunk(
    index: NormScanIndex,
    Q_chunk,
    signed: bool,
    cs: float,
    scan_block: int,
    block: int,
    k: Optional[int] = None,
) -> Tuple[list, int, int, QueryStats]:
    """Prefix-pruned exact scan over one contiguous query chunk.

    Returns ``(answers, inner_products_evaluated, candidates_generated,
    stats)``: matches, or top-``k`` lists when ``k`` is set (the same
    lists as :func:`repro.core.topk.topk_chunk`, evaluating only the
    norm-qualified prefixes).  ``block`` groups queries into the
    shared-GEMM batches of :meth:`NormScanIndex.query_block` /
    :meth:`NormScanIndex.topk_block`; ``scan_block`` is the prefix step
    along the norm-sorted data.  A step with one active query is a GEMV
    in numpy, whose last bits can differ from the GEMM's, so chunk
    boundaries must align to ``block`` multiples for results to be
    independent of chunking — the same contract the executor enforces.
    """
    answers: list = []
    work = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        with span("scan", n_queries=Q_block.shape[0]):
            if k is None:
                indices, _, evaluated = index.query_block(
                    Q_block, threshold=cs, signed=signed, block=scan_block
                )
                answers.extend(int(i) if i >= 0 else None for i in indices)
            else:
                lists, evaluated = index.topk_block(
                    Q_block, threshold=cs, k=k, signed=signed,
                    block=scan_block,
                )
                answers.extend(lists)
        work += int(evaluated.sum())
    stats = QueryStats(
        queries=len(answers), candidates=work, unique_candidates=work
    )
    return answers, work, work, stats
