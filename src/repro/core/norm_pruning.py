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
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.problems import QueryStats
from repro.core.verify import GEMM_ADVANTAGE
from repro.errors import ParameterError
from repro.obs.trace import span
from repro.utils.validation import check_matrix, check_vector

#: Relative slack on the Cauchy-Schwarz cutoff and stop bounds.  The
#: computed ``t / |q|`` and ``|p| |q|`` can land an ulp or two on the
#: wrong side of the exact values, which would prune a pair whose
#: ``p . q`` reaches the threshold exactly; a few ulps of slack keep it,
#: and the final ``>= threshold`` test keeps results exact.
_BOUND_SLACK = 8 * np.finfo(np.float64).eps


class NormScanIndex:
    """Data sorted by decreasing norm, with prefix-pruned exact queries."""

    def __init__(self, P):
        P = check_matrix(P, "P")
        self.norms_unsorted = np.linalg.norm(P, axis=1)
        self.order = np.argsort(-self.norms_unsorted, kind="stable")
        self.P_sorted = P[self.order]
        self.norms = self.norms_unsorted[self.order]
        self.n, self.d = P.shape

    def prefix_length(self, query_norm: float, threshold: float) -> int:
        """Vectors that could reach ``threshold`` against a query this long."""
        if threshold <= 0:
            return self.n
        if query_norm <= 0:
            return 0
        cutoff = threshold / query_norm * (1.0 - _BOUND_SLACK)
        # norms are descending; count entries >= cutoff.
        return int(np.searchsorted(-self.norms, -cutoff, side="right"))

    def query(self, q, threshold: float, signed: bool = True, block: int = 256):
        """Best data index with (absolute) inner product >= threshold.

        Returns ``(index, value, work)`` with ``index = None`` on a miss;
        ``work`` is the number of inner products evaluated.  Scans the
        norm-ordered prefix in blocks, tightening with the running best:
        scanning stops as soon as ``|p| |q|`` of the next block cannot
        beat the current best *and* the best already clears the
        threshold.  Equal scores go to the lower original index, within
        a block and across blocks, as in every other backend.
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
        ``-1`` on a miss.  Walks the norm-ordered data in the same
        ``block``-sized prefix steps as the scalar scan, evaluating each
        step as one GEMM over the still-active queries (falling back to
        per-query GEMVs when per-query prefix limits make the shared GEMM
        waste arithmetic, the :mod:`repro.core.verify` cost test).  A
        query leaves the active set exactly when the scalar scan would
        have stopped, so per-query work counts are preserved, and equal
        scores go to the lower original index, as in :meth:`query`.
        """
        Q_block = check_matrix(Q_block, "Q", allow_empty=True)
        b = Q_block.shape[0]
        if b and Q_block.shape[1] != self.d:
            raise ParameterError(
                f"expected query dimension {self.d}, got {Q_block.shape[1]}"
            )
        best_values = np.full(b, -np.inf)
        best_indices = np.full(b, self.n, dtype=np.int64)
        work = np.zeros(b, dtype=np.int64)
        if b == 0:
            return best_indices, best_values, work
        q_norms = np.linalg.norm(Q_block, axis=1)
        limits = np.array(
            [self.prefix_length(float(qn), threshold) for qn in q_norms],
            dtype=np.int64,
        )
        active = limits > 0
        start = 0
        max_limit = int(limits.max())
        while start < max_limit and active.any():
            stop = min(start + block, max_limit)
            # The scalar scan checks its stopping rule *before* this step.
            bound = self.norms[start] * q_norms * (1.0 + _BOUND_SLACK)
            active &= ~((best_values >= threshold) & (best_values >= bound))
            active &= limits > start
            qidx = np.flatnonzero(active)
            if qidx.size == 0:
                start = stop
                continue
            stops = np.minimum(limits[qidx], stop)
            evaluated = int((stops - start).sum())
            work[qidx] += stops - start
            if (stop - start) * qidx.size <= GEMM_ADVANTAGE * evaluated:
                values = self.P_sorted[start:stop] @ Q_block[qidx].T
                scores = values if signed else np.abs(values)
                # Rows past a query's own prefix limit were never part of
                # its scalar scan; mask them out of the argmax.
                rows = np.arange(start, stop)[:, None]
                scores = np.where(rows < stops[None, :], scores, -np.inf)
                local_scores = scores.max(axis=0)
                # Lowest original index among each query's best rows.
                local = np.where(scores == local_scores,
                                 self.order[start:stop, None], self.n).min(axis=0)
            else:
                local = np.empty(qidx.size, dtype=np.int64)
                local_scores = np.empty(qidx.size)
                for pos, (qi, q_stop) in enumerate(zip(qidx, stops)):
                    vals = self.P_sorted[start:q_stop] @ Q_block[qi]
                    sc = vals if signed else np.abs(vals)
                    local_scores[pos] = sc.max()
                    local[pos] = self.order[start:q_stop][sc == sc.max()].min()
            held = best_values[qidx]
            better = (local_scores > held) | (
                (local_scores == held) & (local < best_indices[qidx]))
            upd = qidx[better]
            best_values[upd] = local_scores[better]
            best_indices[upd] = local[better]
            start = stop
        misses = (best_values < threshold) | (best_indices == self.n)
        best_indices[misses] = -1
        return best_indices, best_values, work

    def _collect_topk(self, buf, scores, start: int, threshold: float, k: int):
        """Merge one prefix step's above-threshold scores into a top-k buffer.

        ``buf`` holds ``(score, global_index)`` pairs ranked by
        ``(-score, index)`` — the deterministic tie order the top-k scan
        reports — and is kept truncated to ``k``.
        """
        for local in np.flatnonzero(scores >= threshold):
            buf.append((float(scores[local]), int(self.order[start + local])))
        buf.sort(key=lambda entry: (-entry[0], entry[1]))
        del buf[k:]

    def topk_block(
        self,
        Q_block,
        threshold: float,
        k: int,
        signed: bool = True,
        block: int = 256,
    ) -> Tuple[List[List[int]], np.ndarray]:
        """Top-k-above-threshold lists for the rows of ``Q_block``.

        The LEMP-style extension of :meth:`query_block`: the same
        norm-ordered prefix walk, but each query keeps its ``k`` best
        above-``threshold`` scores instead of a single champion.  A query
        leaves the active set once its k-th best score reaches the
        ``|p| |q|`` bound of the next prefix step — no later vector can
        then displace any of its current top k.  Ties rank by
        ``(-score, index)``.  Returns ``(topk_lists, work)``.
        """
        Q_block = check_matrix(Q_block, "Q", allow_empty=True)
        b = Q_block.shape[0]
        if b and Q_block.shape[1] != self.d:
            raise ParameterError(
                f"expected query dimension {self.d}, got {Q_block.shape[1]}"
            )
        work = np.zeros(b, dtype=np.int64)
        buffers: List[List[Tuple[float, int]]] = [[] for _ in range(b)]
        if b == 0:
            return [], work
        # k-th best collected score per query; -inf until k entries clear
        # the threshold, so the stop rule below cannot fire early.
        kth_best = np.full(b, -np.inf)
        q_norms = np.linalg.norm(Q_block, axis=1)
        limits = np.array(
            [self.prefix_length(float(qn), threshold) for qn in q_norms],
            dtype=np.int64,
        )
        active = limits > 0
        start = 0
        max_limit = int(limits.max())
        while start < max_limit and active.any():
            stop = min(start + block, max_limit)
            bound = self.norms[start] * q_norms * (1.0 + _BOUND_SLACK)
            active &= ~(kth_best >= bound)
            active &= limits > start
            qidx = np.flatnonzero(active)
            if qidx.size == 0:
                start = stop
                continue
            stops = np.minimum(limits[qidx], stop)
            evaluated = int((stops - start).sum())
            work[qidx] += stops - start
            if (stop - start) * qidx.size <= GEMM_ADVANTAGE * evaluated:
                values = self.P_sorted[start:stop] @ Q_block[qidx].T
                scores = values if signed else np.abs(values)
                rows = np.arange(start, stop)[:, None]
                scores = np.where(rows < stops[None, :], scores, -np.inf)
                for pos, qi in enumerate(qidx):
                    self._collect_topk(
                        buffers[qi], scores[:, pos], start, threshold, k
                    )
            else:
                for qi, q_stop in zip(qidx, stops):
                    vals = self.P_sorted[start:q_stop] @ Q_block[qi]
                    sc = vals if signed else np.abs(vals)
                    self._collect_topk(buffers[qi], sc, start, threshold, k)
            for qi in qidx:
                if len(buffers[qi]) == k:
                    kth_best[qi] = buffers[qi][-1][0]
            start = stop
        lists = [[gidx for _, gidx in buf] for buf in buffers]
        return lists, work


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
    along the norm-sorted data.  Because the GEMM/GEMV cost test inside
    those walks depends on which queries share a batch, chunk
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
