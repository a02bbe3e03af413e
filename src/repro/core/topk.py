"""Top-k join variants.

The paper's footnote 1: "from an upper bound side, it is common to limit
the number of occurrences of each tuple in a join result to a given
number k".  These functions return, per query, up to ``k`` data indices
clearing the ``cs`` threshold, ordered by decreasing (absolute) inner
product — exact or through an LSH index.

The exact full scan is :func:`topk_chunk`; the norm-pruned scan
(:mod:`repro.core.norm_pruning`) and the filter backends
(:mod:`repro.core.lsh_join`) rank the same way.  Each operates on a
contiguous query chunk and ranks with the top-k cuts of
:mod:`repro.core.verify`, so the unified engine shards top-k joins
through the same executor path as threshold joins and every backend
breaks ties by ``(-score, index)``.  Callers reach them through
:func:`repro.engine.join` with ``spec.k`` set.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.problems import QueryStats
from repro.core.verify import _answers, _dense_topk_mask
from repro.errors import ParameterError


def topk_chunk(
    P,
    Q_chunk,
    signed: bool,
    cs: float,
    k: int,
    block: int,
) -> Tuple[List[List[int]], int, int, QueryStats]:
    """Exact top-k lists for one contiguous query chunk.

    Each query block is one GEMM against all of ``P``.  The dense cut
    keeps each query's entries that can make its list, and the shared
    answer reducer ranks those pairs by ``(-score, index)``.  Returns
    ``(topk_lists, inner_products_evaluated, candidates_generated,
    stats)``.
    """
    out: List[List[int]] = []
    for q0 in range(0, Q_chunk.shape[0], block):
        values = Q_chunk[q0:q0 + block] @ P.T
        scores = values if signed else np.abs(values)
        # One 1-D pass over the mask: a 2-D nonzero costs about as much
        # as the GEMM on a (block, n) mask.
        qids, rows = np.divmod(
            np.flatnonzero(_dense_topk_mask(scores, cs, k)), scores.shape[1]
        )
        out.extend(_answers(qids, rows, scores[qids, rows],
                            scores.shape[0], cs, k))
    evaluated = P.shape[0] * Q_chunk.shape[0]
    stats = QueryStats(
        queries=len(out), candidates=evaluated, unique_candidates=evaluated
    )
    return out, evaluated, evaluated, stats


def topk_recall(approx: List[List[int]], exact: List[List[int]]) -> float:
    """Mean fraction of exact top-k members the approximate lists recovered."""
    if len(approx) != len(exact):
        raise ParameterError("result lists answer different query counts")
    scores = []
    for mine, theirs in zip(approx, exact):
        if not theirs:
            continue
        scores.append(len(set(mine) & set(theirs)) / len(theirs))
    return float(np.mean(scores)) if scores else 1.0
