"""Top-k join variants.

The paper's footnote 1: "from an upper bound side, it is common to limit
the number of occurrences of each tuple in a join result to a given
number k".  These functions return, per query, up to ``k`` data indices
clearing the ``cs`` threshold, ordered by decreasing (absolute) inner
product — exact or through an LSH index.

The inner loops are :func:`topk_chunk` (exact) and
:func:`lsh_topk_chunk` (filter-then-verify); both operate on a
contiguous query chunk, so the unified engine shards top-k joins through
the same executor path as threshold joins.  Callers reach them through
:func:`repro.engine.join` with ``spec.k`` set.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.problems import QueryStats
from repro.core.verify import candidate_values_block
from repro.errors import ParameterError


def _rank_above(values: np.ndarray, indices: np.ndarray, signed: bool, cs: float, k: int):
    scores = values if signed else np.abs(values)
    keep = scores >= cs
    indices = indices[keep]
    scores = scores[keep]
    order = np.argsort(-scores)[:k]
    return indices[order].tolist()


def topk_chunk(
    P,
    Q_chunk,
    signed: bool,
    cs: float,
    k: int,
    block: int,
) -> Tuple[List[List[int]], int, int, QueryStats]:
    """Exact top-k lists for one contiguous query chunk.

    Returns ``(topk_lists, inner_products_evaluated,
    candidates_generated, stats)``.
    """
    out: List[List[int]] = []
    all_indices = np.arange(P.shape[0])
    for q0 in range(0, Q_chunk.shape[0], block):
        values = Q_chunk[q0:q0 + block] @ P.T
        for row in values:
            out.append(_rank_above(row, all_indices, signed, cs, k))
    evaluated = P.shape[0] * Q_chunk.shape[0]
    stats = QueryStats(
        queries=len(out), candidates=evaluated, unique_candidates=evaluated
    )
    return out, evaluated, evaluated, stats


def lsh_topk_chunk(
    index,
    P,
    Q_chunk,
    signed: bool,
    cs: float,
    k: int,
    block: int,
) -> Tuple[List[List[int]], int, int, QueryStats]:
    """Filter-then-rank top-k lists for one contiguous query chunk.

    Candidates come from the index's fastest API
    (:func:`repro.lsh.index.block_candidates`), scores from the blocked
    verification kernel, and per-query ranking from the same
    ``_rank_above`` as the exact path.  Returns the same tuple shape as
    :func:`topk_chunk`; stats are this chunk's delta of the index's
    counters.
    """
    from repro.lsh.index import block_candidates

    before = index.stats.copy()
    out: List[List[int]] = []
    scored = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        cand_lists = block_candidates(index, Q_block)
        value_lists = candidate_values_block(P, Q_block, cand_lists)
        scored += sum(candidates.size for candidates in cand_lists)
        out.extend(
            _rank_above(values, candidates, signed, cs, k) if candidates.size else []
            for candidates, values in zip(cand_lists, value_lists)
        )
    delta = index.stats.diff(before)
    return out, scored, delta.candidates, delta


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
