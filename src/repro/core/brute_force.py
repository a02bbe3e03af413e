"""Exact quadratic baselines: the algorithms the lower bounds are about.

Blocked BLAS matrix products keep memory bounded while evaluating every
pair — ``O(n m d)`` work, the bar every subquadratic algorithm in the
paper is measured against.  The scan also answers the self-join variant,
the classic "find all near-duplicate pairs in one table" join and the
setting where Section 4.2's identical-pair caveat bites (``p . p`` can
exceed any threshold without telling us anything about
similar-but-distinct pairs): a self join reports, per vector, the best
*other* vector, optionally excluding exact duplicates too.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.lsh_join import self_pair_mask
from repro.core.problems import (
    JoinResult,
    JoinSpec,
    MIPSResult,
    QueryStats,
    validate_join_inputs,
)
from repro.obs.trace import span
from repro.utils.validation import check_matrix, check_vector


def brute_force_chunk(
    P,
    Q_chunk,
    signed: bool,
    cs: float,
    block: int,
    start: Optional[int] = None,
    match_duplicates: bool = True,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """The blocked all-pairs scan over one contiguous query chunk.

    Returns ``(matches, inner_products_evaluated, candidates_generated,
    stats)``.  Matches are block-size independent (strict improvement
    keeps the lowest-index maximizer), so chunking the query set never
    changes results.  With ``start`` set the chunk is the self-join
    chunk ``P[start:start+len(Q_chunk)]``: the self-join pair mask
    (:func:`repro.core.lsh_join.self_pair_mask`) drops each tile's self
    pairs and, unless ``match_duplicates``, its pairs scoring at least
    ``cs`` (the only ones that can win) whose row equals the query row,
    so chunking never changes which pairs compete either.
    """
    n, mc = P.shape[0], Q_chunk.shape[0]
    best_value = np.full(mc, -np.inf)
    best_index = np.full(mc, -1, dtype=np.int64)
    for q0 in range(0, mc, block):
        q_block = Q_chunk[q0:q0 + block]
        with span("scan", n_queries=q_block.shape[0]):
            for p0 in range(0, n, block):
                ips = q_block @ P[p0:p0 + block].T  # (mb, nb)
                scores = ips if signed else np.abs(ips)
                if start is not None:
                    if match_duplicates:  # only the tile's diagonal
                        qids = np.arange(scores.shape[0])
                        cols = start + q0 + qids - p0
                        on = (cols >= 0) & (cols < scores.shape[1])
                        qids, cols = qids[on], cols[on]
                    else:
                        qids, cols = np.nonzero(scores >= cs)
                    drop = ~self_pair_mask(qids, cols + p0, P, start + q0,
                                           match_duplicates)
                    scores[qids[drop], cols[drop]] = -np.inf
                local_best = np.argmax(scores, axis=1)
                local_vals = scores[np.arange(scores.shape[0]), local_best]
                improved = local_vals > best_value[q0:q0 + block]
                rows = np.flatnonzero(improved) + q0
                best_value[rows] = local_vals[improved]
                best_index[rows] = local_best[improved] + p0
    matches = [
        int(best_index[i]) if best_value[i] >= cs else None for i in range(mc)
    ]
    evaluated = n * mc
    generated = evaluated if start is None else (n - 1) * mc
    stats = QueryStats(
        queries=mc, candidates=generated, unique_candidates=generated
    )
    return matches, evaluated, generated, stats


def brute_force_join(
    P,
    Q,
    spec: JoinSpec,
    block: int = 512,
) -> JoinResult:
    """Exact join: scan all pairs, report the best partner per query.

    Returns, per query, the data index maximizing the (absolute) inner
    product when that maximum clears ``spec.cs``; ``None`` otherwise.
    (Reporting the maximizer rather than an arbitrary above-threshold
    partner makes the result canonical for comparisons.)
    """
    P, Q = validate_join_inputs(P, Q)
    matches, evaluated, generated, _ = brute_force_chunk(
        P, Q, spec.signed, spec.cs, block
    )
    return JoinResult(
        matches=matches,
        spec=spec,
        inner_products_evaluated=evaluated,
        candidates_generated=generated,
    )


def brute_force_mips(P, q, signed: bool = True) -> MIPSResult:
    """Exact MIPS: the argmax (absolute) inner product over all data rows."""
    P = check_matrix(P, "P")
    q = check_vector(q, "q")
    values = P @ q
    scores = values if signed else np.abs(values)
    best = int(np.argmax(scores))
    return MIPSResult(index=best, value=float(values[best]))


def brute_force_search(P, q, s: float, signed: bool = True) -> Optional[int]:
    """Exact ``s``-threshold search: any data index clearing ``s``, or None."""
    result = brute_force_mips(P, q, signed=signed)
    score = result.value if signed else abs(result.value)
    return result.index if score >= s else None
