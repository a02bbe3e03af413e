"""LSH-driven ``(cs, s)`` join: filter with an index, verify exactly.

:func:`lsh_filter_verify_chunk` is THE LSH join inner loop — candidate
generation through the index's fastest API
(:func:`repro.lsh.index.block_candidates`) and verification through the
one-GEMM-per-block kernel in :mod:`repro.core.verify`, one query block
at a time.  The serial engine path and every parallel worker execute
this exact function, which is what makes results bit-identical across
worker counts.  Callers reach it through :func:`repro.engine.join` with
``backend="lsh"``.

An index may be reused across calls: the chunk snapshots the index's
:class:`~repro.core.problems.QueryStats` counters and reports only this
call's delta, so ``candidates_generated`` never over-counts on reuse.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.problems import QueryStats
from repro.core.verify import verify_block
from repro.errors import ParameterError
from repro.lsh.index import block_candidates
from repro.obs.trace import span


def lsh_filter_verify_chunk(
    index,
    P,
    Q_chunk,
    signed: bool,
    cs: float,
    n_probes: int,
    block: int,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Run the filter+verify loop over one contiguous query chunk.

    Returns ``(matches, inner_products_evaluated, candidates_generated,
    stats_delta)`` where ``stats_delta`` is this chunk's contribution to
    the index's :class:`~repro.core.problems.QueryStats` (so reused
    indexes never over-count).
    """
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    before = index.stats.copy()
    matches: List[Optional[int]] = []
    verified = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        with span("candidates", n_queries=Q_block.shape[0]):
            cand_lists = block_candidates(index, Q_block, n_probes)
        with span("verify"):
            result = verify_block(P, Q_block, cand_lists, signed=signed)
        verified += result.n_evaluated
        matches.extend(
            int(idx) if idx >= 0 and score >= cs else None
            for idx, score in zip(result.best_index, result.best_score)
        )
    delta = index.stats.diff(before)
    return matches, verified, delta.candidates, delta
