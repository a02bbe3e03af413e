"""Unsigned join via linear sketches — the Section 4.3 algorithm.

Builds one :class:`repro.sketches.cmips.SketchCMIPS` structure over ``P``
and queries it for every row of ``Q``: total time ``O~(d n^{2-2/kappa})``
for ``|P| = |Q| = n``, approximation ``c = Theta(n^{-1/kappa})`` — truly
subquadratic for every ``kappa > 2``, with no fast matrix multiplication,
which is exactly the point the paper makes against [29].

:func:`sketch_filter_verify_chunk` is THE sketch join inner loop: each
query block goes through one batched c-MIPS descent
(``SketchCMIPS.query_batch`` — stacked GEMMs instead of per-query
GEMVs), its proposals are verified exactly through the blocked kernel
(:mod:`repro.core.verify`), and matches are reported when they clear
``c * s``.  Because every stage is block-local, the query set can be
sharded across processes without changing results; the engine's serial
path and every parallel worker run this exact function.  Callers reach
it through :func:`repro.engine.join` with ``backend="sketch"``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.problems import QueryStats
from repro.core.verify import verify_candidates
from repro.errors import ParameterError
from repro.obs.trace import span
from repro.sketches.cmips import SketchCMIPS


def sketch_filter_verify_chunk(
    structure: SketchCMIPS,
    P,
    Q_chunk,
    cs: float,
    block: int,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Run the blocked sketch descent + verify over one query chunk.

    Returns ``(matches, inner_products_evaluated, candidates_generated,
    stats)``.  Queries whose best partner is below ``s`` carry no
    guarantee, as in Definition 1.
    """
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    per_query = structure.recovery.query_cost() // max(1, P.shape[1])
    evaluated = 0
    matches: List[Optional[int]] = []
    empty = np.empty(0, dtype=np.int64)
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        with span("sketch_propose", n_queries=Q_block.shape[0]):
            answers = structure.query_batch(Q_block)
        evaluated += per_query * Q_block.shape[0]
        proposals = [
            np.array([idx], dtype=np.int64) if idx >= 0 else empty
            for idx in answers.indices
        ]
        with span("verify"):
            block_matches, _ = verify_candidates(
                P, Q_block, proposals, threshold=cs, signed=False, block=block
            )
        matches.extend(block_matches)
    generated = len(matches)
    stats = QueryStats(
        queries=len(matches),
        candidates=generated,
        unique_candidates=generated,
    )
    return matches, evaluated, generated, stats


def sketch_self_chunk(
    structure: SketchCMIPS,
    P,
    Q_chunk,
    start: int,
    cs: float,
    block: int,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Sketch self-join over the chunk ``P[start:start+len(Q_chunk)]``.

    The self-join variant of :func:`sketch_filter_verify_chunk`: each
    query is a row of ``P``, and its identical pair is masked *inside*
    the recovery descent (``query_batch(..., exclude=...)``) rather than
    filtered afterwards — the descent itself proposes the best *other*
    vector, so the single-proposal-per-query shape is preserved.  The
    tuple shape and the verify path match the two-set chunk.
    """
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    per_query = structure.recovery.query_cost() // max(1, P.shape[1])
    evaluated = 0
    matches: List[Optional[int]] = []
    empty = np.empty(0, dtype=np.int64)
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        exclude = np.arange(
            start + q0, start + q0 + Q_block.shape[0], dtype=np.int64
        )
        with span("sketch_propose", n_queries=Q_block.shape[0]):
            answers = structure.query_batch(Q_block, exclude=exclude)
        evaluated += per_query * Q_block.shape[0]
        proposals = [
            np.array([idx], dtype=np.int64) if idx >= 0 else empty
            for idx in answers.indices
        ]
        with span("verify"):
            block_matches, _ = verify_candidates(
                P, Q_block, proposals, threshold=cs, signed=False, block=block
            )
        matches.extend(block_matches)
    generated = len(matches)
    stats = QueryStats(
        queries=len(matches),
        candidates=generated,
        unique_candidates=generated,
    )
    return matches, evaluated, generated, stats
