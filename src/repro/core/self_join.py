"""Self-joins: joining a set with itself, identity pairs excluded.

The classic database similarity self-join ("find all near-duplicate
pairs in one table"), and the setting where Section 4.2's identical-pair
caveat bites: ``p . p`` can exceed any threshold without telling us
anything about *similar-but-distinct* pairs.  A self-join therefore
reports, per vector, the best *other* vector — with an option to also
treat exact duplicates (equal rows at distinct indices) as matches or
not.

The inner loops live in :func:`self_scan_chunk` (exact) and
:func:`lsh_self_chunk` (filter-then-verify): both take a contiguous
*query* chunk of ``P`` plus its global ``start`` offset, so the engine
can shard a self-join over query blocks exactly like a two-set join —
the self pair is masked by global index, which a chunk knows from its
offset.  Callers reach them through :func:`repro.engine.join` with
``Q=None`` (a ``self_join`` spec).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.problems import QueryStats


def self_scan_chunk(
    P,
    Q_chunk,
    start: int,
    signed: bool,
    cs: float,
    match_duplicates: bool,
    block: int,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Exact self-join scan over the chunk ``P[start:start+len(Q_chunk)]``.

    Returns ``(matches, inner_products_evaluated, candidates_generated,
    stats)``; the self pair (and, when ``match_duplicates`` is off,
    duplicate rows) is masked by *global* row index, so chunking never
    changes which pairs compete.
    """
    n = P.shape[0]
    mc = Q_chunk.shape[0]
    best_value = np.full(mc, -np.inf)
    best_index = np.full(mc, -1, dtype=np.int64)
    for q0 in range(0, mc, block):
        q_block = Q_chunk[q0:q0 + block]
        for p0 in range(0, n, block):
            ips = q_block @ P[p0:p0 + block].T
            scores = ips if signed else np.abs(ips)
            # Mask the diagonal (self pairs) of the global matrix.
            for qi in range(q_block.shape[0]):
                global_q = start + q0 + qi
                lo, hi = p0, p0 + ips.shape[1]
                if lo <= global_q < hi:
                    scores[qi, global_q - lo] = -np.inf
                if not match_duplicates:
                    dup = np.flatnonzero(
                        np.all(P[lo:hi] == P[global_q], axis=1)
                    )
                    scores[qi, dup] = -np.inf
            local_best = np.argmax(scores, axis=1)
            local_vals = scores[np.arange(scores.shape[0]), local_best]
            improved = local_vals > best_value[q0:q0 + q_block.shape[0]]
            rows = np.flatnonzero(improved) + q0
            best_value[rows] = local_vals[improved]
            best_index[rows] = local_best[improved] + p0
    matches = [
        int(best_index[i]) if best_value[i] >= cs else None for i in range(mc)
    ]
    evaluated = n * mc
    generated = (n - 1) * mc
    stats = QueryStats(
        queries=mc, candidates=generated, unique_candidates=generated
    )
    return matches, evaluated, generated, stats


def lsh_self_chunk(
    index,
    P,
    Q_chunk,
    start: int,
    signed: bool,
    cs: float,
    match_duplicates: bool,
    block: int,
) -> Tuple[List[Optional[int]], int, int, QueryStats]:
    """Filter-then-verify self-join over one contiguous chunk of ``P``.

    Candidates for a whole block of rows are generated at once
    (:func:`repro.lsh.index.block_candidates`) and verified through the
    one-GEMM-per-block kernel (:mod:`repro.core.verify`); the self pair
    (and optionally duplicate rows) is masked out of each candidate list
    by global index before verification.
    """
    from repro.core.verify import verify_block
    from repro.lsh.index import block_candidates

    before = index.stats.copy()
    matches: List[Optional[int]] = []
    verified = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        cand_lists = block_candidates(index, Q_block)
        filtered = []
        for i, candidates in enumerate(cand_lists):
            qi = start + q0 + i
            candidates = candidates[candidates != qi]
            if not match_duplicates and candidates.size:
                keep = ~np.all(P[candidates] == P[qi], axis=1)
                candidates = candidates[keep]
            filtered.append(candidates)
        result = verify_block(P, Q_block, filtered, signed=signed)
        verified += result.n_evaluated
        matches.extend(
            int(idx) if idx >= 0 and score >= cs else None
            for idx, score in zip(result.best_index, result.best_score)
        )
    delta = index.stats.diff(before)
    return matches, verified, verified, delta
