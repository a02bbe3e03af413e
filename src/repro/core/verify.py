"""Blocked batch verification: one GEMM per query block.

Every filter-then-verify algorithm in this package ends the same way:
for each query, compute exact inner products against its candidate rows
and keep the best one clearing a threshold.  Done per query that is one
GEMV (or a Python loop) per query — memory-bound and BLAS-hostile.  This
module verifies a whole query *block* at once: gather the union of the
block's candidate rows, multiply once —

    G = P[union] @ Q_block.T        # (|union|, block) — a single GEMM

— and slice each query's candidate values out of ``G`` by position.
When candidate sets within a block overlap (hot rows landing in every
query's buckets — skewed norms, clustered data, popular items),
``|union|`` sits far below the sum of list sizes and the GEMM does less
arithmetic than the GEMVs it replaces, at several times the throughput.
When they do *not* overlap (uniform data, tight buckets), the union GEMM
would multiply ``|union| x block`` pairs to use ``sum(sizes)`` of them —
strictly more arithmetic — so the kernel applies a per-block cost test
(``|union| * block <= GEMM_ADVANTAGE * sum(sizes)``) and falls back to
per-candidate-list GEMVs for sparse-overlap blocks.  The test depends
only on the block's candidate lists, so the chosen strategy — and the
exact sequence of BLAS calls — is identical no matter which process
executes the block.

Work accounting: ``n_evaluated`` counts **candidate pairs** (the sum of
candidate-list sizes), the paper's work measure, not the GEMM's
``|union| * block`` products — the measure must stay comparable across
the serial, blocked, and process-parallel paths.

Determinism: candidate lists are consumed in the (sorted) order the CSR
indexes produce, so argmax ties resolve to the lowest data index, and
identical block boundaries produce bit-identical GEMM calls — which is
what lets ``n_workers=1`` and ``n_workers=k`` executor runs return
identical matches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.lsh.csr import sorted_unique
from repro.obs.metrics import current_metrics

DEFAULT_BLOCK = 256

#: The union GEMM is taken when it does at most this factor more raw
#: multiplies than the candidate pairs require — roughly the throughput
#: edge a large dgemm holds over a stream of small dgemvs.
GEMM_ADVANTAGE = 4.0


@dataclass
class BlockVerification:
    """Result of verifying one query block.

    ``best_index[i]`` is ``-1`` and ``best_score[i]`` is ``-inf`` when
    query ``i`` had no candidates; thresholding is the caller's job.
    """

    best_index: np.ndarray  # (block,) int64
    best_score: np.ndarray  # (block,) float64; abs() already applied if unsigned
    n_evaluated: int


def _union_gather(
    P: np.ndarray,
    Q_block: np.ndarray,
    cand_lists: Sequence[np.ndarray],
    sizes: np.ndarray,
    total: int,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """The union GEMM behind both block kernels, or ``None`` when the
    block fails the cost test (the caller then runs one GEMV per list).

    Returns ``(qidx, all_cands, values, union_rows)``: the queries with
    candidates, their lists concatenated, each pair's signed inner
    product, and ``|union|``.  Every test reads only the block's
    candidate lists (and ``n``), so every process picks the same path.
    """
    b = Q_block.shape[0]
    # The union can never be smaller than the largest single list, so a
    # block that fails the cost test at that lower bound skips the union
    # computation entirely.
    if int(sizes.max()) * b > GEMM_ADVANTAGE * total:
        return None
    qidx = np.flatnonzero(sizes)
    all_cands = np.concatenate([cand_lists[i] for i in qidx])
    if P.shape[0] <= 16 * total:
        # Presence scatter + flatnonzero: sorted union without a sort;
        # the O(n) scan is cheaper below this density.
        present = np.zeros(P.shape[0], dtype=bool)
        present[all_cands] = True
        union = np.flatnonzero(present)
    else:
        union = sorted_unique(all_cands)
    if union.size * b > GEMM_ADVANTAGE * total:
        return None
    gram = P[union] @ Q_block.T  # (|union|, b)
    qrep = np.repeat(qidx, sizes[qidx])
    # Candidate id -> gram row via a scatter map; binary-searching the
    # union instead costs more than the GEMM on slow cores.
    inverse = np.empty(P.shape[0], dtype=np.int64)
    inverse[union] = np.arange(union.size, dtype=np.int64)
    values = gram.ravel()[inverse[all_cands] * b + qrep]
    return qidx, all_cands, values, int(union.size)


def verify_block(
    P: np.ndarray,
    Q_block: np.ndarray,
    cand_lists: Sequence[np.ndarray],
    signed: bool = True,
) -> BlockVerification:
    """Verify one query block's candidates with a single GEMM.

    Args:
        P: data matrix, shape (n, d).
        Q_block: queries, shape (b, d).
        cand_lists: ``b`` sorted int64 index arrays into ``P`` (empty
            arrays allowed; sorted order is what the CSR candidate
            generators emit and is required for the positional slicing).
        signed: score by signed value or absolute value.
    """
    b = Q_block.shape[0]
    best_index = np.full(b, -1, dtype=np.int64)
    best_score = np.full(b, -np.inf)
    sizes = np.array([int(c.size) for c in cand_lists], dtype=np.int64)
    evaluated = int(sizes.sum())
    if evaluated == 0:
        return BlockVerification(best_index, best_score, 0)
    metrics = current_metrics()
    if metrics.enabled:
        metrics.counter("verify.pairs_evaluated").inc(evaluated)
    gathered = _union_gather(P, Q_block, cand_lists, sizes, evaluated)
    if gathered is not None:
        qidx, all_cands, values, union_rows = gathered
        if metrics.enabled:
            metrics.counter("verify.gemm_blocks").inc()
            metrics.histogram("verify.gemm_union_rows").observe(union_rows)
        # Overlapping block: one GEMM covered every (query, candidate)
        # pair, and the per-query maxima come out of one segmented
        # reduction — no Python executes per query.
        scores = values if signed else np.abs(values)
        seg = np.cumsum(sizes[qidx]) - sizes[qidx]
        seg_max = np.maximum.reduceat(scores, seg)
        # First position attaining the segment max: candidate lists are
        # ascending, so this reproduces np.argmax's lowest-index tie-break.
        first = np.minimum.reduceat(
            np.where(scores == np.repeat(seg_max, sizes[qidx]),
                     np.arange(scores.size), scores.size),
            seg,
        )
        best_index[qidx] = all_cands[first]
        best_score[qidx] = seg_max
    else:
        # Sparse-overlap block: the union GEMM would waste arithmetic;
        # one gathered GEMV per non-empty candidate list is cheaper.
        if metrics.enabled:
            metrics.counter("verify.gemv_blocks").inc()
        for qi, cands in enumerate(cand_lists):
            if cands.size == 0:
                continue
            values = P[cands] @ Q_block[qi]
            scores = values if signed else np.abs(values)
            j = int(np.argmax(scores))
            best_index[qi] = cands[j]
            best_score[qi] = scores[j]
    return BlockVerification(best_index, best_score, evaluated)


def candidate_values_block(
    P: np.ndarray,
    Q_block: np.ndarray,
    cand_lists: Sequence[np.ndarray],
    signed: bool = True,
) -> List[np.ndarray]:
    """Exact candidate inner products for one query block, list-aligned.

    The sibling of :func:`verify_block` for callers that need *all* the
    values (top-k ranking, recall audits) rather than the per-query best.
    Shares its union GEMM and cost test, so the BLAS call pattern is a
    pure function of the block's candidate lists.  ``out[i]`` has the
    same length and order as ``cand_lists[i]``.
    """
    b = Q_block.shape[0]
    sizes = np.array([int(c.size) for c in cand_lists], dtype=np.int64)
    total = int(sizes.sum())
    out: List[np.ndarray] = [np.empty(0, dtype=np.float64)] * b
    if total == 0:
        return out
    gathered = _union_gather(P, Q_block, cand_lists, sizes, total)
    if gathered is not None:
        qidx, _, values, _ = gathered
        if not signed:
            values = np.abs(values)
        seg = np.cumsum(sizes[qidx]) - sizes[qidx]
        for pos, i in enumerate(qidx):
            out[i] = values[seg[pos] : seg[pos] + sizes[i]]
    else:
        for i in np.flatnonzero(sizes):
            values = P[cand_lists[i]] @ Q_block[i]
            out[i] = values if signed else np.abs(values)
    return out


def verify_candidates(
    P: np.ndarray,
    Q: np.ndarray,
    cand_lists: Sequence[np.ndarray],
    threshold: float,
    signed: bool = True,
    block: int = DEFAULT_BLOCK,
) -> Tuple[List[Optional[int]], int]:
    """Blocked verification of precomputed candidate lists.

    Returns ``(matches, n_evaluated)`` where ``matches[i]`` is the best
    candidate of query ``i`` if its (absolute) inner product clears
    ``threshold``, else ``None``.
    """
    matches: List[Optional[int]] = []
    evaluated = 0
    for q0 in range(0, Q.shape[0], block):
        result = verify_block(
            P, Q[q0:q0 + block], cand_lists[q0:q0 + block], signed=signed
        )
        evaluated += result.n_evaluated
        matches.extend(
            int(idx) if idx >= 0 and score >= threshold else None
            for idx, score in zip(result.best_index, result.best_score)
        )
    return matches, evaluated
