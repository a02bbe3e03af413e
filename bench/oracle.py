"""Reference answers and answer checking, independent of the engine.

The reference is plain numpy: ``P @ Q.T`` for inner products and a dense
0/1 intersection product for Jaccard, computed in blocks before the
timed phase.  After it, every reported pair is re-scored from the raw
inputs (row dot products; sorted-set intersections), so no engine kernel
takes part in judging the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Reported inner products may differ from the reference dot product in
#: the last bits (GEMM vs einsum summation order).
IP_TOLERANCE = 1e-9

#: Block shapes bound the reference's temporary memory to ~64 MB.
_P_BLOCK = 8192
_Q_BLOCK = 1024
_SET_BLOCK = 1024


def ip_has_partner(P: np.ndarray, Q: np.ndarray, s: float,
                   signed: bool) -> np.ndarray:
    """``True`` where query ``j`` has some row with ``p.q >= s``."""
    best = np.full(Q.shape[0], -np.inf)
    for q0 in range(0, Q.shape[0], _Q_BLOCK):
        Qb = Q[q0:q0 + _Q_BLOCK].T
        for p0 in range(0, P.shape[0], _P_BLOCK):
            G = P[p0:p0 + _P_BLOCK] @ Qb
            if not signed:
                G = np.abs(G)
            np.maximum(best[q0:q0 + _Q_BLOCK], G.max(axis=0),
                       out=best[q0:q0 + _Q_BLOCK])
    return best >= s


def _dense(indptr: np.ndarray, indices: np.ndarray, universe: int,
           lo: int, hi: int) -> np.ndarray:
    out = np.zeros((hi - lo, universe), dtype=np.float32)
    sizes = np.diff(indptr[lo:hi + 1])
    rows = np.repeat(np.arange(hi - lo), sizes)
    out[rows, indices[indptr[lo]:indptr[hi]]] = 1.0
    return out


def jaccard_has_partner(P, Q, s: float) -> np.ndarray:
    """``True`` where query ``j`` has some set with Jaccard ``>= s``.

    Intersections come from one dense 0/1 product per block (float32
    sums of at most a few hundred ones are exact).
    """
    u = P.universe
    DQ = _dense(Q.indptr, Q.indices, u, 0, len(Q))
    q_sizes = np.diff(Q.indptr).astype(np.float64)
    best = np.zeros(len(Q))
    for p0 in range(0, len(P), _SET_BLOCK):
        p1 = min(len(P), p0 + _SET_BLOCK)
        inter = (_dense(P.indptr, P.indices, u, p0, p1) @ DQ.T).astype(np.float64)
        p_sizes = np.diff(P.indptr[p0:p1 + 1]).astype(np.float64)
        union = p_sizes[:, None] + q_sizes[None, :] - inter
        J = np.where(union > 0, inter / np.maximum(union, 1.0), 0.0)
        np.maximum(best, J.max(axis=0), out=best)
    return best >= s


def ip_pair_scores(P, Q, q_idx: np.ndarray, p_idx: np.ndarray,
                   signed: bool) -> np.ndarray:
    scores = np.einsum("ij,ij->i", P[p_idx], Q[q_idx])
    return scores if signed else np.abs(scores)


def jaccard_pair_scores(P, Q, q_idx: np.ndarray,
                        p_idx: np.ndarray) -> np.ndarray:
    out = np.empty(q_idx.size)
    for k, (qi, pi) in enumerate(zip(q_idx, p_idx)):
        a = P.indices[P.indptr[pi]:P.indptr[pi + 1]]
        b = Q.indices[Q.indptr[qi]:Q.indptr[qi + 1]]
        inter = np.intersect1d(a, b, assume_unique=True).size
        union = a.size + b.size - inter
        out[k] = inter / union if union else 0.0
    return out


@dataclass
class Verdict:
    """The outcome of checking every timed call."""

    failed_calls: int
    unsound_pairs: int
    missed_exact: int
    errors: int
    truth_rows: int      # query rows asked whose reference has a partner
    answered_rows: int   # ... of which the program answered

    @property
    def recall(self) -> float:
        return self.answered_rows / self.truth_rows if self.truth_rows else 0.0


def check_calls(
    calls: Sequence[Tuple[int, Optional[List[Optional[int]]]]],
    batch: int,
    has_partner: np.ndarray,
    sound_pair,
    exact: bool,
    n_rows: int,
) -> Verdict:
    """Judge each call ``(pool_start, matches)``; ``matches is None`` means
    the call raised.

    A call fails if it raised, returned the wrong number of rows,
    reported a row outside ``[0, n_rows)`` or a pair scoring below
    ``cs`` (``sound_pair`` decides, per unique pair), or — for an exact
    backend — left a query with a true partner unanswered.
    """
    pairs = {(start + i, m)
             for start, matches in calls if matches is not None
             for i, m in enumerate(matches) if m is not None}
    unsound = {(q, p) for q, p in pairs if not 0 <= p < n_rows}
    scored = sorted(pairs - unsound)
    q_idx = np.array([q for q, _ in scored], dtype=np.int64)
    p_idx = np.array([p for _, p in scored], dtype=np.int64)
    ok = sound_pair(q_idx, p_idx) if scored else np.empty(0, dtype=bool)
    unsound |= {pair for pair, good in zip(scored, ok) if not good}

    failed = errors = missed = truth = answered = 0
    for start, matches in calls:
        if matches is None or len(matches) != batch:
            failed += 1
            errors += 1
            continue
        bad = False
        for i, m in enumerate(matches):
            q = start + i
            if m is not None and (q, m) in unsound:
                bad = True
            if has_partner[q]:
                truth += 1
                if m is not None:
                    answered += 1
                elif exact:
                    missed += 1
                    bad = True
        failed += bad
    return Verdict(failed, len(unsound), missed, errors, truth, answered)
