"""Approximate MIPS through the Section 4.1 ALSH index."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.verify import DEFAULT_BLOCK, verify_block
from repro.errors import ParameterError
from repro.lsh.datadep import DataDepALSH
from repro.lsh.index import LSHIndex
from repro.mips.base import MIPSAnswer, MIPSEngine
from repro.utils.rng import SeedLike
from repro.utils.validation import check_matrix


class LSHMIPS(MIPSEngine):
    """DATA-DEP ALSH index queried for the best candidate.

    Data must lie in the unit ball and queries in the ball of radius
    ``query_radius``.  The engine returns the best *candidate* — an
    approximate answer whose quality follows the scheme's
    ``rho = (1-s/U)/(1+(1-2c)s/U)`` trade-off; a fallback to the exact
    scan triggers when no candidate surfaces (empty buckets).

    :meth:`query_batch` answers many queries through the blocked
    verification kernel (:mod:`repro.core.verify`): one GEMM per query
    block over the union of the block's candidates, plus one GEMM for
    the empty-candidate fallbacks, instead of one GEMV per query.
    """

    def __init__(
        self,
        P,
        query_radius: float = 1.0,
        n_tables: int = 16,
        hashes_per_table: int = 6,
        sphere: str = "hyperplane",
        seed: SeedLike = None,
    ):
        super().__init__(P)
        family = DataDepALSH(self.d, query_radius=query_radius, sphere=sphere)
        self.index = LSHIndex(
            family,
            n_tables=n_tables,
            hashes_per_table=hashes_per_table,
            seed=seed,
        ).build(self._P)

    def query(self, q) -> MIPSAnswer:
        q = self._check_query(q)
        candidates = self.index.candidates(q)
        if candidates.size == 0:
            values = self._P @ q
            best = int(np.argmax(values))
            return MIPSAnswer(index=best, value=float(values[best]), work=self.n)
        values = self._P[candidates] @ q
        best = int(np.argmax(values))
        return MIPSAnswer(
            index=int(candidates[best]),
            value=float(values[best]),
            work=int(candidates.size),
        )

    def query_batch(self, Q, block: int = DEFAULT_BLOCK) -> List[MIPSAnswer]:
        """One answer per row of ``Q``, verified block-at-a-time."""
        from repro.lsh.index import block_candidates

        Q = check_matrix(Q, "Q")
        if Q.shape[1] != self.d:
            raise ParameterError(
                f"expected query dimension {self.d}, got {Q.shape[1]}"
            )
        answers: List[MIPSAnswer] = []
        for q0 in range(0, Q.shape[0], block):
            Q_block = Q[q0:q0 + block]
            cands = block_candidates(self.index, Q_block)
            result = verify_block(self._P, Q_block, cands, signed=True)
            index, value, work = result.best_index, result.best_score, cands.sizes
            misses = np.flatnonzero(index < 0)
            if misses.size:
                # Exact-scan fallback for empty-bucket queries, one GEMM.
                scan = self._P @ Q_block[misses].T  # (n, |misses|)
                index[misses] = np.argmax(scan, axis=0)
                value[misses] = scan[index[misses], np.arange(misses.size)]
                work[misses] = self.n
            answers.extend(
                MIPSAnswer(index=int(i), value=float(v), work=int(w))
                for i, v, w in zip(index, value, work)
            )
        return answers
