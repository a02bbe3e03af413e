"""Approximate unsigned MIPS through the Section 4.3 sketch structure."""

from __future__ import annotations

from typing import List

from repro.errors import ParameterError
from repro.mips.base import MIPSAnswer, MIPSEngine
from repro.sketches.cmips import SketchCMIPS
from repro.utils.rng import SeedLike
from repro.utils.validation import check_matrix

#: Queries per batched descent block; bounds the transient per-node value
#: tensors while keeping the stacked GEMMs large enough to pay off.
DEFAULT_QUERY_BLOCK = 1024


class SketchMIPS(MIPSEngine):
    """Unsigned c-MIPS with ``c = n^{-1/kappa}`` via linear sketches.

    Note the *unsigned* semantics: the engine maximizes ``|p . q|``; for
    non-negative data (sets, factor models with non-negative factors)
    this coincides with signed MIPS.
    """

    def __init__(self, P, kappa: float = 4.0, copies: int = 7, seed: SeedLike = None):
        super().__init__(P)
        self.structure = SketchCMIPS(self._P, kappa=kappa, copies=copies, seed=seed)

    @property
    def approximation_factor(self) -> float:
        return self.structure.approximation_factor

    def query(self, q) -> MIPSAnswer:
        q = self._check_query(q)
        answer = self.structure.query(q)
        work = self.structure.recovery.query_cost() // max(1, self.d)
        return MIPSAnswer(index=answer.index, value=answer.value, work=work)

    def query_batch(self, Q, block: int = DEFAULT_QUERY_BLOCK) -> List[MIPSAnswer]:
        """Block-at-a-time :meth:`query`: one batched prefix-tree descent
        and one stacked norm-estimate pass per ``block`` queries."""
        Q = check_matrix(Q, "Q", allow_empty=True)
        if Q.shape[0] and Q.shape[1] != self.d:
            raise ParameterError(
                f"expected query dimension {self.d}, got {Q.shape[1]}"
            )
        work = self.structure.recovery.query_cost() // max(1, self.d)
        answers: List[MIPSAnswer] = []
        for start in range(0, Q.shape[0], block):
            batch = self.structure.query_batch(Q[start : start + block])
            answers.extend(
                MIPSAnswer(
                    index=int(batch.indices[j]),
                    value=float(batch.values[j]),
                    work=work,
                )
                for j in range(len(batch))
            )
        return answers
