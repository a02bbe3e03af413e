"""Unsigned join via linear sketches — the Section 4.3 algorithm.

Builds one :class:`repro.sketches.cmips.SketchCMIPS` structure over ``P``
and queries it for every row of ``Q``: total time ``O~(d n^{2-2/kappa})``
for ``|P| = |Q| = n``, approximation ``c = Theta(n^{-1/kappa})`` — truly
subquadratic for every ``kappa > 2``, with no fast matrix multiplication,
which is exactly the point the paper makes against [29].

:func:`sketch_candidates` is the sketch join's candidate generator: each
query block goes through one batched recovery descent
(``PrefixRecoveryIndex.query_batch`` — stacked GEMMs instead of
per-query GEMVs), and its one proposal per query becomes a
:class:`~repro.lsh.csr.CandidateBlock`.  A self join masks each query's
identical pair *inside* the descent (``exclude=``), so the descent
itself proposes the best *other* vector.  The block then runs through
the shared pipeline (:func:`repro.core.lsh_join.pipeline_chunk`),
which verifies it exactly and reports matches clearing ``c * s``.
Callers reach it through :func:`repro.engine.join` with
``backend="sketch"``.
"""

from __future__ import annotations

import numpy as np

from repro.lsh.csr import CandidateBlock
from repro.obs.trace import span
from repro.sketches.cmips import SketchCMIPS


def sketch_candidates(structure: SketchCMIPS, Q_chunk, start: int,
                      exclude_self: bool):
    """The sketch generator: one batched descent per query block.

    With ``exclude_self`` the chunk's rows are rows ``start, start + 1,
    ...`` of the data, and each excludes itself from its own descent.
    """
    def candidates(q0: int, q1: int) -> CandidateBlock:
        exclude = (np.arange(start + q0, start + q1, dtype=np.int64)
                   if exclude_self else None)
        with span("sketch_propose", n_queries=q1 - q0):
            # The recovery descent alone: the join reads only the
            # proposed indices, never the structure's norm estimates.
            indices, _ = structure.recovery.query_batch(Q_chunk[q0:q1],
                                                        exclude=exclude)
        found = indices >= 0
        indptr = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(found, out=indptr[1:])
        return CandidateBlock(indptr, indices[found].astype(np.int64))
    return candidates
