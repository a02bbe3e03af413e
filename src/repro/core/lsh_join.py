"""The one candidate -> score -> answer pipeline of the filter backends.

Every Section 4 upper bound ends the same way: the (A)LSH joins of
4.1-4.2 and the sketch join of 4.3 propose candidate pairs, compute
their exact inner products, and keep the pairs that clear ``cs``; the
int8 ``quantized`` scan and the ``ip_filter`` sketch filter have the
same shape.  :func:`pipeline_chunk` is that ending, written once.  Per
query block it takes a :class:`~repro.lsh.csr.CandidateBlock` from a
generator, drops self (and duplicate) pairs with one pair mask, scores
the block with :func:`~repro.core.verify.verify_block`, and reduces the
scored pairs with the answer reducer the Jaccard kernels share
(:func:`~repro.core.verify._answers`).  Threshold, top-k and self joins
differ only in the spec the reducer and the mask read.

:func:`lsh_candidates` is the LSH generator.  It and
:func:`pipeline_chunk` call ``block_candidates`` and
``verify_block`` through this module's globals: they are the pipeline's
candidate and score steps, so a tracer that replaces them here sees
every call.  Callers reach the pipeline through :func:`repro.engine.join`
with ``backend="lsh"``, ``"sketch"``, ``"quantized"`` or
``"ip_filter"``.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.core.verify import _answers, verify_block
from repro.errors import ParameterError
from repro.lsh.csr import CandidateBlock
from repro.lsh.index import block_candidates
from repro.obs.trace import span

#: ``candidates(q0, q1)``: the candidate block of chunk rows ``[q0, q1)``.
Generator = Callable[[int, int], CandidateBlock]


def self_pair_mask(
    qids: np.ndarray, rows: np.ndarray, P, first: int, match_duplicates: bool
) -> np.ndarray:
    """A self join's pair mask over ``(query, row)`` pairs: False for each
    query's own row (block query ``i`` is row ``first + i`` of ``P``)
    and, unless ``match_duplicates``, for every row float-equal to it."""
    own = first + qids
    keep = rows != own
    if not match_duplicates:
        # Rows differing in the first coordinate cannot be equal; only
        # the rest pay for the full-row compare.
        same = np.flatnonzero(keep & (P[rows, 0] == P[own, 0]))
        keep[same] = ~np.all(P[rows[same]] == P[own[same]], axis=1)
    return keep


def pipeline_chunk(
    candidates: Generator, P, Q_chunk, spec, block: int, start: int = 0
) -> Tuple[list, int]:
    """Generate -> mask -> score -> reduce over one query chunk.

    ``start`` is the chunk's global offset (self joins mask by global
    row).  Returns ``(answers, pairs_scored)``: per query, a match or
    ``None`` (a top-k list when ``spec.k`` is set).
    """
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    answers: list = []
    scored = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        b = Q_block.shape[0]
        cands = candidates(q0, q0 + b)
        if spec.is_self:
            qids = cands.qids()
            keep = self_pair_mask(qids, cands.rows, P, start + q0,
                                  spec.match_duplicates)
            cands = CandidateBlock.from_pairs(qids[keep], cands.rows[keep], b)
        with span("verify"):
            result = verify_block(P, Q_block, cands, signed=spec.signed)
        scored += result.n_evaluated
        answers.extend(_answers(cands.qids(), cands.rows, result.scores,
                                b, spec.cs, spec.k))
    return answers, scored


def lsh_candidates(index, Q_chunk, n_probes: int = 0) -> Generator:
    """The LSH generator: one ``block_candidates`` call per query block."""
    def candidates(q0: int, q1: int) -> CandidateBlock:
        with span("candidates", n_queries=q1 - q0):
            return block_candidates(index, Q_chunk[q0:q1], n_probes)
    return candidates
