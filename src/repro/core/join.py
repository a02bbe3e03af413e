"""The paper's reduction of unsigned to signed join.

A pair with ``|p.q| >= cs`` either has ``p.q >= cs`` or ``p.(-q) >= cs``,
so an unsigned join is two signed joins — against ``Q`` and ``-Q`` —
whose answers are merged by absolute value, ties to the lowest index.
It is a *reduction*, not a backend: both signed joins run through
:func:`repro.engine.join`, with whatever backend and options the caller
forwards.
"""

from __future__ import annotations

import numpy as np

from repro.core.problems import JoinResult, JoinSpec, validate_join_inputs
from repro.core.verify import _answers, verify_block
from repro.lsh.csr import CandidateBlock


def unsigned_via_signed(P, Q, spec: JoinSpec, **engine_options) -> JoinResult:
    """Unsigned join by two signed joins: against ``Q`` and against ``-Q``.

    ``engine_options`` (``backend=``, ``family=``, ``seed=``, ...) are
    forwarded to both :func:`repro.engine.join` calls.  Each query's two
    signed answers (at most two rows) are scored by absolute value as one
    candidate block and reduced like every backend's: the best row at or
    above ``cs``, ties to the lowest index.
    """
    from repro.engine.api import join as engine_join

    P, Q = validate_join_inputs(P, Q)
    signed_spec = JoinSpec(s=spec.s, c=spec.c, signed=True)
    positive = engine_join(P, Q, signed_spec, **engine_options)
    negative = engine_join(P, -Q, signed_spec, **engine_options)
    block = CandidateBlock.from_lists([
        np.unique([m for m in pair if m is not None]).astype(np.int64)
        for pair in zip(positive.matches, negative.matches)
    ])
    scored = verify_block(P, Q, block, signed=False)
    return JoinResult(
        matches=_answers(block.qids(), block.rows, scored.scores,
                         Q.shape[0], spec.cs, None),
        spec=spec,
        inner_products_evaluated=(
            positive.inner_products_evaluated + negative.inner_products_evaluated
        ),
        candidates_generated=(
            positive.candidates_generated + negative.candidates_generated
        ),
    )
