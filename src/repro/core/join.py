"""The paper's reduction of unsigned to signed join.

A pair with ``|p.q| >= cs`` either has ``p.q >= cs`` or ``p.(-q) >= cs``,
so an unsigned join is two signed joins — against ``Q`` and ``-Q`` —
whose answers are merged by absolute value.  It is a *reduction*, not a
backend: both signed joins run through :func:`repro.engine.join`, with
whatever backend and options the caller forwards.
"""

from __future__ import annotations

import numpy as np

from repro.core.problems import JoinResult, JoinSpec, validate_join_inputs


def unsigned_via_signed(P, Q, spec: JoinSpec, **engine_options) -> JoinResult:
    """Unsigned join by two signed joins: against ``Q`` and against ``-Q``.

    ``engine_options`` (``backend=``, ``family=``, ``seed=``, ...) are
    forwarded to both :func:`repro.engine.join` calls.  The two signed
    results merge keeping the better verified absolute value per query.
    """
    from repro.engine.api import join as engine_join

    P, Q = validate_join_inputs(P, Q)
    signed_spec = JoinSpec(s=spec.s, c=spec.c, signed=True)
    positive = engine_join(P, Q, signed_spec, **engine_options)
    negative = engine_join(P, -Q, signed_spec, **engine_options)
    matches = []
    for i in range(Q.shape[0]):
        best = None
        best_value = -np.inf
        for result in (positive, negative):
            match = result.matches[i]
            if match is None:
                continue
            value = abs(float(P[match] @ Q[i]))
            if value >= spec.cs and value > best_value:
                best, best_value = match, value
        matches.append(best)
    return JoinResult(
        matches=matches,
        spec=spec,
        inner_products_evaluated=(
            positive.inner_products_evaluated + negative.inner_products_evaluated
        ),
        candidates_generated=(
            positive.candidates_generated + negative.candidates_generated
        ),
    )
