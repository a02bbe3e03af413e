"""The pluggable similarity-measure layer: descriptors + registry.

A :class:`MeasureDescriptor` is everything the *engine core* needs to
know about a similarity measure, factored out of the formerly IP-only
dispatch path:

* how to validate and coerce the ``P``/``Q`` collections (dense float
  matrices for ``ip``, ragged/CSR :class:`~repro.datasets.sets.SetCollection`
  for ``jaccard``) and check they are mutually compatible;
* how to score a :class:`~repro.lsh.csr.CandidateBlock` of
  ``(query, data_row)`` pairs exactly — the one scorer the sharding
  merge and the re-verification of weaker-spec stages hand to
  :func:`repro.core.verify._answers`;
* which multi-stage plan shapes apply (the norm-prefix / sketch /
  quantized-filter hybrids are inner-product constructions, so only
  ``ip`` admits them).

Backends declare which measures they speak via
``JoinBackend.measures`` (default ``("ip",)``), and the registry's
:func:`~repro.engine.registry.backends_for` crosses that with
``variants`` into the ``(measure, variant)`` capability matrix.  The
planner consults the same matrix: a backend outside the spec's cell is
priced infeasible with a reason, never asked for an estimate.

Everything here is deliberately free of numerics: the measure layer
routes and validates; the kernels (``core/brute_force.py``,
``core/set_join.py``, ...) do the math.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.core.set_join import verify_set_block
from repro.core.verify import verify_block
from repro.datasets.sets import SetCollection
from repro.errors import ParameterError
from repro.utils.validation import check_matrix


@dataclass(frozen=True)
class MeasureDescriptor:
    """Engine-facing contract of one similarity measure.

    Attributes:
        name: registry key; ``JoinSpec.measure`` values resolve here.
        data_kind: coarse collection type tag — ``"dense"`` (float64
            matrices) or ``"sets"`` (CSR set collections).  Documentation
            plus a capability-matrix column; dispatch never switches on
            it.
        validate: ``validate(obj, name) -> collection`` — coerce/check
            one input collection (the per-side half of the old
            ``validate_join_inputs``).
        check_compatible: ``check_compatible(P, Q) -> None`` — raise
            unless the two collections can be joined (dimension match
            for ``ip``, shared universe for ``jaccard``).
        verify_block: ``verify_block(P, Q, block, signed) ->
            BlockVerification`` — the exact scores of a candidate block
            over the rows of ``Q`` (:func:`repro.core.verify.verify_block`
            for ``ip``, :func:`repro.core.set_join.verify_set_block` for
            ``jaccard``); the one scorer for sharding merges and
            re-verification.
        concat: ``concat(parts) -> collection`` — join validated
            collections row-wise, in order (``np.concatenate`` for
            ``ip``, :meth:`~repro.datasets.sets.SetCollection.concat` for
            ``jaccard``); ``session.query_stream`` re-blocks its batches
            into windows with it.
        supports_hybrids: whether the planner's multi-stage hybrid
            shapes are meaningful for this measure.
    """

    name: str
    data_kind: str
    validate: Callable
    check_compatible: Callable
    verify_block: Callable
    concat: Callable
    supports_hybrids: bool = True


_MEASURES: Dict[str, MeasureDescriptor] = {}


def register_measure(descriptor: MeasureDescriptor, replace: bool = False):
    """Register a measure descriptor under its name (loud on duplicates)."""
    if not descriptor.name:
        raise ParameterError("measure descriptor must define a name")
    if descriptor.name in _MEASURES and not replace:
        raise ParameterError(
            f"measure {descriptor.name!r} is already registered; pass "
            f"replace=True to shadow it"
        )
    _MEASURES[descriptor.name] = descriptor
    return descriptor


def get_measure(name: str) -> MeasureDescriptor:
    """Look up a measure by name, with a helpful error on misses."""
    try:
        return _MEASURES[name]
    except KeyError:
        raise ParameterError(
            f"unknown measure {name!r}; registered: {available_measures()}"
        ) from None


def available_measures() -> List[str]:
    """Registered measure names, in registration order."""
    return list(_MEASURES)


# -- inner product (the paper's measure; the pre-refactor behaviour) ----

def _ip_validate(obj, name: str):
    return check_matrix(obj, name)


def _ip_compatible(P, Q) -> None:
    if P.shape[1] != Q.shape[1]:
        raise ParameterError(
            f"P and Q must share a dimension, got {P.shape[1]} and {Q.shape[1]}"
        )


register_measure(MeasureDescriptor(
    name="ip",
    data_kind="dense",
    validate=_ip_validate,
    check_compatible=_ip_compatible,
    verify_block=verify_block,
    concat=np.concatenate,
    supports_hybrids=True,
))


# -- Jaccard (set collections; arXiv:1907.02251's BCP measure) ----------

def _jaccard_validate(obj, name: str):
    return SetCollection.coerce(obj, name)


def _jaccard_compatible(P, Q) -> None:
    if P.shape[1] != Q.shape[1]:
        raise ParameterError(
            f"P and Q must share a universe, got {P.shape[1]} and {Q.shape[1]}"
        )


register_measure(MeasureDescriptor(
    name="jaccard",
    data_kind="sets",
    validate=_jaccard_validate,
    check_compatible=_jaccard_compatible,
    verify_block=verify_set_block,
    concat=SetCollection.concat,
    supports_hybrids=False,
))
