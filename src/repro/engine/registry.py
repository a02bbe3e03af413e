"""Backend registry: name -> :class:`~repro.engine.protocol.JoinBackend`.

The registry is the engine's one source of truth for what algorithms
exist.  The four built-in backends register on import of
:mod:`repro.engine`; external code can add more with :func:`register`
(a norms-aware hybrid, a GPU scan, ...) and they immediately become
valid ``backend=`` names for :func:`repro.engine.join` and candidates
for the planner's ``backend="auto"`` ranking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.engine.protocol import JoinBackend
from repro.errors import ParameterError

_REGISTRY: Dict[str, JoinBackend] = {}


def register(backend: JoinBackend, replace: bool = False) -> JoinBackend:
    """Register ``backend`` under ``backend.name``.

    Raises :class:`~repro.errors.ParameterError` on duplicate names
    unless ``replace=True`` (so accidental shadowing is loud).
    """
    name = getattr(backend, "name", "")
    if not name:
        raise ParameterError("backend must define a non-empty name")
    if name in _REGISTRY and not replace:
        raise ParameterError(
            f"backend {name!r} is already registered; pass replace=True "
            f"to shadow it"
        )
    _REGISTRY[name] = backend
    return backend


def get_backend(name: str) -> JoinBackend:
    """Look up a backend by name, with a helpful error on misses."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown backend {name!r}; registered: {available_backends()}"
        ) from None


def available_backends() -> List[str]:
    """Registered backend names, in registration order."""
    return list(_REGISTRY)


def backends_for(measure: str, variant: str) -> List[str]:
    """Names of registered backends covering the ``(measure, variant)``
    capability cell, in registration order.

    A backend covers a cell when ``measure`` is in its ``measures``
    tuple (default ``("ip",)`` — pre-measure backends are IP-only) and
    ``variant`` is in its ``variants`` tuple.
    """
    return [
        name
        for name, backend in _REGISTRY.items()
        if measure in getattr(backend, "measures", ("ip",))
        and variant in getattr(backend, "variants", ())
    ]


def capability_gap(name: str, spec) -> Optional[str]:
    """Why backend ``name`` cannot answer ``spec``, or ``None`` if it can.

    The engine's one check of the capability table, measure first, then
    variant: :func:`~repro.engine.planner.plan_join` prices a backend
    with a gap infeasible without asking for its estimate, and a session
    rejects an explicit name or Plan stage with one before any stage
    prepares.
    """
    backend = get_backend(name)
    if spec.measure not in getattr(backend, "measures", ("ip",)):
        return f"does not answer measure {spec.measure!r}"
    if spec.variant not in getattr(backend, "variants", ()):
        return f"does not answer the {spec.variant!r} variant"
    return None


def capability_matrix() -> Dict[Tuple[str, str], List[str]]:
    """The full ``(measure, variant) -> backend names`` matrix."""
    matrix: Dict[Tuple[str, str], List[str]] = {}
    for name, backend in _REGISTRY.items():
        for measure in getattr(backend, "measures", ("ip",)):
            for variant in getattr(backend, "variants", ()):
                matrix.setdefault((measure, variant), []).append(name)
    return matrix
