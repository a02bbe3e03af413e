"""The backend contract of the unified join engine.

Every join algorithm in the repository — the exact quadratic scan, the
norm-pruned LEMP-style scan, LSH filter-then-verify, and the Section 4.3
sketch join — answers the same problem record
(:class:`~repro.core.problems.JoinSpec`) and is driven through the same
three-step life cycle:

1. :meth:`JoinBackend.prepare` — validate options, resolve the final
   spec (the sketch backend substitutes its own ``c = n^{-1/kappa}``),
   and produce a *payload*: a picklable object that either is the built
   structure or knows how to ``build(P)`` one (the executor builds it
   once, before any worker runs).
2. :meth:`JoinBackend.run_chunk` — THE inner loop: answer one contiguous
   query chunk given its global ``start`` offset, returning a
   :class:`ChunkResult`.  Serial execution is the one-chunk special
   case; parallel execution shards chunks across processes.  Both call
   this exact method, which is what makes results bit-identical across
   worker counts.
3. :meth:`JoinBackend.estimate_cost` — a calibratable operation-count
   estimate used by the planner to implement ``backend="auto"``.

Backends never touch process pools or chunking themselves; that is the
executor's job (:func:`repro.core.executor.map_query_chunks`), which the
engine drives identically for every backend.

Built structures additionally participate in the session machinery
through :func:`persistable_arrays`: the large ndarrays a structure
carries are what a :class:`~repro.engine.session.JoinSession` pins into
a worker pool's shared-memory arena (so repeated queries never re-copy
them) and what the directory persistence format
(:mod:`repro.utils.persistence`) writes as raw memmappable sidecars.  A
structure may declare them explicitly with an ``arrays()`` method;
otherwise the generic pickle-graph walk finds every array the executor
would ship anyway.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.arena import ARENA_MIN_BYTES, collect_arrays
from repro.core.problems import JoinSpec, QueryStats


@dataclass(frozen=True)
class CostEstimate:
    """A backend's predicted cost for one join instance, in abstract ops.

    ``build_ops`` + ``query_ops`` are multiply-add-equivalent counts
    scaled by a :class:`~repro.engine.planner.CostModel`; they are
    comparable *across* backends under one model, which is all the
    planner needs.  ``feasible = False`` (with ``reason``) marks
    instances a backend cannot answer — wrong variant, no approximation
    gap, parameters outside its guarantee.
    """

    backend: str
    feasible: bool
    build_ops: float = 0.0
    query_ops: float = 0.0
    reason: str = ""

    @property
    def total_ops(self) -> float:
        return self.build_ops + self.query_ops


@dataclass
class ChunkResult:
    """One backend's answer for one contiguous query chunk.

    ``matches``/``topk`` are chunk-local lists in query order;
    ``evaluated``/``generated`` are this chunk's work counters; ``stats``
    is this chunk's :class:`~repro.core.problems.QueryStats` *delta*
    (reused index counters are snapshot-diffed by the kernels), so
    chunk results merge with plain sums and :meth:`QueryStats.merge`.

    When the engine runs with observability on, the executor's runner
    also fills ``trace`` (this chunk's detached
    :class:`~repro.obs.trace.Span` tree) and ``metrics`` (a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` dict); both are
    plain data, so they cross process boundaries with the rest of the
    result and stitch deterministically in chunk order.
    """

    matches: List[Optional[int]]
    evaluated: int = 0
    generated: int = 0
    stats: QueryStats = field(default_factory=QueryStats)
    topk: Optional[List[List[int]]] = None
    trace: Any = None
    metrics: Optional[dict] = None
    #: Filter stages only: one ascending array of surviving point
    #: indices per chunk query (chunk-local query order, structure-local
    #: point indices).  The engine remaps and hands them to the next
    #: stage as its ``proposals`` option.
    proposals: Optional[List[Any]] = None
    #: Guaranteed-recall knob: the largest additive inner-product error
    #: bound (quantization) or confidence margin (sketch filter) granted
    #: to any pair in this chunk.  Max-merged into
    #: ``JoinResult.error_bound``.
    error_bound: Optional[float] = None
    #: Worker-side wall time for this chunk (``perf_counter_ns`` around
    #: ``run_chunk``), stamped in every execution mode.  Sessions fold
    #: these into their ``session.chunk_latency_us`` histogram; kept
    #: outside ``metrics`` because timing is not part of the
    #: bit-identical serial/parallel contract.
    wall_ns: int = 0


def persistable_arrays(
    structure, threshold: int = ARENA_MIN_BYTES
) -> List[np.ndarray]:
    """The large ndarrays a built structure carries, deduped by identity.

    Structures that know their own layout declare it with an
    ``arrays()`` method returning the arrays worth sharing/persisting
    (see :class:`repro.quant.backend.QuantizedStructure`); anything else
    falls back to :func:`repro.core.arena.collect_arrays`, the same
    pickle-graph walk the zero-copy executor's freeze path uses — so by
    construction it finds exactly the arrays a process pool would ship.
    Arrays below ``threshold`` bytes are skipped either way (they travel
    inline for less than a segment costs).
    """
    if hasattr(structure, "arrays"):
        return [
            arr
            for arr in structure.arrays()
            if isinstance(arr, np.ndarray) and arr.nbytes >= threshold
        ]
    return collect_arrays(structure, threshold=threshold)


class JoinBackend(ABC):
    """One join algorithm adapted to the engine's common surface."""

    #: Registry name; also reported in ``JoinResult.backend``.
    name: str = ""

    #: Problem variants (:attr:`JoinSpec.variant` values) this backend
    #: answers.  The planner and the Plan IR consult this to decide which
    #: backends can serve as stages for a given spec.
    variants: Tuple[str, ...] = ()

    #: Similarity measures (:attr:`JoinSpec.measure` values) this backend
    #: speaks.  The cross product ``measures x variants`` is the
    #: backend's row of the engine's capability matrix
    #: (:func:`repro.engine.registry.backends_for`); the default keeps
    #: every pre-measure-layer backend an IP backend without edits.
    measures: Tuple[str, ...] = ("ip",)

    #: Filter backends propose survivors instead of answering queries;
    #: they may only run as ``kind="filter"`` Plan stages, never as a
    #: standalone backend (the engine enforces the match both ways).
    is_filter: bool = False

    @abstractmethod
    def prepare(
        self,
        P,
        spec: JoinSpec,
        *,
        seed=None,
        block: int,
        n_workers: int = 1,
        **options,
    ) -> Tuple[Any, JoinSpec]:
        """Resolve options into ``(payload, final_spec)``.

        ``payload`` is handed to the executor: it must be picklable when
        ``n_workers > 1`` and either be the ready structure or expose
        ``build(P) -> structure``, which the executor calls once, in
        the calling process, before any chunk runs.
        ``final_spec`` is the spec the result will carry — usually the
        input spec, but a backend may pin fields it controls (the sketch
        backend sets ``c`` to the structure's approximation factor).
        """

    @abstractmethod
    def run_chunk(self, structure, P, Q_chunk, start: int) -> ChunkResult:
        """Answer ``Q_chunk`` (global offset ``start``) with ``structure``."""

    @abstractmethod
    def estimate_cost(
        self, n: int, m: int, d: int, spec: JoinSpec, model
    ) -> CostEstimate:
        """Predicted cost of ``build + run`` on an (n, d) x (m, d) instance."""
