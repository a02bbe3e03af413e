"""The backend contract of the unified join engine.

Every join algorithm in the repository — the exact quadratic scan, the
norm-pruned LEMP-style scan, and the filter-then-verify backends (LSH,
the Section 4.3 sketch join, the int8 scan, the inner-product sketch
filter) — answers the same problem record
(:class:`~repro.core.problems.JoinSpec`) and is driven through the same
three-step life cycle:

1. :meth:`JoinBackend.prepare` — validate options, resolve the final
   spec (the sketch backend substitutes its own ``c = n^{-1/kappa}``),
   and produce a *payload*: a picklable object that either is the built
   structure or knows how to ``build(P)`` one (the engine builds it
   once, in :func:`~repro.engine.execute.prepare_stage`, before any
   chunk runs).  The payload holds only what its build makes and the
   options that shape it; the engine keeps the final spec.
2. :meth:`JoinBackend.run_chunk` — THE inner loop: answer one contiguous
   query chunk given its global ``start`` offset, the stage's final
   spec and the verification block size, returning a
   :class:`ChunkResult`.  Serial execution is the one-chunk special
   case; parallel execution shards chunks across processes.  Both call
   this exact method, which is what makes results bit-identical across
   worker counts.
3. :meth:`JoinBackend.estimate_cost` — a calibratable operation-count
   estimate used by the planner to implement ``backend="auto"``.

The engine owns the request: a backend's ``measures`` x ``variants``
row is checked once, by
:func:`~repro.engine.registry.capability_gap`, before the planner asks
for an estimate or a session prepares a stage, so no backend method
re-checks the spec's measure or variant.

Backends never touch process pools or chunking themselves; that is the
executor's job (:func:`repro.core.executor.map_query_chunks`), which the
engine drives identically for every backend.

Built structures additionally participate in the session machinery
through the array detour of :mod:`repro.core.arena`: the arrays a
process pool's freeze would ship (found by
:func:`~repro.core.arena.collect_arrays`) are what a
:class:`~repro.engine.session.JoinSession` pins into the pool's
shared-memory arena, so repeated queries never re-copy them, and what
the directory persistence format (:mod:`repro.utils.persistence`)
writes as raw memmappable sidecars.  A structure needs no hook for
either: any payload that pickles takes part.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.problems import JoinSpec, QueryStats


@dataclass(frozen=True)
class CostEstimate:
    """A backend's predicted cost for one join instance, in abstract ops.

    ``build_ops`` + ``query_ops`` are multiply-add-equivalent counts
    scaled by a :class:`~repro.engine.planner.CostModel`; they are
    comparable *across* backends under one model, which is all the
    planner needs.  ``feasible = False`` (with ``reason``) marks
    instances a backend cannot answer — a cell outside its capability
    row (priced by the planner's gate), no approximation gap,
    parameters outside its guarantee.
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

    @classmethod
    def from_answers(cls, spec: JoinSpec, answers: list, evaluated: int,
                     generated: int, stats: QueryStats,
                     **fields) -> "ChunkResult":
        """The chunk result of a kernel's per-query answers: matches, or
        top-k lists (each list's head is the query's match)."""
        if not spec.is_topk:
            return cls(answers, evaluated, generated, stats, **fields)
        return cls([lst[0] if lst else None for lst in answers], evaluated,
                   generated, stats, topk=answers, **fields)


class JoinBackend(ABC):
    """One join algorithm adapted to the engine's common surface."""

    #: Registry name; also reported in ``JoinResult.backend``.
    name: str = ""

    #: Problem variants (:attr:`JoinSpec.variant` values) this backend
    #: answers.
    variants: Tuple[str, ...] = ()

    #: Similarity measures (:attr:`JoinSpec.measure` values) this backend
    #: speaks.  The cross product ``measures x variants`` is the
    #: backend's row of the engine's capability table, checked by
    #: :func:`repro.engine.registry.capability_gap`; the default keeps
    #: every pre-measure-layer backend an IP backend without edits.
    measures: Tuple[str, ...] = ("ip",)

    @abstractmethod
    def prepare(self, P, spec: JoinSpec, *, seed=None,
                **options) -> Tuple[Any, JoinSpec]:
        """Resolve options into ``(payload, final_spec)``.

        Called only for a spec inside this backend's capability row.
        ``payload`` must be picklable and either be the ready structure
        (``None`` when there is none) or expose ``build(P) ->
        structure``, which the engine calls once, in the calling
        process, right after ``prepare``
        (:func:`~repro.engine.execute.prepare_stage`); the executor and
        every :meth:`run_chunk` get the built structure.
        ``final_spec`` is the spec the result will carry — usually the
        input spec, but a backend may pin fields it controls (the sketch
        backend sets ``c`` to the structure's approximation factor).
        The engine hands it back to every :meth:`run_chunk` call.
        """

    @abstractmethod
    def run_chunk(self, structure, P, Q_chunk, start: int, spec: JoinSpec,
                  block: int) -> ChunkResult:
        """Answer ``Q_chunk`` (global offset ``start``) with ``structure``
        under the stage's final ``spec``, verifying ``block`` queries at
        a time."""

    @abstractmethod
    def estimate_cost(
        self, n: int, m: int, d: int, spec: JoinSpec, model
    ) -> CostEstimate:
        """Predicted cost of ``build + run`` on an (n, d) x (m, d) instance.

        Asked only about specs inside this backend's capability row.
        """
