"""Session-oriented engine core: build once, query many times.

``engine.join()`` is one-shot: validate, plan, prepare, run, throw
everything away.  A serving workload is the opposite shape — one
long-lived index, many small query batches — and paying the plan +
prepare + pool-warmup tax per batch is exactly what the ROADMAP's
serving layer cannot afford.  A :class:`JoinSession` splits the
lifecycle:

* :func:`open_session` (exported as ``engine.open``) validates ``P`` and
  the spec once, plans once (amortizing build cost over an
  ``expected_queries`` hint — the planner ranks by
  ``build_ops + expected_queries * query_ops``, so build-heavy backends
  win sessions they would lose one-shot), prepares and *builds* every
  stage structure once, and — for parallel sessions — owns a persistent
  :class:`~repro.core.executor.WorkerPool` with ``P`` and every
  structure array pre-pinned in its shared-memory arena via
  ``share()``, so repeated queries freeze only their own ``Q``.
* :meth:`JoinSession.query` runs one batch against the prepared
  structures — no re-validation, no re-planning, no re-prepare, no
  array re-copying.  Each call gets its own span tree (root
  ``session.query``) and appends one
  :class:`~repro.obs.planner_log.PlannerRecord` tagged with
  ``expected_queries`` and the session reuse count.
* :meth:`JoinSession.query_stream` answers a query set too large to
  hold with bounded memory: one batch in the measure's own form (a
  matrix, an ``np.memmap`` or a set collection) or an iterable of
  batches, re-blocked into windows that are each one ordinary query
  batch through the same dispatch as :meth:`query`.  The windows merge
  into one result, bit-identical to the in-memory one.
* :meth:`JoinSession.save` / :func:`open_path` persist the prepared
  session in the directory format of :mod:`repro.utils.persistence`:
  large arrays become raw sidecars and load back as ``np.memmap`` views,
  so N serving processes opening one saved index share page cache
  instead of each copying the arrays.
* :meth:`JoinSession.close` releases the owned pool and its shared
  memory (``/dev/shm`` clean, enforced by tests even across worker
  crashes).

``engine.join()`` itself is now a thin open→query→close shim over a
*lazy* session (plan and prepare happen inside the query call, under
the query's tracer) — which is what keeps it bit-identical to the
pre-session engine, spans and planner records included.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Iterator, List, Optional, Union

from repro.core.arena import collect_arrays
from repro.core.executor import (
    POOL_KINDS,
    WorkerPool,
    merge_join_chunks,
    resolve_workers,
)
from repro.core.problems import JoinResult, JoinSpec
from repro.core.verify import DEFAULT_BLOCK
from repro.engine.execute import (
    PreparedStage,
    _one_stage,
    fold_stats_metrics,
    prepare_stage,
    run_single_stage,
    run_stage_plan,
)
from repro.engine.measures import get_measure
from repro.engine.plan import Plan, plan_point_indices
from repro.engine.planner import CostModel, plan_join
from repro.errors import ParameterError
from repro.obs import MetricsRegistry, Tracer, observe
from repro.obs.planner_log import PlannerRecord, current_log
from repro.obs.resources import ResourcePoller
from repro.obs.resources import snapshot as resource_snapshot
from repro.obs.sampler import TraceSampler
from repro.obs.sink import EventSink
from repro.utils.persistence import load_structure_dir, save_structure_dir

#: Default build-amortization hint for sessions: "about a hundred query
#: batches will run against this index".  One-shot ``join()`` uses 1.
DEFAULT_EXPECTED_QUERIES = 100

#: Default per-batch query count the session planner prices with when a
#: representative batch size is not given.
DEFAULT_QUERY_BATCH_HINT = 256


def _serialized(method):
    """Run ``method`` holding the session's lock: one caller at a time."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


@dataclass
class SessionState:
    """Everything a saved session needs to serve again in a new process.

    Persisted via :func:`repro.utils.persistence.save_structure_dir`:
    the pickled shell holds the spec/plan/config, while ``P``, each
    stage's point-partition copy, and every structure array detour to
    raw sidecar files — deduplicated by identity, so a non-partitioned
    stage whose ``P_stage`` *is* ``P`` stores the matrix once — and come
    back as read-only memmap views under ``engine.open_path``.
    """

    spec: JoinSpec
    requested: Union[str, Plan]
    plan: Plan
    seed: Optional[int]
    block: int
    expected_queries: int
    query_batch_hint: int
    options: dict
    P: Any
    prepared: List[PreparedStage] = field(default_factory=list)


class JoinSession:
    """A prepared join engine: one plan, built structures, many queries.

    Construct through :func:`open_session` / ``engine.open`` (eager: plan
    and prepare now) or :func:`open_path` (load a saved session).  The
    engine's one-shot ``join()`` uses the lazy variant internally.

    Thread safety: a session serves one call at a time.  :meth:`query`,
    :meth:`query_stream`, :meth:`save` and :meth:`close` hold one
    per-session lock, so concurrent callers are serialized, never
    interleaved: every result, work counter and ``queries_served``
    equals what the same calls made one after another would give.  For
    parallel throughput use ``n_workers`` (the pool parallelizes inside
    a call) or one session per thread.
    """

    def __init__(
        self,
        P,
        spec: JoinSpec,
        *,
        backend: Union[str, Plan] = "auto",
        seed=None,
        n_workers: Union[int, str] = 1,
        block: int = DEFAULT_BLOCK,
        model: Optional[CostModel] = None,
        pool: str = "process",
        executor: Optional[WorkerPool] = None,
        blas_threads: Optional[int] = None,
        expected_queries: int = DEFAULT_EXPECTED_QUERIES,
        query_batch_hint: int = DEFAULT_QUERY_BATCH_HINT,
        trace_sample_rate: float = 0.0,
        trace_sample_cap: Optional[int] = None,
        trace_sample_seed: Optional[int] = None,
        _eager: bool = True,
        **options,
    ):
        if expected_queries < 1:
            raise ParameterError(
                f"expected_queries must be >= 1, got {expected_queries}"
            )
        if query_batch_hint < 1:
            raise ParameterError(
                f"query_batch_hint must be >= 1, got {query_batch_hint}"
            )
        if block < 1:
            raise ParameterError(f"block must be >= 1, got {block}")
        if executor is None and pool not in POOL_KINDS:
            raise ParameterError(
                f"pool must be one of {POOL_KINDS}, got {pool!r}"
            )
        if not 0.0 <= trace_sample_rate <= 1.0:
            raise ParameterError(
                f"trace_sample_rate must be in [0, 1], got {trace_sample_rate!r}"
            )
        self.P = P
        self.spec = spec
        self.requested = backend
        self.requested_name = (
            backend.backend if isinstance(backend, Plan) else backend
        )
        self.seed = seed
        self.n_workers = resolve_workers(n_workers)
        self.block = block
        self.model = model
        self.pool_kind = pool
        self.blas_threads = blas_threads
        self.expected_queries = int(expected_queries)
        self.query_batch_hint = int(query_batch_hint)
        self.options = options
        self.the_plan: Optional[Plan] = None
        self.join_plan = None
        self.best_estimate = None
        self._prepared: List[PreparedStage] = []
        self._pool: Optional[WorkerPool] = executor
        self._own_pool = False
        self._eager = _eager
        self._closed = False
        self._lock = threading.Lock()
        self.queries_served = 0
        #: Always-on registry: reuse accounting (``session.queries``,
        #: ``session.stage_prepares``, ``session.pool_pins``,
        #: ``session.pool_rebuilds``, ``session.stream_chunks``) plus the
        #: serving latency histograms (``session.query_latency_us``,
        #: ``session.stage_latency_us.<backend>``,
        #: ``session.chunk_latency_us``) regardless of per-query tracing.
        self.metrics = MetricsRegistry(enabled=True)
        #: Per-query trace sampling: ``None`` when ``trace_sample_rate``
        #: is 0, so the disabled path costs nothing at all.
        self.sampler: Optional[TraceSampler] = (
            TraceSampler(
                trace_sample_rate,
                max_per_window=trace_sample_cap,
                seed=trace_sample_seed,
            )
            if trace_sample_rate > 0.0
            else None
        )
        self._sink: Optional[EventSink] = None
        self._own_sink = False
        self._sink_resource_every = 32
        self._poller: Optional[ResourcePoller] = None
        self._last_stage_records: list = []
        self._last_chunk_walls: list = []
        self._last_record: Optional[PlannerRecord] = None
        if _eager:
            self.P = get_measure(spec.measure).validate(P, "P")
            if spec.self_join and self.P.shape[0] < 2:
                raise ParameterError("self-join needs at least two vectors")
            self._resolve_plan(self.query_batch_hint, None)
            self._check_plan_shape()
            self._prepare_all()
            self._ensure_pool()

    # -- lazy construction (the join() shim) -----------------------------

    @classmethod
    def _lazy(cls, P, spec, **kw) -> "JoinSession":
        """A session that plans and prepares inside the first query call.

        This is what ``engine.join()`` and each shard of
        ``engine.sharded_join()`` run on: with
        ``expected_queries=1`` the planner ranking, the span tree, and
        the planner-log record are exactly the historical one-shot ones.
        """
        kw.setdefault("expected_queries", 1)
        return cls(P, spec, _eager=False, **kw)

    # -- planning --------------------------------------------------------

    def _check_plan_measures(self) -> None:
        """Reject explicit backends outside the spec's capability row.

        ``auto`` never needs this (the planner prices foreign-measure
        backends infeasible); explicit names and Plans would otherwise
        fail deep inside a kernel fed the wrong collection type.
        """
        from repro.engine.registry import backends_for, get_backend

        for stage in self.the_plan.stages:
            backend = get_backend(stage.backend)
            if self.spec.measure not in getattr(backend, "measures", ("ip",)):
                raise ParameterError(
                    f"backend {stage.backend!r} does not answer measure "
                    f"{self.spec.measure!r}; capable backends: "
                    f"{backends_for(self.spec.measure, self.spec.variant)}"
                )

    def _resolve_plan(self, m: int, planner_span) -> None:
        backend = self.requested
        if isinstance(backend, Plan):
            if self.options:
                raise ParameterError(
                    f"an explicit Plan carries per-stage options; got "
                    f"engine-level options {sorted(self.options)}"
                )
            self.the_plan = backend
            self._check_plan_measures()
            if planner_span is not None:
                planner_span.attrs.update(
                    picked=self.the_plan.backend, source="explicit"
                )
        elif backend == "auto":
            # Caller options bind to one backend's prepare, so the
            # ranking is restricted to single-stage plans when any are
            # present.
            self.join_plan = plan_join(
                self.P.shape[0], m, self.P.shape[1], self.spec, self.model,
                include_hybrids=not self.options,
                n_workers=self.n_workers,
                expected_queries=self.expected_queries,
            )
            self.best_estimate = self.join_plan.best_plan
            self.the_plan = self.best_estimate.plan
            if planner_span is not None:
                planner_span.attrs.update(
                    picked=self.the_plan.backend,
                    ranking=[
                        (pe.backend, pe.total_ops)
                        for pe in self.join_plan.feasible_plans
                    ],
                )
        else:
            self.the_plan = Plan.single(backend)
            self._check_plan_measures()
            if planner_span is not None:
                planner_span.attrs.update(picked=backend, source="explicit")

    def _emit_planner_attrs(self, planner_span) -> None:
        """Re-emit the stored planning decision on a per-query span."""
        if isinstance(self.requested, Plan):
            planner_span.attrs.update(
                picked=self.the_plan.backend, source="explicit"
            )
        elif self.requested == "auto":
            attrs = dict(picked=self.the_plan.backend, source="session")
            if self.join_plan is not None:
                attrs["ranking"] = [
                    (pe.backend, pe.total_ops)
                    for pe in self.join_plan.feasible_plans
                ]
            planner_span.attrs.update(attrs)
        else:
            planner_span.attrs.update(
                picked=self.requested, source="explicit"
            )

    def _check_plan_shape(self) -> None:
        if _one_stage(self.the_plan):
            return
        if self.options:
            raise ParameterError(
                f"multi-stage plans carry per-stage options; got "
                f"engine-level options {sorted(self.options)}"
            )
        if self.spec.variant not in ("join", "topk"):
            raise ParameterError(
                f"multi-stage plans answer the 'join' and 'topk' "
                f"variants, not {self.spec.variant!r}"
            )

    # -- preparation and pooling -----------------------------------------

    def _prepare_all(self) -> None:
        """Prepare and build every stage once."""
        self._prepared = []
        parts = plan_point_indices(self.the_plan, self.P)
        for i, point_idx in enumerate(parts):
            prep = prepare_stage(
                self.the_plan, i, self.P, self.spec, point_idx=point_idx,
                seed=self.seed, block=self.block,
                n_workers=self.n_workers, options=self.options,
            )
            self.metrics.counter("session.stage_prepares").inc()
            if hasattr(prep.payload, "build"):
                prep.payload = prep.payload.build(prep.P_stage)
            self._prepared.append(prep)

    def _ensure_pool(self) -> None:
        """(Re)create the owned worker pool and pin the session's arrays.

        Called at open and again lazily after a worker crash abandoned
        the pool mid-query: the session heals with a fresh pool (counted
        in ``session.pool_rebuilds``) instead of failing every
        subsequent query.

        Lazy sessions — the one-shot ``join()`` shim — never own a
        pool: their queries route through the persistent registry pool
        (or the caller's executor), the historical behavior.
        """
        if not self._eager or self.n_workers <= 1:
            return
        if self._pool is not None and not self._pool.closed:
            return
        if self._pool is not None and not self._own_pool:
            raise ParameterError(
                "the session's caller-managed executor pool is closed"
            )
        if self._pool is not None:
            self.metrics.counter("session.pool_rebuilds").inc()
        self._pool = WorkerPool(
            self.n_workers, kind=self.pool_kind,
            blas_threads=self.blas_threads,
        )
        self._pool.on_crash = self._on_crash
        self._own_pool = True
        if self._pool.kind == "process":
            # Every array repeated queries would otherwise re-freeze: those
            # of P, of each stage's point-partition copy and of each built
            # structure, each once.
            for arr in collect_arrays([self.P] + [
                part for prep in self._prepared
                for part in (prep.P_stage, prep.payload)
            ]):
                self._pool.share(arr)
                self.metrics.counter("session.pool_pins").inc()

    def _executor_for_call(self) -> Optional[WorkerPool]:
        if self.n_workers <= 1:
            return None
        return self._pool

    # -- the dispatch every query flavor shares --------------------------

    def _dispatch(
        self,
        Q,
        *,
        trace: bool,
        root: str,
        record: bool = True,
    ) -> JoinResult:
        """Plan (if lazy), walk the stages, finalize: THE dispatch path.

        For the ``engine.join()`` shim (lazy, ``root="engine.join"``)
        this reproduces the historical one-shot behavior bit for bit —
        same spans, same results, same planner record.  For session
        queries it reuses the prepared stages and tags the record with
        the session's amortization fields.
        """
        if self._closed:
            raise ParameterError("session is closed")
        self._ensure_pool()
        tracer = Tracer(enabled=trace)
        registry = MetricsRegistry(enabled=trace)
        wall_start = time.perf_counter()
        # Activating the tracer/registry as process-current lets
        # kernel-level instrumentation inside prepare/build attach to
        # this query's tree.
        obs_ctx = observe(tracer, registry) if trace else nullcontext()
        with obs_ctx, tracer.span(root, **self._root_attrs(Q.shape[0])):
            with tracer.span("planner") as planner_span:
                if self.the_plan is None:
                    self._resolve_plan(int(Q.shape[0]), planner_span)
                elif planner_span is not None:
                    self._emit_planner_attrs(planner_span)
            run = dict(
                seed=self.seed, n_workers=self.n_workers, block=self.block,
                trace=trace, tracer=tracer, pool=self.pool_kind,
                executor=self._executor_for_call(),
                blas_threads=self.blas_threads,
            )
            stage_records = None
            if _one_stage(self.the_plan):
                result, chunks, _ = run_single_stage(
                    self.the_plan, 0, self.P, Q, self.spec,
                    options=self.options, point_idx=None,
                    prep=self._prepared[0] if self._prepared else None,
                    **run,
                )
            else:
                self._check_plan_shape()
                result, chunks, stage_records = run_stage_plan(
                    self.the_plan, self.P, Q, self.spec,
                    prepared=self._prepared or None, **run,
                )
                with tracer.span("merge", stages=len(stage_records)):
                    pass
        result.wall_s = time.perf_counter() - wall_start
        bounds = [c.error_bound for c in chunks if c.error_bound is not None]
        if bounds:
            result.error_bound = max(bounds)
        if stage_records is None:
            stage_records = [dict(
                index=0, backend=result.backend,
                n=int(self.P.shape[0]), m=len(result.matches),
                wall_s=result.wall_s,
                evaluated=int(result.inner_products_evaluated),
                generated=int(result.candidates_generated),
                answered=int(result.matched_count),
            )]
        if self.best_estimate is not None:
            for rec, est in zip(stage_records, self.best_estimate.stage_estimates):
                rec["predicted_ops"] = est.total_ops
        if trace:
            for c in chunks:
                registry.merge_snapshot(c.metrics)
            fold_stats_metrics(registry, result)
            result.trace = tracer.take()
            result.metrics = registry
        # Stash the per-stage records and worker-side chunk walls for the
        # query surface's latency histograms (plain assignments — this
        # path is also the one-shot join shim and must stay lean).
        self._last_stage_records = stage_records
        self._last_chunk_walls = [c.wall_ns for c in chunks]
        if record:
            self._record(result, stage_records, len(result.matches))
        return result

    def _root_attrs(self, m: int) -> dict:
        """Attributes of a query's root span (``m`` query rows)."""
        return dict(
            backend=self.requested_name,
            n=int(self.P.shape[0]),
            m=int(m),
            d=int(self.P.shape[1]),
            variant=self.spec.variant,
            n_workers=int(self.n_workers),
        )

    def _record(self, result: JoinResult, stage_records, m: int) -> None:
        self._last_record = rec = (
            PlannerRecord(
                n=int(self.P.shape[0]),
                m=int(m),
                d=int(self.P.shape[1]),
                s=float(self.spec.s),
                c=float(self.spec.c),
                signed=bool(self.spec.signed),
                variant=self.spec.variant,
                mode="auto" if self.requested == "auto" else "explicit",
                picked=result.backend,
                wall_s=result.wall_s,
                predicted={
                    pe.backend: pe.total_ops
                    for pe in self.join_plan.feasible_plans
                } if self.join_plan is not None else {},
                evaluated=int(result.inner_products_evaluated),
                generated=int(result.candidates_generated),
                n_workers=int(self.n_workers),
                stages=stage_records,
                expected_queries=int(self.expected_queries),
                session_reuse=int(self.queries_served),
            )
        )
        current_log().record(rec)

    # -- serving telemetry -----------------------------------------------

    def _observe_query(
        self, result: JoinResult, wall_ns: int, sampled: bool
    ) -> None:
        """Per-call accounting and telemetry: the served-query count,
        latency histograms, sampled spans, sink.

        Runs after every :meth:`query` / :meth:`query_stream` — cheap
        enough (a few histogram observes) that it is unconditional;
        everything sink-shaped is gated on an attached sink.
        """
        self.queries_served += 1
        metrics = self.metrics
        metrics.counter("session.queries").inc()
        metrics.histogram("session.query_latency_us").observe(wall_ns / 1000.0)
        for rec in self._last_stage_records:
            metrics.histogram(
                f"session.stage_latency_us.{rec['backend']}"
            ).observe(rec["wall_s"] * 1e6)
        chunk_hist = metrics.histogram("session.chunk_latency_us")
        for w in self._last_chunk_walls:
            if w:
                chunk_hist.observe(w / 1000.0)
        if sampled:
            metrics.counter("session.traces_sampled").inc()
        sink = self._sink
        if sink is None:
            return
        if sampled and result.trace is not None:
            sink.emit("span", result.trace.to_dict())
        if self._last_record is not None:
            sink.emit("planner", self._last_record.to_dict())
        if self.queries_served % self._sink_resource_every == 0:
            self._emit_resource()
            self._emit_metrics()

    def _pool_health(self) -> dict:
        counter = self.metrics.counter
        return {
            "pool_rebuilds": int(counter("session.pool_rebuilds").value),
            "worker_crashes": int(counter("session.worker_crashes").value),
        }

    def _arena_bytes(self) -> int:
        pool = self._pool
        if pool is None or pool.closed or pool.kind != "process":
            return 0
        try:
            return int(pool.arena.nbytes)
        except Exception:
            return 0

    def _emit_resource(self) -> None:
        snap = resource_snapshot(
            arena_bytes=self._arena_bytes(), pool=self._pool_health()
        )
        g = self.metrics.gauge
        g("session.rss_bytes").set(snap.rss_bytes)
        g("session.minor_faults").set(snap.minor_faults)
        g("session.major_faults").set(snap.major_faults)
        g("session.arena_bytes").set(snap.arena_bytes)
        if self._sink is not None:
            self._sink.emit("resource", snap.to_dict())

    def _emit_metrics(self) -> None:
        if self._sink is not None:
            self._sink.emit("metrics", self.metrics.snapshot())

    def _on_crash(self, info: dict) -> None:
        """Called by the session's own pool when worker death breaks it."""
        crashes = self.metrics.counter("session.worker_crashes")
        crashes.inc()
        if self._sink is not None:
            self._sink.emit("crash", dict(info, worker_crashes=crashes.value))

    def attach_sink(
        self,
        sink,
        *,
        max_bytes: int = 64 * 1024 * 1024,
        max_files: int = 4,
        resource_every: int = 32,
    ) -> EventSink:
        """Stream this session's telemetry to a rotating JSONL sink.

        ``sink`` is a path (the session opens and owns an
        :class:`~repro.obs.sink.EventSink` with the given rotation
        settings, closing it with the session) or an ``EventSink`` the
        caller manages.  Once attached: sampled span trees (``span``),
        one planner record per query (``planner``), resource + registry
        snapshots every ``resource_every`` queries and at close
        (``resource`` / ``metrics``), and worker-crash notices
        (``crash``) all land there.  Returns the sink.
        """
        if self._closed:
            raise ParameterError("session is closed")
        if self._sink is not None:
            raise ParameterError(
                "a sink is already attached; detach_sink() first"
            )
        if resource_every < 1:
            raise ParameterError("resource_every must be >= 1")
        if isinstance(sink, EventSink):
            self._sink, self._own_sink = sink, False
        else:
            self._sink = EventSink(
                sink, max_bytes=max_bytes, max_files=max_files
            )
            self._own_sink = True
        self._sink_resource_every = int(resource_every)
        self._sink.emit("meta", {
            "n": int(self.P.shape[0]),
            "d": int(self.P.shape[1]),
            "backend": self.requested_name,
            "variant": self.spec.variant,
            "n_workers": int(self.n_workers),
            "expected_queries": int(self.expected_queries),
            "trace_sample_rate": (
                self.sampler.rate if self.sampler is not None else 0.0
            ),
        })
        self._emit_resource()
        return self._sink

    def detach_sink(self) -> None:
        """Stop sinking; flush, and close the sink if session-owned."""
        sink, self._sink = self._sink, None
        if sink is not None:
            if self._own_sink:
                sink.close()
            else:
                sink.flush()
        self._own_sink = False

    def poll_resources(
        self, interval_s: float = 1.0, keep: int = 512
    ) -> ResourcePoller:
        """Start a background resource poller tied to this session.

        Samples RSS / fault counts / arena bytes / pool health every
        ``interval_s`` seconds off the query path (into the attached
        sink too, when one is attached).  Stopped by :meth:`close`, or
        call ``.stop()`` on the returned poller.
        """
        if self._closed:
            raise ParameterError("session is closed")
        if self._poller is None:
            self._poller = ResourcePoller(
                interval_s=interval_s,
                keep=keep,
                extra=lambda: (self._arena_bytes(), self._pool_health()),
                sink=self._sink,
            ).start()
        return self._poller

    # -- public query surface --------------------------------------------

    @_serialized
    def query(self, Q=None, *, trace: bool = False) -> JoinResult:
        """Answer one query batch against the prepared structures.

        ``Q=None`` runs the self-join (self-join sessions only); other
        sessions require a ``(k, d)`` batch.  Results are bit-identical
        to ``engine.join(P, Q, spec, ...)`` with the same plan, seed,
        and worker configuration.

        Serving telemetry rides every call: the batch wall time, each
        stage's wall time, and every worker chunk's wall time land in
        the session's always-on latency histograms, and — when the
        session was opened with ``trace_sample_rate > 0`` — the sampler
        may promote this call to a fully traced one, whose span tree
        goes to the attached sink.
        """
        if self._closed:
            raise ParameterError("session is closed")
        if self.spec.self_join:
            if Q is not None:
                raise ParameterError(
                    "self-join sessions take a single set: pass Q=None"
                )
            Q = self.P
        else:
            if Q is None:
                raise ParameterError(
                    "this session answers cross joins: pass a query batch "
                    "(self-joins need a spec with self_join=True)"
                )
            Q = self._validate_batch(Q)
        sampled = self._sample(trace)
        t0 = time.perf_counter_ns()
        result = self._dispatch(
            Q, trace=trace or sampled, root="session.query"
        )
        self._observe_query(result, time.perf_counter_ns() - t0, sampled)
        return result

    def _validate_batch(self, Q):
        """Validate one query batch against ``P``.

        Only the incoming batch is checked: ``P`` was checked once at
        open, and re-scanning it here would fault every page of a
        memmap-loaded index back in on each query.
        """
        measure = get_measure(self.spec.measure)
        Q = measure.validate(Q, "Q")
        measure.check_compatible(self.P, Q)
        return Q

    def _sample(self, trace: bool) -> bool:
        """Does the sampler promote this untraced call to a traced one?"""
        return (
            not trace
            and self.sampler is not None
            and self.sampler.should_sample()
        )

    @_serialized
    def query_stream(
        self,
        chunks,
        *,
        chunk_rows: Optional[int] = None,
        trace: bool = False,
    ) -> JoinResult:
        """Answer a query set too large to hold, with bounded memory.

        ``chunks`` is one batch in the measure's own form — anything
        with a ``shape``: an ndarray, an ``np.memmap`` (map a raw file
        with ``np.memmap(path, dtype=np.float64, mode="r", shape=(rows,
        d))``) or a :class:`~repro.datasets.sets.SetCollection` — which
        is sliced into windows, or any other iterable of batches of any
        size, which are re-blocked into windows.  Each batch is
        validated once, like a :meth:`query` batch (a sliced batch one
        window at a time, so a memmap is never scanned whole).  Windows
        hold a multiple of the session ``block`` size (``chunk_rows``
        rounds down to one; default ``8 * block``), and each window is
        answered as one ordinary :meth:`query` batch, so one window is
        in flight at a time and worker pools parallelize within it.
        Block-aligned windows make the merged result **bit-identical**
        to ``query()`` over the concatenated rows.

        The call counts as one query: one planner record and one
        ``session.query_latency_us`` observation for the whole stream,
        while the chunk histogram sees every window's chunks and each
        stage's histogram its wall time summed over windows.  A traced
        (or sampled) stream returns one ``session.query_stream`` root
        span holding each window's ``session.query`` tree, in order.
        """
        if self._closed:
            raise ParameterError("session is closed")
        if self.spec.self_join:
            raise ParameterError(
                "self-join sessions cannot stream queries: the query set "
                "is P itself"
            )
        rows = chunk_rows if chunk_rows is not None else 8 * self.block
        rows = max(self.block, (rows // self.block) * self.block)
        sampled = self._sample(trace)
        traced = trace or sampled
        tracer = Tracer(enabled=traced)
        parts: List[JoinResult] = []
        stage_records: List[dict] = []
        chunk_walls: List[int] = []
        t0 = time.perf_counter_ns()
        with tracer.span("session.query_stream") as root:
            for window in self._windows(chunks, rows):
                self.metrics.counter("session.stream_chunks").inc()
                part = self._dispatch(
                    window, trace=traced, root="session.query", record=False,
                )
                parts.append(part)
                chunk_walls.extend(self._last_chunk_walls)
                if not stage_records:
                    stage_records = [dict(r) for r in self._last_stage_records]
                else:
                    for total, rec in zip(stage_records, self._last_stage_records):
                        for key in ("m", "wall_s", "evaluated", "generated", "answered"):
                            total[key] += rec[key]
                if root is not None:
                    root.children.append(part.trace)
            result = merge_join_chunks(
                [
                    (p.matches, p.inner_products_evaluated,
                     p.candidates_generated, p.stats)
                    for p in parts
                ],
                parts[0].spec if parts else self.spec,
                backend=self.the_plan.backend,
            )
            if root is not None:
                root.attrs.update(self._root_attrs(len(result.matches)))
        if result.spec.is_topk:
            result.topk = [lst for p in parts for lst in p.topk]
        bounds = [p.error_bound for p in parts if p.error_bound is not None]
        if bounds:
            result.error_bound = max(bounds)
        wall_ns = time.perf_counter_ns() - t0
        result.wall_s = wall_ns / 1e9
        if traced:
            result.trace = tracer.take()
            result.metrics = MetricsRegistry(enabled=True)
            for p in parts:
                result.metrics.merge_snapshot(p.metrics.snapshot())
        self._last_stage_records = stage_records
        self._last_chunk_walls = chunk_walls
        self._record(result, stage_records, len(result.matches))
        self._observe_query(result, wall_ns, sampled)
        return result

    def _windows(self, batches, rows: int) -> Iterator[Any]:
        """Validated windows of ``rows`` rows (the last may be short).

        A batch with a ``shape`` is sliced into windows; any other
        iterable yields batches of any size, which are validated one by
        one and joined with the measure's ``concat`` until a window
        fills.
        """
        if hasattr(batches, "shape"):
            whole = batches
            batches = (
                whole[lo:lo + rows] for lo in range(0, whole.shape[0], rows)
            )
        concat = get_measure(self.spec.measure).concat
        pending: list = []
        held = 0
        for batch in batches:
            batch = self._validate_batch(batch)
            pending.append(batch)
            held += batch.shape[0]
            while held >= rows:
                buffer = concat(pending) if len(pending) > 1 else pending[0]
                yield buffer[:rows]
                held -= rows
                pending = [buffer[rows:]] if held else []
        if held:
            yield concat(pending) if len(pending) > 1 else pending[0]

    # -- persistence -----------------------------------------------------

    @_serialized
    def save(self, path):
        """Persist the prepared session as a memmappable directory.

        Loads back with :func:`open_path`; the saved tree stores ``P``
        and every structure array exactly once (identity-deduped raw
        sidecars), so on-disk size ~= in-memory size and loading maps
        pages instead of copying bytes.
        """
        if self._closed:
            raise ParameterError("session is closed")
        if self.the_plan is None or not self._prepared:
            raise ParameterError(
                "only a prepared session can be saved: open it with "
                "engine.open(...), not via the one-shot join shim"
            )
        state = SessionState(
            spec=self.spec,
            requested=self.requested,
            plan=self.the_plan,
            seed=self.seed,
            block=self.block,
            expected_queries=self.expected_queries,
            query_batch_hint=self.query_batch_hint,
            options=dict(self.options),
            P=self.P,
            prepared=self._prepared,
        )
        return save_structure_dir(state, path)

    @classmethod
    def _from_state(
        cls,
        state: SessionState,
        *,
        n_workers: Union[int, str] = 1,
        pool: str = "process",
        executor: Optional[WorkerPool] = None,
        blas_threads: Optional[int] = None,
        trace_sample_rate: float = 0.0,
        trace_sample_cap: Optional[int] = None,
        trace_sample_seed: Optional[int] = None,
    ) -> "JoinSession":
        session = cls(
            state.P, state.spec,
            backend=state.requested, seed=state.seed,
            n_workers=n_workers, block=state.block,
            pool=pool, executor=executor, blas_threads=blas_threads,
            expected_queries=state.expected_queries,
            query_batch_hint=state.query_batch_hint,
            trace_sample_rate=trace_sample_rate,
            trace_sample_cap=trace_sample_cap,
            trace_sample_seed=trace_sample_seed,
            _eager=False,
            **state.options,
        )
        session.the_plan = state.plan
        session._prepared = list(state.prepared)
        session._check_plan_shape()
        session._eager = True
        session._ensure_pool()
        return session

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @_serialized
    def close(self) -> None:
        """Release the owned worker pool and its shared memory; idempotent.

        Caller-managed executors are left running (the caller owns their
        lifecycle, exactly as with ``join(executor=...)``).  An attached
        sink receives one final ``resource`` + ``metrics`` pair before
        detaching, so a sink file always ends with the session's totals.
        """
        if self._closed:
            return
        if self._poller is not None:
            self._poller.stop()
            self._poller = None
        if self._sink is not None:
            self._emit_resource()
            self._emit_metrics()
            self.detach_sink()
        self._closed = True
        pool, self._pool = self._pool, None
        if pool is not None and self._own_pool:
            pool.close()

    def __enter__(self) -> "JoinSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_session(P, spec: JoinSpec, **kw) -> JoinSession:
    """Open a prepared join session over ``P`` (exported as ``engine.open``).

    Signature mirrors :func:`repro.engine.join` minus the query set:
    ``backend=`` (name, Plan, or ``"auto"``), ``seed=``, ``n_workers=``,
    ``block=``, ``model=``, ``pool=``, ``executor=``, ``blas_threads=``,
    plus backend options — and the session knobs ``expected_queries``
    (build-amortization hint for the ``auto`` planner; default
    ``100``) and ``query_batch_hint`` (representative per-batch query
    count; default ``256``).

    Serving telemetry knobs: ``trace_sample_rate`` (probability that any
    single ``session.query`` call is promoted to a fully traced one;
    default 0 — off), ``trace_sample_cap`` (at most this many sampled
    traces per second), and ``trace_sample_seed`` (pin the sampling
    pattern).  Pair with :meth:`JoinSession.attach_sink` to persist
    sampled span trees, latency percentiles, planner records, and
    resource snapshots as rotating JSONL.

    For self-join sessions pass a spec with ``self_join=True`` and call
    ``session.query(None)``.
    """
    if not isinstance(spec, JoinSpec):
        raise ParameterError(
            "open(P, spec, ...) needs a JoinSpec as its second argument"
        )
    return JoinSession(P, spec, **kw)


def open_path(
    path,
    *,
    n_workers: Union[int, str] = 1,
    pool: str = "process",
    executor: Optional[WorkerPool] = None,
    blas_threads: Optional[int] = None,
    mmap: bool = True,
    trace_sample_rate: float = 0.0,
    trace_sample_cap: Optional[int] = None,
    trace_sample_seed: Optional[int] = None,
) -> JoinSession:
    """Open a session saved by :meth:`JoinSession.save` — zero-copy.

    With ``mmap=True`` (default) ``P`` and every structure array come
    back as read-only memmap views: the load costs the shell pickle
    only, and physical memory grows as queries touch pages — multiple
    serving processes opening the same path share one page cache.
    Execution knobs (``n_workers``, ``pool``, ...) are per-open, not
    persisted, so the same saved index can serve serial in one process
    and on 8 workers in another.  The plan is the saved one, and so is
    its ``expected_queries`` hint.
    """
    state = load_structure_dir(path, expected_type="SessionState", mmap=mmap)
    return JoinSession._from_state(
        state,
        n_workers=n_workers, pool=pool, executor=executor,
        blas_threads=blas_threads,
        trace_sample_rate=trace_sample_rate,
        trace_sample_cap=trace_sample_cap,
        trace_sample_seed=trace_sample_seed,
    )
