"""The one dispatch path for every IPS join: ``repro.engine.join``.

Every join the repository can answer — signed or unsigned, threshold,
top-k or self, exact or approximate, serial or process-parallel — runs
through this function:

1. normalize inputs (``Q=None`` means a self-join of ``P``);
2. resolve the request into a :class:`~repro.engine.plan.Plan`: an
   explicit registry name becomes the one-stage special case, a
   :class:`~repro.engine.plan.Plan` instance is executed as-is, and
   ``"auto"`` lets the cost-model planner (:mod:`repro.engine.planner`)
   rank single-stage plans *and* two-stage hybrids;
3. execution walks the plan's stages under one ``JoinResult``: each
   stage's ``backend.prepare`` turns its options into a picklable
   structure payload over the stage's point subset, and the executor
   (:func:`repro.core.executor.map_query_chunks`) shards the stage's
   query subset into block-aligned chunks and runs the backend's
   ``run_chunk`` over each — in-process for ``n_workers=1``, across a
   process pool otherwise;
4. chunk results merge in query order through the executor's single
   merge path (:func:`repro.core.executor.merge_join_chunks` +
   :meth:`~repro.core.problems.QueryStats.merge`); for multi-stage
   plans the merged stage results fold into the global match arrays,
   and the unanswered-query mask flows to the next stage.

Because serial execution is literally the one-chunk case of the same
code, ``n_workers`` is an orthogonal knob: it never changes matches,
work counters, or stats — and because each stage's unanswered mask is
computed from its *fully merged* result, that holds stage by stage for
multi-stage plans too.

Since the session split (:mod:`repro.engine.session`), ``join()`` itself
is a thin shim: it opens a *lazy* :class:`~repro.engine.session.JoinSession`
(no eager planning, preparation, or pool ownership) and runs exactly one
query through the shared dispatch in :mod:`repro.engine.execute` —
which is the old monolith's stage-walk, extracted verbatim.  Planning
happens inside the query's ``planner`` span with ``expected_queries=1``
(the amortized ranking reduces to the historical one), and stages
prepare inline inside their spans, so results, span trees, stage
records, and planner-log records are bit-identical to the pre-session
engine.  Callers who run many queries against one ``P`` should hold a
session (``engine.open``) instead and amortize the build.

Observability (:mod:`repro.obs`) hangs off the same path.  With
``trace=True`` the dispatch runs under a span tracer — ``planner``,
then for one-stage plans ``prepare`` (with the index/sketch ``build``),
one ``run_chunk`` tree per chunk (stitched back from workers when
``n_workers > 1``), and ``merge``; multi-stage plans get one ``stage``
span per stage (each containing that stage's ``prepare``/``run``/
``merge``) plus a final top-level ``merge`` — and a metrics registry
that folds in the merged :class:`~repro.core.problems.QueryStats` plus
the kernels' GEMM/bucket instruments; both land on the returned
``JoinResult``.  Independently of tracing, inside a
:func:`~repro.obs.planner_log.use_planner_log` block every dispatch
appends one :class:`~repro.obs.planner_log.PlannerRecord` (predictions
for auto picks, measured wall time for all, one ``stages`` entry per
executed stage) to the installed
:class:`~repro.obs.planner_log.PlannerLog` for regret analysis and
cost-model recalibration.

The *serving* telemetry tier — per-query trace sampling
(``engine.open(..., trace_sample_rate=...)``), always-on latency
histograms with ``Histogram.quantile`` percentile readouts, resource
snapshots, and the rotating JSONL event sink
(``session.attach_sink``) — lives on :class:`JoinSession` rather than
here: one-shot joins have no "per-query" dimension to sample over.
``join()`` still stamps worker-side chunk wall times on its chunk
results (``ChunkResult.wall_ns``), so the same executor path feeds
session latency histograms without a second timing layer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

from repro.core.executor import WorkerPool, resolve_workers
from repro.core.problems import JoinResult, JoinSpec
from repro.core.verify import DEFAULT_BLOCK
from repro.engine.measures import get_measure
from repro.engine.plan import Plan
from repro.engine.planner import CostModel, JoinPlan, plan_join
from repro.engine.session import JoinSession
from repro.errors import ParameterError


def _normalize_inputs(P, Q, spec: JoinSpec):
    """Resolve the (P, Q, spec) triangle for all variants.

    Validation and compatibility delegate to the spec's measure
    descriptor: dense float matrices for ``ip`` (byte-for-byte the old
    ``check_matrix``/``validate_join_inputs`` path), CSR set collections
    for ``jaccard``.
    """
    measure = get_measure(spec.measure)
    if Q is None:
        spec = spec if spec.self_join else replace(spec, self_join=True)
        P = measure.validate(P, "P")
        if P.shape[0] < 2:
            raise ParameterError("self-join needs at least two vectors")
        return P, P, spec
    if spec.self_join:
        raise ParameterError(
            "self-join specs take a single set: pass Q=None"
        )
    P = measure.validate(P, "P")
    Q = measure.validate(Q, "Q")
    measure.check_compatible(P, Q)
    return P, Q, spec


def plan(
    P,
    Q,
    spec: JoinSpec,
    model: Optional[CostModel] = None,
    include_hybrids: bool = True,
    n_workers: Union[int, str] = 1,
) -> JoinPlan:
    """Rank candidate plans for this instance without running anything.

    The same planner call ``backend="auto"`` uses; exposed so callers
    (and the dispatch bench) can inspect *why* a plan was chosen.
    ``n_workers`` re-prices estimates for parallel execution
    (:meth:`~repro.engine.planner.CostModel.parallelize`).
    """
    P, Q, spec = _normalize_inputs(P, Q, spec)
    return plan_join(
        P.shape[0], Q.shape[0], P.shape[1], spec, model,
        include_hybrids=include_hybrids,
        n_workers=resolve_workers(n_workers),
    )


def join(
    P,
    Q,
    spec: JoinSpec,
    *,
    backend: Union[str, Plan] = "auto",
    seed=None,
    n_workers: Union[int, str] = 1,
    block: int = DEFAULT_BLOCK,
    model: Optional[CostModel] = None,
    trace: bool = False,
    pool: str = "process",
    executor: Optional[WorkerPool] = None,
    blas_threads: Optional[int] = None,
    **options,
) -> JoinResult:
    """Answer a ``(cs, s)`` join (any variant) through one dispatch path.

    Args:
        P: data matrix, shape (n, d).
        Q: query matrix, shape (m, d); ``None`` for a self-join of ``P``.
        spec: the problem record — thresholds, signedness, and the
            top-k / self variants (:class:`~repro.core.problems.JoinSpec`).
        backend: a registered backend name (``brute_force``,
            ``norm_pruned``, ``lsh``, ``sketch``, ...), a
            :class:`~repro.engine.plan.Plan` to execute as-is, or
            ``"auto"`` to let the cost-model planner choose among
            single-stage plans and two-stage hybrids.
        seed: reproducibility seed (an integer or a numpy
            ``Generator``) for backends that build randomized
            structures.  Structures are built once, in this process,
            before any worker runs.  Stage ``i`` of a multi-stage plan
            derives its own seed as ``seed + i``.
        n_workers: worker count or ``"auto"`` (cpu_count capped by
            ``REPRO_MAX_WORKERS``) — an orthogonal execution knob routed
            through :mod:`repro.core.executor`; results are identical
            for any value, stage by stage, in every pool kind.
        block: query block size; chunk boundaries align to it.
        model: optional calibrated :class:`~repro.engine.planner.CostModel`
            for ``backend="auto"``; when omitted, the persisted
            calibration cache is consulted
            (:func:`~repro.engine.planner.default_model`).
        trace: record a span trace and metrics for this join; the
            result's ``trace``/``metrics`` fields carry them.  Off by
            default — the disabled instrumentation path costs < 2% (the
            ``obs_overhead`` bench enforces it).
        pool: parallel execution flavour — ``"process"`` (shared-memory
            arena, persistent process pool) or ``"thread"`` (BLAS
            releases the GIL inside the chunk GEMMs; zero
            serialization).  Ignored when ``n_workers`` resolves to 1.
        executor: a caller-managed
            :class:`~repro.core.executor.WorkerPool` to run on instead
            of the persistent registry pool.
        blas_threads: BLAS threads per worker (default: the fair share
            ``cpu_count // n_workers``), preventing k workers x m BLAS
            threads oversubscription.
        options: backend-specific options (``family=...``, ``index=...``,
            ``kappa=...``, ``scan_block=...``, ...), validated by the
            chosen backend's ``prepare``.  They bind to a *single*
            backend: with ``backend="auto"`` they restrict the planner
            to single-stage plans, and they cannot accompany an explicit
            ``Plan`` (whose stages carry their own options).

    Returns:
        A :class:`~repro.core.problems.JoinResult` carrying matches (and
        ``topk`` lists for ``spec.k`` tasks), work counters, the plan's
        backend name (stage names joined by ``+`` for hybrids), merged
        :class:`~repro.core.problems.QueryStats`, and — for traced
        joins — the span tree and metrics registry.
    """
    P, Q, spec = _normalize_inputs(P, Q, spec)
    # The one-shot path is a lazy session: nothing is planned or
    # prepared here — the single _dispatch call below plans inside its
    # own planner span and prepares stages inline, reproducing the
    # historical monolith bit for bit.  No pool is owned either: the
    # query routes through the persistent registry pool (or the caller's
    # executor) exactly as before, so nothing is torn down afterwards.
    session = JoinSession._lazy(
        P, spec,
        backend=backend, seed=seed, n_workers=n_workers, block=block,
        model=model, pool=pool, executor=executor,
        blas_threads=blas_threads, **options,
    )
    result, stage_records, _ = session._dispatch(
        Q, trace=trace, root="engine.join"
    )
    session._record(result, stage_records)
    return result
