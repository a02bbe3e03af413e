"""The engine's stage walk: one stage body behind every join.

One-shot joins and long-lived sessions (:mod:`repro.engine.session`)
drive the same three functions; they differ only in where a stage's
prepared structure comes from.

* :func:`prepare_stage` is the one caller of ``backend.prepare``: it
  merges stage options and resolves the point partition and the stage
  seed.  It never builds.
* :func:`run_single_stage` is THE stage body: prepare (or reuse), the
  trace's ``build`` span, ``run`` through the executor, ``merge``.
  A one-stage plan is this one call.
* :func:`run_stage_plan` walks a multi-stage plan, one
  :func:`run_single_stage` call per stage inside its ``stage`` span,
  and folds each stage's answers into the global result.

A one-shot ``engine.join()`` passes no :class:`PreparedStage` objects:
every stage prepares inline inside its span, and the executor builds
the payload.  A session prepares and builds every stage once at
``open()`` and passes the results back in on each query; stages then
reuse the built payloads (and the point-partition copies).

Determinism: reuse never changes results, because prepare/build are
idempotent for every backend (structures build lazily and cache), and
the executor contract (:func:`repro.core.executor.map_query_chunks`)
already guarantees chunking cannot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.core.executor import (
    WorkerPool,
    _engine_runner,
    map_query_chunks,
    merge_join_chunks,
)
from repro.core.problems import JoinResult, JoinSpec, QueryStats
from repro.core.verify import _answers
from repro.engine.measures import get_measure
from repro.engine.plan import Plan, Stage, norm_split_size, plan_point_indices
from repro.engine.registry import get_backend
from repro.lsh.csr import CandidateBlock
from repro.obs import MetricsRegistry, Tracer


@dataclass
class PreparedStage:
    """One plan stage's ready-to-run state.

    ``payload`` is what ``backend.prepare`` returned; a session builds
    it at ``open()`` so queries never pay construction.
    ``P_stage`` is the stage's point subset — kept so partitioned stages
    don't re-slice ``P`` per query, and so the worker-pool arena can pin
    the exact array object the runner will reference.
    """

    stage: Stage
    payload: Any
    final_spec: JoinSpec
    point_idx: Optional[np.ndarray]
    P_stage: Any
    seed: Optional[int]


def _one_stage(the_plan: Plan) -> bool:
    """Is this the one-stage fast path: one stage over all points and queries?

    Such a plan runs without a ``stage`` span and takes engine-level
    options; anything else walks its stages through
    :func:`run_stage_plan`.
    """
    return len(the_plan.stages) == 1 and not the_plan.stages[0].is_partitioned


def _stage_rows(stage: Stage, n: int) -> int:
    """Rows of the stage's point subset, without computing the partition."""
    if stage.points == "all":
        return int(n)
    top = norm_split_size(n, stage.fraction)
    return top if stage.points == "norm_top" else int(n) - top


def prepare_stage(
    the_plan: Plan,
    index: int,
    P,
    spec: JoinSpec,
    *,
    point_idx: Optional[np.ndarray],
    seed,
    block: int,
    n_workers: int,
    options: dict,
) -> PreparedStage:
    """Prepare stage ``index`` of a plan: the one caller of ``backend.prepare``.

    Merges the stage's options with ``options`` (engine-level options,
    which only one-stage plans take), gathers the stage's points
    (``point_idx``, its entry of
    :func:`~repro.engine.plan.plan_point_indices`; ``None`` for all of
    ``P``), resolves the stage seed (``seed + index``), and prepares the
    payload.  It never builds: a session builds its payloads at open, a
    one-shot join in the executor (or the trace's ``build`` span).
    """
    stage = the_plan.stages[index]
    impl = get_backend(stage.backend)
    stage_options = {**stage.options, **options}
    P_stage = P if point_idx is None else P[point_idx]
    stage_seed = seed + index if index and seed is not None else seed
    payload, final_spec = impl.prepare(
        P_stage, spec, seed=stage_seed, block=block,
        n_workers=n_workers, **stage_options,
    )
    return PreparedStage(
        stage=stage, payload=payload, final_spec=final_spec,
        point_idx=point_idx, P_stage=P_stage, seed=stage_seed,
    )


def fold_stats_metrics(registry: MetricsRegistry, result: JoinResult) -> None:
    """Mirror the merged work counters into engine-level metric names."""
    registry.counter("engine.joins").inc()
    registry.counter("engine.inner_products_evaluated").inc(
        result.inner_products_evaluated
    )
    registry.counter("engine.candidates_generated").inc(
        result.candidates_generated
    )
    stats = result.stats
    if stats is not None:
        registry.counter("engine.queries").inc(stats.queries)
        registry.counter("engine.candidates").inc(stats.candidates)
        registry.counter("engine.unique_candidates").inc(stats.unique_candidates)
        registry.counter("engine.probe_candidates").inc(stats.probe_candidates)
        registry.counter("engine.probed_buckets").inc(stats.probed_buckets)


def _fold_stage_matches(
    matches: List[Optional[int]],
    topk: Optional[List[List[int]]],
    answered: np.ndarray,
    stage_result: JoinResult,
    q_idx: np.ndarray,
    point_idx: Optional[np.ndarray],
    P,
    Q,
    spec: JoinSpec,
    stage_spec: JoinSpec,
):
    """Fold one stage's (stage-local) results into the global arrays.

    ``q_idx``/``point_idx`` map stage-local query/data positions back to
    global indices.  A query counts as *answered* when it gains a match
    (for top-k: a non-empty list); answered queries are never
    overwritten, so the first stage to answer wins deterministically.
    A stage that ran under a weaker final spec (the sketch substitutes
    its own ``c``) gets its matches re-scored as one block by the
    measure's scorer and kept by :func:`repro.core.verify._answers`
    only if they clear the caller's ``cs`` — the re-scored pairs are
    returned so the engine can bill them.  Returns
    ``(newly_answered, extra_evaluated)``.
    """
    newly = 0
    extra_eval = 0
    if spec.is_topk:
        for qpos, lst in enumerate(stage_result.topk or []):
            gq = int(q_idx[qpos])
            if answered[gq] or not lst:
                continue
            if point_idx is not None:
                lst = [int(point_idx[li]) for li in lst]
            else:
                lst = [int(li) for li in lst]
            topk[gq] = lst
            matches[gq] = lst[0]
            answered[gq] = True
            newly += 1
        return newly, extra_eval
    local = np.array([-1 if r is None else r for r in stage_result.matches],
                     dtype=np.int64)
    hit = local >= 0
    gq = q_idx[hit]
    gi = local[hit] if point_idx is None else point_idx[local[hit]]
    fresh = ~answered[gq]
    gq, gi = gq[fresh], gi[fresh]
    answers = gi.tolist()
    if stage_spec.cs < spec.cs:
        # One pair per query: the scorer and the reducer keep a match
        # only if it clears the caller's cs.
        block = CandidateBlock(np.arange(gq.size + 1, dtype=np.int64), gi)
        scored = get_measure(spec.measure).verify_block(
            P, Q[gq], block, spec.signed
        )
        extra_eval = scored.n_evaluated
        answers = _answers(block.qids(), gi, scored.scores, gq.size,
                           spec.cs, None)
    for gq_i, gi_i in zip(gq.tolist(), answers):
        if gi_i is not None:
            matches[gq_i] = gi_i
            answered[gq_i] = True
            newly += 1
    return newly, extra_eval


def run_single_stage(
    the_plan: Plan,
    index: int,
    P,
    Q,
    spec: JoinSpec,
    *,
    options: dict,
    point_idx: Optional[np.ndarray],
    seed,
    n_workers: int,
    block: int,
    trace: bool,
    tracer: Tracer,
    pool: str,
    executor: Optional[WorkerPool],
    blas_threads: Optional[int],
    prep: Optional[PreparedStage] = None,
):
    """Run stage ``index`` of a plan on the query rows ``Q``: THE stage body.

    ``prepare`` (reusing a session's built ``prep`` — the span is then
    marked ``reused`` — or calling :func:`prepare_stage` over the points
    ``point_idx``), then under
    tracing the ``build`` span, then ``run`` (the executor over ``Q``)
    and ``merge`` (chunk results in query order, under the stage's
    final spec).  Every caller states the stage's points: its entry of
    :func:`~repro.engine.plan.plan_point_indices`, ``None`` for all of
    ``P``.  One-stage
    plans run this at the root of the trace, the pre-Plan-IR span shape;
    :func:`run_stage_plan` runs it inside each ``stage`` span.

    Returns ``(result, chunks, point_idx)``: the merged stage result,
    the raw chunk results, and the global indices of the stage's points
    (``None`` for all of ``P``).  The prepared stage itself is not
    returned, so a one-shot stage's structure is freed before the next
    stage builds its own.
    """
    stage = the_plan.stages[index]
    with tracer.span("prepare", backend=stage.backend) as prep_span:
        if prep is not None:
            if prep_span is not None:
                prep_span.attrs["reused"] = True
        else:
            prep = prepare_stage(
                the_plan, index, P, spec, point_idx=point_idx, seed=seed,
                block=block, n_workers=n_workers, options=options,
            )
        payload = prep.payload
        if trace and hasattr(payload, "build"):
            # The zero-copy executor builds in the parent for every
            # worker count, so the trace can always price construction
            # here (engine builds are idempotent; workers receive the
            # built structure, not a recipe).  For a session's prebuilt
            # payload this is a cached no-op and the span shows ~0s —
            # exactly the amortization the session exists to buy.
            with tracer.span("build"):
                payload = payload.build(prep.P_stage)
    # The stage label rides on multi-stage chunk spans only, so detached
    # chunk trees stay attributable; one-stage joins omit it.
    label = "" if _one_stage(the_plan) else (stage.label or stage.backend)
    with tracer.span("run") as run_span:
        chunks = map_query_chunks(
            payload, prep.P_stage, Q, _engine_runner,
            (stage.backend, trace, label),
            n_workers=n_workers, block=block,
            pool=pool, executor=executor, blas_threads=blas_threads,
        )
    if run_span is not None:
        run_span.children.extend(c.trace for c in chunks if c.trace)
    with tracer.span("merge"):
        result = merge_join_chunks(
            [(c.matches, c.evaluated, c.generated, c.stats) for c in chunks],
            prep.final_spec,
            backend=stage.backend,
        )
        if prep.final_spec.is_topk:
            result.topk = [lst for c in chunks for lst in (c.topk or [])]
    return result, chunks, prep.point_idx


def run_stage_plan(
    the_plan: Plan,
    P,
    Q,
    spec: JoinSpec,
    *,
    seed,
    n_workers: int,
    block: int,
    trace: bool,
    tracer: Tracer,
    pool: str,
    executor: Optional[WorkerPool],
    blas_threads: Optional[int],
    prepared: Optional[Sequence[PreparedStage]] = None,
):
    """Walk a multi-stage plan's stages under one global result.

    Each stage picks its query subset, runs :func:`run_single_stage`
    inside a ``stage`` span, and folds the merged stage result into the
    global answer; the unanswered mask is recomputed from the fully
    merged stage result, so worker count cannot change what the next
    stage sees.  A stage whose queries are all answered already is a
    no-op: it skips prepare and build but still leaves its span and
    stage record.  ``prepared`` (from a session) lets stages reuse their
    built payloads; without it the walk splits ``P`` once
    (:func:`~repro.engine.plan.plan_point_indices`) and hands each stage
    its part.  Returns ``(result, chunks, stage_records)``.
    """
    m = Q.shape[0]
    matches: List[Optional[int]] = [None] * m
    topk: Optional[List[List[int]]] = (
        [[] for _ in range(m)] if spec.is_topk else None
    )
    answered = np.zeros(m, dtype=bool)
    evaluated = 0
    generated = 0
    merged_stats = QueryStats()
    all_chunks = []
    stage_records: List[dict] = []
    parts = plan_point_indices(the_plan, P) if prepared is None else None
    for i, stage in enumerate(the_plan.stages):
        stage_wall = time.perf_counter()
        if stage.queries == "all":
            q_idx = np.arange(m, dtype=np.int64)
        else:
            q_idx = np.flatnonzero(~answered)
        record = dict(
            index=i, backend=stage.backend,
            n=_stage_rows(stage, P.shape[0]), m=int(q_idx.size),
            wall_s=0.0, evaluated=0, generated=0, answered=0,
        )
        with tracer.span(
            "stage",
            index=i,
            backend=stage.backend,
            label=stage.label or stage.backend,
            queries=stage.queries,
            points=stage.points,
            n=record["n"],
            m=record["m"],
        ) as stage_span:
            # With every query answered already the stage is a no-op (no
            # prepare, no build), but its span and record still show, so
            # regret attribution sees the plan shape that actually ran.
            if q_idx.size:
                stage_result, chunks, point_idx = run_single_stage(
                    the_plan, i, P, Q[q_idx], spec, options={},
                    seed=seed, n_workers=n_workers, block=block,
                    trace=trace, tracer=tracer, pool=pool,
                    executor=executor, blas_threads=blas_threads,
                    prep=prepared[i] if prepared is not None else None,
                    point_idx=parts[i] if parts is not None else None,
                )
                newly, extra_eval = _fold_stage_matches(
                    matches, topk, answered, stage_result,
                    q_idx, point_idx, P, Q, spec, stage_result.spec,
                )
                all_chunks.extend(chunks)
                stage_eval = stage_result.inner_products_evaluated + extra_eval
                evaluated += stage_eval
                generated += stage_result.candidates_generated
                merged_stats = merged_stats.merge(stage_result.stats)
                record.update(
                    evaluated=int(stage_eval),
                    generated=int(stage_result.candidates_generated),
                    answered=int(newly),
                )
                if stage_span is not None:
                    stage_span.attrs.update(answered=int(newly))
        record["wall_s"] = time.perf_counter() - stage_wall
        stage_records.append(record)
    result = JoinResult(
        matches=matches,
        spec=spec,
        inner_products_evaluated=int(evaluated),
        candidates_generated=int(generated),
        topk=topk,
        backend=the_plan.backend,
        stats=merged_stats,
    )
    return result, all_chunks, stage_records
