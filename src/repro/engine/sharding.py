"""Data-sharded joins: split ``P``, join per shard, merge per-query bests.

The executor (:mod:`repro.core.executor`) parallelizes over *queries*;
this module parallelizes over *data* — the first step toward the
ROADMAP's multi-machine sharding, where each shard's join would run on a
different box.  ``P`` is split into ``n_shards`` contiguous row shards,
each shard answers the full query set through its own
:class:`~repro.engine.session.JoinSession` (so any backend, any worker
count, any pool kind applies per shard), and the per-shard answers are
merged per query by :class:`ShardedSession`.  :func:`open_sharded`
prepares the shard sessions eagerly; :func:`sharded_join` is the
one-shot form over lazy ones, as :func:`repro.engine.join` is over one
lazy session:

* **threshold joins** — each shard reports at most one above-threshold
  partner per query; the merge re-scores the shard winners and keeps
  the best (ties to the lowest global index).  For exact backends this
  reproduces the unsharded result: the unsharded scan keeps the
  lowest-index maximizer, and every shard winner is its shard's
  maximizer, so the global best survives in its own shard.  Each shard
  winner costs one extra scored pair (billed in
  ``inner_products_evaluated``) because :class:`JoinResult` carries
  indices, not scores.
* **top-k joins** — per-shard ranked lists merge by ``(-score, index)``
  and truncate to ``k``.
* **one scorer, one reducer** — both merges score the shards' answers
  as one :class:`~repro.lsh.csr.CandidateBlock` with the measure's block
  scorer (``MeasureDescriptor.verify_block``) and reduce it with
  :func:`repro.core.verify._answers` at ``cs = -inf``, the reducer
  every backend answers through, so the tie rule lives in one place.
* **stats** — work counters sum and :class:`QueryStats` merge through
  the same monoid the executor uses, so sharded totals remain exact.
  The merged result keeps the largest shard ``error_bound`` and the
  call's wall time; a traced call returns one ``sharded.query`` span
  over each shard's tree and the merge, and the shards' merged metrics.

Determinism: exact backends (``brute_force``, ``norm_pruned``) give
bit-identical matches to the unsharded join for any ``n_shards`` (up to
measure-zero score ties, resolved to the lowest index).  Probabilistic
backends are deterministic *given* ``(seed, n_shards)`` — shard ``i``
derives its seed as ``seed + i`` — but changing the shard count changes
which structure each shard builds, exactly like changing ``seed``.

Self-joins are excluded: identity-pair masking is an intra-shard notion
and cannot be reconstructed across shards without global indices inside
the kernels.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from repro.core.problems import JoinResult, JoinSpec, QueryStats
from repro.core.verify import _answers
from repro.engine.measures import get_measure
from repro.engine.session import JoinSession, open_session
from repro.errors import ParameterError
from repro.lsh.csr import CandidateBlock
from repro.obs import MetricsRegistry, Tracer
from repro.obs.sink import EventSink


def shard_bounds(n: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` row ranges of ``n_shards`` near-equal shards.

    The first ``n % n_shards`` shards get one extra row; shard count is
    capped at ``n`` so no shard is empty.
    """
    if n < 1:
        raise ParameterError(f"cannot shard an empty data set (n={n})")
    if n_shards < 1:
        raise ParameterError(f"n_shards must be >= 1, got {n_shards}")
    shards = min(n_shards, n)
    base, extra = divmod(n, shards)
    bounds = []
    start = 0
    for i in range(shards):
        end = start + base + (1 if i < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def _merge(
    shard_results: List[JoinResult],
    offsets: List[int],
    P,
    Q,
    spec: JoinSpec,
) -> Tuple[List[Optional[int]], Optional[List[List[int]]], int]:
    """Merge per-shard answers; returns ``(matches, topk, extra_evals)``.

    Every shard's answers to a query (its single best, or its ranked
    list) become one :class:`~repro.lsh.csr.CandidateBlock` of global
    rows, scored by the measure's block scorer and reduced by
    :func:`~repro.core.verify._answers` at ``cs = -inf``: the best row
    wins, ties to the lowest global index, and top-k lists rank by
    ``(-score, index)``.  Every scored pair is billed.
    """
    qids, rows = [], []
    for offset, result in zip(offsets, shard_results):
        if spec.is_topk:
            lists = result.topk or []
        else:
            lists = [() if r is None else (r,) for r in result.matches]
        sizes = np.fromiter(map(len, lists), dtype=np.int64, count=len(lists))
        qids.append(np.repeat(np.arange(len(lists), dtype=np.int64), sizes))
        rows.append(offset + np.fromiter(
            chain.from_iterable(lists), dtype=np.int64, count=int(sizes.sum())
        ))
    qids, rows = np.concatenate(qids), np.concatenate(rows)
    order = np.lexsort((rows, qids))
    qids, rows = qids[order], rows[order]
    block = CandidateBlock.from_pairs(qids, rows, Q.shape[0])
    scored = get_measure(spec.measure).verify_block(P, Q, block, spec.signed)
    answers = _answers(qids, rows, scored.scores, len(block), -np.inf, spec.k)
    if not spec.is_topk:
        return answers, None, scored.n_evaluated
    matches = [lst[0] if lst else None for lst in answers]
    return matches, answers, scored.n_evaluated


def sharded_join(
    P,
    Q,
    spec: JoinSpec,
    n_shards: int,
    **join_options,
) -> JoinResult:
    """Split ``P`` into shards, join each, merge per-query bests.

    A lazy :class:`ShardedSession`, the way :func:`repro.engine.join` is
    a lazy :class:`~repro.engine.session.JoinSession`: one lazy session
    per shard, queried once through the sharded merge, then closed.

    Args:
        P, Q: data and query matrices.
        spec: the problem record; ``join`` and ``topk`` variants only
            (self-joins cannot be sharded — see module docs).
        n_shards: contiguous row shards of ``P`` (capped at ``n``).
        join_options: forwarded verbatim to every shard, as to
            :func:`repro.engine.join` — ``backend=``, ``n_workers=``,
            ``pool=``, ``trace=``, ``seed=`` (shard ``i`` runs with
            ``seed + i``), ...  Every shard gets the same options, so an
            invalid one raises in shard 0's constructor or its first
            prepare, before any chunk runs.

    Returns:
        A merged :class:`~repro.core.problems.JoinResult` whose
        ``backend`` is the shard backend tagged ``@{n_shards}shards``.
    """
    trace = join_options.pop("trace", False)
    with _open_shards(
        P, spec, n_shards, JoinSession._lazy, join_options
    ) as sharded:
        return sharded.query(Q, trace=trace)


class ShardedSession:
    """``n_shards`` prepared :class:`~repro.engine.session.JoinSession`\\ s
    behind one query surface.

    Shard ``i`` runs with seed ``seed + i``.  Every :meth:`query` runs
    the batch through each shard's session and merges the per-shard
    answers (module docs) — so for exact backends a sharded session
    matches the unsharded result, and for any backend an
    :func:`open_sharded` session matches the one-shot
    :func:`sharded_join` (the same class over lazy shard sessions) with
    the same seed and shard count.  ``close()`` closes every shard
    session (and their owned pools).
    """

    def __init__(self, sessions, bounds, P, spec: JoinSpec):
        self._sessions = list(sessions)
        self._bounds = list(bounds)
        self._P = P
        self.spec = spec
        self._closed = False
        self._sink = None
        self._own_sink = False
        #: The sharded surface's own call count and call latency, which
        #: stand in for the shards' in :meth:`metrics_snapshot`.
        self._metrics = MetricsRegistry(enabled=True)

    @property
    def n_shards(self) -> int:
        return len(self._sessions)

    @property
    def closed(self) -> bool:
        return self._closed

    def query(self, Q, *, trace: bool = False) -> JoinResult:
        """Run the batch through every shard and merge (module docs).

        The result carries the summed work, the merged
        :class:`QueryStats`, the largest shard ``error_bound`` and the
        wall time of the whole call.  A traced call also returns one
        ``sharded.query`` root span holding each shard's tree and the
        ``merge``, and the shards' metrics merged into one registry.
        """
        if self._closed:
            raise ParameterError("session is closed")
        # Q-only validation: P was checked once at open_sharded, and the
        # shard sessions re-check the batch's compatibility anyway.
        measure = get_measure(self.spec.measure)
        Q = measure.validate(Q, "Q")
        measure.check_compatible(self._P, Q)
        tracer = Tracer(enabled=trace)
        t0 = time.perf_counter()
        with tracer.span("sharded.query", n_shards=self.n_shards,
                         m=int(Q.shape[0])) as root:
            parts = [session.query(Q, trace=trace) for session in self._sessions]
            if root is not None:
                for i, part in enumerate(parts):
                    part.trace.attrs["shard"] = i
                    root.children.append(part.trace)
            with tracer.span("merge"):
                matches, topk, extra = _merge(
                    parts, [start for start, _ in self._bounds],
                    self._P, Q, self.spec,
                )
        bounds = [p.error_bound for p in parts if p.error_bound is not None]
        result = JoinResult(
            matches=matches,
            spec=parts[0].spec,
            inner_products_evaluated=sum(
                p.inner_products_evaluated for p in parts) + extra,
            candidates_generated=sum(p.candidates_generated for p in parts),
            topk=topk,
            backend=f"{parts[0].backend or '?'}@{self.n_shards}shards",
            stats=QueryStats.merge_all(p.stats for p in parts),
            wall_s=time.perf_counter() - t0,
            error_bound=max(bounds) if bounds else None,
        )
        self._metrics.counter("session.queries").inc()
        self._metrics.histogram("session.query_latency_us").observe(
            result.wall_s * 1e6
        )
        if trace:
            result.trace = tracer.take()
            result.metrics = MetricsRegistry(enabled=True)
            for p in parts:
                result.metrics.merge_snapshot(p.metrics.snapshot())
        return result

    def metrics_snapshot(self) -> dict:
        """All shards' always-on registries merged into one snapshot.

        Counters and latency-histogram buckets sum across shards (the
        fixed pow2 layouts make every shard mergeable), except the
        per-call ones: ``session.queries`` counts sharded calls and
        ``session.query_latency_us`` holds each call's whole wall time,
        so its quantiles describe the sharded surface.
        """
        merged = MetricsRegistry(enabled=True)
        for session in self._sessions:
            snap = session.metrics.snapshot()
            snap["counters"].pop("session.queries", None)
            snap["histograms"].pop("session.query_latency_us", None)
            merged.merge_snapshot(snap)
        merged.merge_snapshot(self._metrics.snapshot())
        return merged.snapshot()

    def attach_sink(self, sink, *, max_bytes: int = 64 * 1024 * 1024,
                    max_files: int = 4, resource_every: int = 32) -> EventSink:
        """One shared telemetry sink for every shard session.

        ``sink`` is a path or a caller-managed
        :class:`~repro.obs.sink.EventSink`; each shard emits into it
        (the sink serializes writers), so events from different shards
        interleave in one file in write order.
        """
        if self._closed:
            raise ParameterError("session is closed")
        if self._sink is not None:
            raise ParameterError(
                "a sink is already attached; detach_sink() first"
            )
        if isinstance(sink, EventSink):
            shared, own = sink, False
        else:
            shared, own = EventSink(
                sink, max_bytes=max_bytes, max_files=max_files
            ), True
        for session in self._sessions:
            session.attach_sink(shared, resource_every=resource_every)
        self._sink, self._own_sink = shared, own
        return shared

    def detach_sink(self) -> None:
        """Detach every shard from the shared sink; close it if owned."""
        sink, self._sink = self._sink, None
        for session in self._sessions:
            if session._sink is not None:
                session.detach_sink()
        if sink is not None and self._own_sink:
            sink.close()
        self._own_sink = False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for session in self._sessions:
            session.close()
        if self._sink is not None and self._own_sink:
            self._sink.close()
        self._sink = None
        self._own_sink = False

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def open_sharded(
    P,
    spec: JoinSpec,
    n_shards: int,
    **open_options,
) -> ShardedSession:
    """Open one prepared session per contiguous shard of ``P``.

    ``open_options`` forward to :func:`repro.engine.session.open_session`
    for every shard (``backend=``, ``n_workers=``, ``pool=``,
    ``expected_queries=``, ...); shard ``i`` opens with ``seed + i``.
    Self-join specs are rejected: see the module docs.
    """
    return _open_shards(P, spec, n_shards, open_session, open_options)


def _open_shards(
    P, spec: JoinSpec, n_shards: int, open_shard, options
) -> ShardedSession:
    """One ``open_shard(P_shard, spec, seed=...)`` session per shard of ``P``."""
    P = get_measure(spec.measure).validate(P, "P")
    if spec.self_join or spec.variant not in ("join", "topk"):
        raise ParameterError(
            f"sharded joins answer the 'join' and 'topk' variants, "
            f"not {spec.variant!r}"
        )
    bounds = shard_bounds(P.shape[0], n_shards)
    seed = options.pop("seed", None)
    sessions = []
    try:
        for i, (start, end) in enumerate(bounds):
            shard_seed = None if seed is None else seed + i
            sessions.append(
                open_shard(P[start:end], spec, seed=shard_seed, **options)
            )
    except BaseException:
        for session in sessions:
            session.close()
        raise
    return ShardedSession(sessions, bounds, P, spec)
