"""Zero-copy parallel join execution: shard query blocks across workers.

Python's per-query overhead disappears into GEMMs with the blocked
verification kernel, but one process still drives one core.  This module
shards a filter-then-verify join over contiguous *query block* ranges
and fans them out to a persistent worker pool.  One dispatch helper
(:func:`map_query_chunks`) maps an in-memory ``Q`` in one of three
execution modes, with identical results:

* **Serial** (``n_workers=1``): build the structure in-process, run one
  chunk.  Never touches a pool; an explicit ``blas_threads=`` pin is
  still honored for the duration of the run.
* **Process pool** (``pool="process"``): the structure is built ONCE in
  the parent, then its large arrays — together with ``P`` and ``Q`` —
  are placed in a :class:`~repro.core.arena.SharedArena` (POSIX shared
  memory) and only tiny (segment, dtype, shape, offset) descriptors
  cross the process boundary.  Workers reconstruct read-only views; no
  array is ever pickled per chunk.  This is what fixed the executor
  losing to serial (0.23x at 4 workers in BENCH_PR5): the old path
  re-pickled ``P``, the index, and every ``Q`` chunk through the pipe.
* **Thread pool** (``pool="thread"``): the chunk kernels spend their
  time inside BLAS GEMMs, which release the GIL — so plain threads
  parallelize them with literally zero serialization.  Each task gets a
  :func:`~repro.core.arena.clone_shell` of the structure (own mutable
  stats, shared arrays) so concurrent chunks don't race.

Pools are **persistent**: :func:`get_pool` keeps one pool per
``(kind, n_workers, context)`` alive across calls (workers warm, arena
dedup making repeated joins over the same ``P`` ship it once), with an
explicit ``close()``/context-manager lifecycle, ``close_pools()`` for
everything, and an ``atexit`` sweep so ``/dev/shm`` never leaks — also
not on worker crashes, where the broken pool is torn down and its
segments unlinked before the error propagates.

Streamed query sets arrive one window at a time: :class:`QuerySource`
re-blocks a chunk stream into ``block``-aligned windows, and the session
runs each window through :func:`map_query_chunks` as an ordinary batch.

BLAS oversubscription is handled in both parallel modes: process-pool
workers pin their BLAS pool to ``cpu_count // n_workers`` threads (via
:mod:`repro.utils.blasctl`, plus inherited ``OMP_NUM_THREADS``-family
env vars so spawn-context children never start wide), and the thread
path pins the process-global BLAS pool for the duration of the call.
Override with the ``blas_threads`` knob.

Determinism contract (non-negotiable): chunk boundaries are aligned to
multiples of the verification ``block`` size, so the sequence of
(candidate-generation, GEMM) calls inside any chunk is exactly the
sequence the serial path would execute for those queries.  The structure
is built once in the parent and shared read-only, chunk results are
reassembled in query order regardless of completion order, and stats
merge through :meth:`QueryStats.merge` — so ``n_workers=k`` is
bit-identical to serial for every backend, pool kind, and Plan stage.

``n_workers="auto"`` resolves to :func:`os.cpu_count` capped by the
``REPRO_MAX_WORKERS`` environment variable.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from concurrent.futures import (
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.arena import SharedArena, clone_shell, freeze, thaw
from repro.core.problems import JoinResult, JoinSpec, QueryStats
from repro.core.verify import DEFAULT_BLOCK
from repro.errors import ParameterError
from repro.utils import blasctl
from repro.utils.validation import check_matrix

#: Pool kinds map_query_chunks understands.
POOL_KINDS = ("process", "thread")

#: Environment variable capping ``n_workers="auto"``.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


# ---------------------------------------------------------------------------
# Worker-count resolution


def resolve_workers(n_workers: Union[int, str]) -> int:
    """Resolve an ``n_workers`` request to a concrete count.

    ``"auto"`` resolves to :func:`os.cpu_count`, capped by the
    ``REPRO_MAX_WORKERS`` environment variable when set.  Integers pass
    through validated.
    """
    if n_workers == "auto":
        workers = os.cpu_count() or 1
        cap = os.environ.get(MAX_WORKERS_ENV)
        if cap is not None:
            try:
                cap_value = int(cap)
            except ValueError:
                raise ParameterError(
                    f"{MAX_WORKERS_ENV} must be an integer, got {cap!r}"
                )
            if cap_value < 1:
                raise ParameterError(
                    f"{MAX_WORKERS_ENV} must be >= 1, got {cap_value}"
                )
            workers = min(workers, cap_value)
        return max(1, workers)
    if not isinstance(n_workers, (int, np.integer)):
        raise ParameterError(
            f"n_workers must be an integer or 'auto', got {n_workers!r}"
        )
    if n_workers < 1:
        raise ParameterError(f"n_workers must be >= 1, got {n_workers}")
    return int(n_workers)


# ---------------------------------------------------------------------------
# Query sources: the input adapter of session.query_stream


class QuerySource:
    """A query set by any name: in-memory array, chunk iterator, or memmap.

    The input adapter of
    :meth:`~repro.engine.session.JoinSession.query_stream`: whatever
    the producer hands over, :meth:`blocks` yields fixed-size row
    windows, and the session answers each window as one ordinary query
    batch.

    * ``kind="array"`` — a materialized ``(m, d)`` ndarray.  This is also
      how memmapped files enter (:meth:`from_memmap` maps the file and
      wraps the read-only view), so the OS pages rows in as windows
      touch them.
    * ``kind="stream"`` — an iterator of ``(k_i, d)`` row chunks whose
      total length need not be known up front.  :meth:`blocks`
      re-blocks them to the requested window size; the session asks for
      multiples of the verification ``block``, the alignment parallel
      chunking already obeys, so a streamed join is bit-identical to
      the in-memory join over the concatenated rows, for every worker
      count and pool kind.

    ``chunk_rows`` is a hint for the window size (rounded to a ``block``
    multiple by the session); ``d`` pins the expected width so a
    malformed producer fails with a named error, not a GEMM shape
    mismatch.
    """

    def __init__(
        self,
        kind: str,
        array: Optional[np.ndarray] = None,
        chunks: Optional[Iterable] = None,
        d: Optional[int] = None,
        chunk_rows: Optional[int] = None,
    ):
        if kind not in ("array", "stream"):
            raise ParameterError(
                f"QuerySource kind must be 'array' or 'stream', got {kind!r}"
            )
        if kind == "array" and array is None:
            raise ParameterError("array-kind QuerySource needs an array")
        if kind == "stream" and chunks is None:
            raise ParameterError("stream-kind QuerySource needs a chunk iterable")
        if chunk_rows is not None and chunk_rows < 1:
            raise ParameterError(f"chunk_rows must be >= 1, got {chunk_rows}")
        self.kind = kind
        self.array = array
        self._chunks = chunks
        self.d = int(d) if d is not None else (
            int(array.shape[1]) if array is not None else None
        )
        self.chunk_rows = chunk_rows
        self._consumed = False

    # -- constructors ----------------------------------------------------

    @classmethod
    def wrap(cls, Q) -> "QuerySource":
        """Coerce ``Q`` into a source: passthrough, ndarray, or iterable."""
        if isinstance(Q, QuerySource):
            return Q
        if isinstance(Q, np.ndarray):
            return cls.from_array(Q)
        if hasattr(Q, "__iter__") or hasattr(Q, "__next__"):
            return cls.from_chunks(Q)
        raise ParameterError(
            f"cannot make a QuerySource from {type(Q).__name__}: expected an "
            "ndarray, a chunk iterable, or a QuerySource"
        )

    @classmethod
    def from_array(cls, Q) -> "QuerySource":
        """An in-memory (or already-mapped) query matrix."""
        return cls("array", array=check_matrix(Q, "Q"))

    @classmethod
    def from_chunks(
        cls,
        chunks: Iterable,
        d: Optional[int] = None,
        chunk_rows: Optional[int] = None,
    ) -> "QuerySource":
        """A stream of ``(k_i, d)`` row chunks (iterator, generator, list)."""
        return cls("stream", chunks=chunks, d=d, chunk_rows=chunk_rows)

    @classmethod
    def from_memmap(
        cls,
        path,
        d: int,
        dtype=np.float64,
        rows: Optional[int] = None,
    ) -> "QuerySource":
        """Map a raw C-order array file of ``d``-wide float rows.

        ``rows`` defaults to the whole file; a file size that is not a
        multiple of the row stride raises (truncated or mis-described
        file).  The result is an array-kind source whose rows are paged
        in by the OS as chunks touch them — out-of-core ``Q`` with no
        special casing downstream.
        """
        dtype = np.dtype(dtype)
        if d < 1:
            raise ParameterError(f"d must be >= 1, got {d}")
        size = os.path.getsize(path)
        stride = dtype.itemsize * d
        if rows is None:
            if size == 0 or size % stride != 0:
                raise ParameterError(
                    f"{path} holds {size} bytes, not a multiple of the "
                    f"{stride}-byte row stride (d={d}, dtype={dtype})"
                )
            rows = size // stride
        elif size < rows * stride:
            raise ParameterError(
                f"{path} holds {size} bytes, too small for {rows} rows of "
                f"{stride} bytes"
            )
        mapped = np.memmap(path, dtype=dtype, mode="r", shape=(int(rows), d))
        source = cls("array", array=mapped.view(np.ndarray))
        return source

    # -- consumption -----------------------------------------------------

    def blocks(self, rows: int) -> Iterator[np.ndarray]:
        """Yield validated float64 chunks of exactly ``rows`` rows (last may
        be short), re-blocking whatever sizes the producer emits.

        Stream sources are single-use: the underlying iterator cannot be
        rewound, so a second pass raises instead of silently yielding
        nothing.
        """
        if rows < 1:
            raise ParameterError(f"rows must be >= 1, got {rows}")
        if self.kind == "array":
            Q = self.array
            for start in range(0, Q.shape[0], rows):
                yield Q[start:start + rows]
            return
        if self._consumed:
            raise ParameterError(
                "this stream QuerySource was already consumed; streams are "
                "single-use"
            )
        self._consumed = True
        pending: List[np.ndarray] = []
        held = 0
        for raw in self._chunks:
            chunk = check_matrix(raw, "Q chunk")
            if self.d is None:
                self.d = int(chunk.shape[1])
            elif chunk.shape[1] != self.d:
                raise ParameterError(
                    f"Q chunk has {chunk.shape[1]} columns, expected {self.d}"
                )
            pending.append(chunk)
            held += chunk.shape[0]
            while held >= rows:
                buffer = np.concatenate(pending, axis=0) if len(pending) > 1 else pending[0]
                yield np.ascontiguousarray(buffer[:rows])
                rest = buffer[rows:]
                pending = [rest] if rest.shape[0] else []
                held = rest.shape[0]
        if held:
            buffer = np.concatenate(pending, axis=0) if len(pending) > 1 else pending[0]
            yield np.ascontiguousarray(buffer)


# ---------------------------------------------------------------------------
# Worker-side task functions (module-level: pickled by reference)


def _process_worker_init(blas_threads: int) -> None:
    """Pool initializer: pin this worker's BLAS pool to its fair share."""
    if blas_threads >= 1:
        blasctl.set_blas_threads(blas_threads)


def _run_frozen_chunk(blob: bytes, start: int, end: int, runner, args):
    """Process-pool task: thaw the (structure, P, Q) shell, run one chunk.

    Thawing reconstructs shared-memory *views* for every large array —
    the only bytes unpickled per task are the object shells — and gives
    this task its own copies of small mutable state (stats), so tasks
    sharing a worker never race.
    """
    structure, P, Q = thaw(blob)
    return runner(structure, P, Q[start:end], start, args)


def _run_thread_chunk(structure, P, Q, start: int, end: int, runner, args):
    """Thread-pool task: shell-clone the structure, run one chunk.

    The clone shares every large array by reference (nothing copied) but
    owns its small mutable attributes — concurrent chunks mutate
    ``index.stats`` for their snapshot-diff accounting, which must not
    race across threads.
    """
    local = clone_shell(structure)
    return runner(local, P, Q[start:end], start, args)


# ---------------------------------------------------------------------------
# Persistent worker pool


class WorkerPool:
    """A persistent process or thread pool with a shared-memory arena.

    Created once, reused across :func:`map_query_chunks` calls: workers
    stay warm and the arena deduplicates arrays by identity, so a second
    join over the same ``P`` ships zero additional bytes of data.
    Explicit lifecycle — ``close()`` (idempotent) shuts the executor
    down and unlinks every owned segment; also usable as a context
    manager.  Module-level :func:`get_pool` maintains a keyed registry
    of these with an ``atexit`` sweep.

    Args:
        n_workers: worker count or ``"auto"``.
        kind: ``"process"`` or ``"thread"``.
        mp_context: multiprocessing start-method name (``"fork"``,
            ``"spawn"``, ``"forkserver"``) or ``None`` for the platform
            default.  Process pools only.
        blas_threads: BLAS threads per worker; default is the fair share
            ``cpu_count // n_workers`` (min 1).
    """

    def __init__(
        self,
        n_workers: Union[int, str],
        kind: str = "process",
        mp_context: Optional[str] = None,
        blas_threads: Optional[int] = None,
    ):
        if kind not in POOL_KINDS:
            raise ParameterError(
                f"pool kind must be one of {POOL_KINDS}, got {kind!r}"
            )
        self.n_workers = resolve_workers(n_workers)
        self.kind = kind
        self.mp_context = mp_context
        self.blas_threads = blasctl.worker_blas_threads(
            self.n_workers, blas_threads
        )
        self._executor = None
        self._arena: Optional[SharedArena] = None
        self._closed = False

    # -- lazy resources --------------------------------------------------

    @property
    def arena(self) -> SharedArena:
        """The pool's persistent arena (process pools; created lazily)."""
        if self._closed:
            raise ParameterError("pool is closed")
        if self._arena is None:
            self._arena = SharedArena()
        return self._arena

    def _ensure_executor(self):
        if self._closed:
            raise ParameterError("pool is closed")
        if self._executor is not None:
            return self._executor
        if self.kind == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=self.n_workers, thread_name_prefix="repro-join"
            )
            return self._executor
        import multiprocessing

        ctx = (
            multiprocessing.get_context(self.mp_context)
            if self.mp_context
            else None
        )
        # Spawn-context children load their BLAS before any initializer
        # runs, so the thread cap must already sit in the environment
        # they inherit; the ctypes pin in the initializer then covers
        # fork children and any library that ignored the env.
        saved = {
            name: os.environ.get(name) for name in blasctl.BLAS_ENV_VARS
        }
        os.environ.update(blasctl.blas_env(self.blas_threads))
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=ctx,
                initializer=_process_worker_init,
                initargs=(self.blas_threads,),
            )
        finally:
            for name, value in saved.items():
                if value is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = value
        return self._executor

    # -- data placement --------------------------------------------------

    def share(self, arr: np.ndarray):
        """Pre-place an array in the persistent arena (process pools).

        Returns its :class:`~repro.core.arena.ArenaRef`; subsequent
        ``map_query_chunks`` calls through this pool reference the
        placement instead of re-copying.  No-op concept for thread
        pools, where arrays are shared by virtue of one address space.
        """
        if self.kind != "process":
            raise ParameterError("share() applies to process pools only")
        return self.arena.place(arr)

    # -- lifecycle -------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down workers and unlink every owned segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        arena, self._arena = self._arena, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
        if arena is not None:
            arena.close()
        _forget_pool(self)

    def _abandon(self) -> None:
        """Tear down after a broken pool: don't wait on dead workers.

        Both ``BrokenProcessPool`` handlers in :func:`map_query_chunks`
        converge here, so this is also where crash listeners (the
        session's sink, health gauges) hear about worker deaths.
        """
        if self._closed:
            return
        self._closed = True
        executor, self._executor = self._executor, None
        arena, self._arena = self._arena, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
        if arena is not None:
            arena.close()
        _forget_pool(self)
        _notify_crash(
            {"pool_kind": self.kind, "n_workers": self.n_workers}
        )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


#: Crash listeners: callables invoked with a plain-data info dict every
#: time a pool is abandoned after worker death.  Sessions register one
#: to emit ``crash`` sink events and bump their health counters; the
#: count backs the ``worker_crashes`` pool-health field of
#: :func:`repro.obs.resources.snapshot`.
_CRASH_LISTENERS: List[Callable[[dict], None]] = []
_CRASH_COUNT = 0


def add_crash_listener(listener: Callable[[dict], None]) -> None:
    """Register ``listener`` to be called on every pool crash."""
    _CRASH_LISTENERS.append(listener)


def remove_crash_listener(listener: Callable[[dict], None]) -> None:
    """Unregister a crash listener; missing listeners are ignored."""
    try:
        _CRASH_LISTENERS.remove(listener)
    except ValueError:
        pass


def crash_count() -> int:
    """Total worker-pool crashes observed in this process."""
    return _CRASH_COUNT


def _notify_crash(info: dict) -> None:
    global _CRASH_COUNT
    _CRASH_COUNT += 1
    info = dict(info, crash_count=_CRASH_COUNT)
    for listener in list(_CRASH_LISTENERS):
        try:
            listener(info)
        except Exception:
            pass  # a failing sink must not mask the original crash


#: Registry of persistent pools, keyed by (kind, n_workers, context).
_POOLS: Dict[tuple, WorkerPool] = {}


def get_pool(
    n_workers: Union[int, str],
    kind: str = "process",
    mp_context: Optional[str] = None,
    blas_threads: Optional[int] = None,
) -> WorkerPool:
    """The persistent pool for this configuration, created on first use.

    Pools live until :func:`close_pools` (or interpreter exit — an
    ``atexit`` hook sweeps the registry so ``/dev/shm`` is left clean).
    """
    workers = resolve_workers(n_workers)
    key = (kind, workers, mp_context, blas_threads)
    pool = _POOLS.get(key)
    if pool is None or pool.closed:
        pool = WorkerPool(
            workers, kind=kind, mp_context=mp_context, blas_threads=blas_threads
        )
        _POOLS[key] = pool
    return pool


def _forget_pool(pool: WorkerPool) -> None:
    for key, value in list(_POOLS.items()):
        if value is pool:
            del _POOLS[key]


def close_pools() -> None:
    """Close every registered persistent pool (and unlink their arenas)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(close_pools)


# ---------------------------------------------------------------------------
# The shard-and-run helper


def _chunk_bounds(n_queries: int, block: int, n_chunks: int) -> List[Tuple[int, int]]:
    """Contiguous [start, end) ranges aligned to ``block`` multiples."""
    n_blocks = math.ceil(n_queries / block)
    blocks_per_chunk = math.ceil(n_blocks / n_chunks)
    step = blocks_per_chunk * block
    return [
        (start, min(n_queries, start + step))
        for start in range(0, n_queries, step)
    ]


def _collect_ordered(futures: List) -> List[Any]:
    """Resolve futures into submission order, completion order free.

    ``wait(FIRST_EXCEPTION)`` drains the set as chunks finish — workers
    may complete in any order — then results are read back by index, so
    the returned list is always in query-chunk order.
    """
    pending = set(futures)
    while pending:
        done, pending = wait(pending, return_when=FIRST_EXCEPTION)
        for future in done:
            if future.exception() is not None:
                for other in pending:
                    other.cancel()
                raise future.exception()
    return [future.result() for future in futures]


def map_query_chunks(
    payload,
    P,
    Q,
    runner: Callable,
    args: tuple,
    n_workers: Union[int, str] = 1,
    block: int = DEFAULT_BLOCK,
    pool: str = "process",
    executor: Optional[WorkerPool] = None,
    blas_threads: Optional[int] = None,
) -> List[Any]:
    """THE shared shard-and-run helper behind every parallel join path.

    Args:
        payload: either a built structure or an engine structure
            with a lazy ``build(P) -> structure``.  Built ONCE in the
            parent; workers receive shared-memory views (process pools)
            or shell clones (thread pools) of the same built structure.
        P, Q: data and query matrices (already validated by the caller).
            ``Q`` is in memory: an ndarray, a memmap view or a set
            collection.  Streams reach the executor one re-blocked
            window at a time, as ordinary ``Q`` batches
            (:meth:`repro.engine.session.JoinSession.query_stream`).
        runner: a **module-level** (hence picklable-by-reference)
            function ``runner(structure, P, Q_chunk, start, args)``
            where ``start`` is the chunk's global query offset; it is
            THE join inner loop for its algorithm — serial and parallel
            paths run this exact function, which is what makes
            ``n_workers=1`` and ``n_workers=k`` results identical.
        args: extra picklable arguments forwarded to ``runner``.
        n_workers: worker count or ``"auto"`` (cpu_count capped by
            ``REPRO_MAX_WORKERS``); ``1`` runs one chunk in-process and
            never touches a pool.
        block: chunk boundaries align to multiples of this (the
            verification block size), so worker-count changes never
            change per-block call sequences.
        pool: ``"process"`` (shared-memory arena + persistent process
            pool) or ``"thread"`` (GIL released inside BLAS; zero
            serialization).
        executor: a caller-managed :class:`WorkerPool` to run on
            (its kind/worker count take precedence); default is the
            persistent registry pool from :func:`get_pool`.
        blas_threads: BLAS threads per worker; default
            ``cpu_count // n_workers`` (min 1).

    Returns:
        The per-chunk runner results, in query (chunk) order.
    """
    # Validate every execution option BEFORE building the structure:
    # an index build can cost minutes, and a typo'd pool kind must fail
    # in milliseconds — on the serial path too, where ``pool`` is
    # otherwise unused.
    workers = resolve_workers(n_workers)
    if block < 1:
        raise ParameterError(f"block must be >= 1, got {block}")
    if executor is None and pool not in POOL_KINDS:
        raise ParameterError(
            f"pool must be one of {POOL_KINDS}, got {pool!r}"
        )
    structure = payload.build(P) if hasattr(payload, "build") else payload
    if workers == 1:
        if blas_threads is None:
            return [runner(structure, P, Q, 0, args)]
        # Serial path honors the pin too: callers asking for a fixed BLAS
        # budget get it regardless of worker count.
        with blasctl.blas_threads(
            blasctl.worker_blas_threads(1, blas_threads)
        ):
            return [runner(structure, P, Q, 0, args)]
    if executor is not None:
        wp = executor
    else:
        wp = get_pool(workers, kind=pool, blas_threads=blas_threads)
    bounds = _chunk_bounds(Q.shape[0], block, wp.n_workers)

    if wp.kind == "thread":
        ex = wp._ensure_executor()
        futures = [
            ex.submit(_run_thread_chunk, structure, P, Q, start, end, runner, args)
            for start, end in bounds
        ]
        # Pin the process-global BLAS pool to the per-worker share for
        # the duration of the call: k threads x (cores/k) BLAS threads
        # instead of k x cores.
        with blasctl.blas_threads(wp.blas_threads):
            return _collect_ordered(futures)

    # Process pool: freeze (structure, P, Q) into shared memory once per
    # call — per-task payloads are (shell bytes, start, end), pennies.
    # The per-call scratch arena is unlinked as soon as the call
    # completes; arrays pre-placed via WorkerPool.share() live in the
    # pool's persistent arena and are referenced, not re-copied.
    ex = wp._ensure_executor()
    lookup = (wp._arena,) if wp._arena is not None else ()
    scratch = SharedArena()
    try:
        blob = freeze((structure, P, Q), scratch, lookup=lookup)
        futures = [
            ex.submit(_run_frozen_chunk, blob, start, end, runner, args)
            for start, end in bounds
        ]
        return _collect_ordered(futures)
    except BrokenProcessPool:
        # A worker died (OOM kill, segfault, hard exit).  Tear the pool
        # down without waiting on dead processes and unlink every
        # segment — /dev/shm must not leak even on the crash path.
        wp._abandon()
        raise
    finally:
        scratch.close()


def _engine_runner(structure, P, Q_chunk, start, args):
    """Chunk runner for the unified engine: dispatch to a named backend.

    ``args`` is ``(backend_name, observe, stage_label)``.  With
    ``observe`` set, the chunk runs under a fresh tracer + metrics
    registry — in *every*
    execution mode, so a serial join and each parallel worker produce
    the same detached per-chunk span tree — and ships them back on the
    :class:`~repro.engine.protocol.ChunkResult` (spans as plain
    dataclasses, metrics as a snapshot dict; both pickle).  The parent
    stitches chunk trees under its ``run`` span and merges metric
    snapshots in chunk order, which keeps parallel totals bit-identical
    to serial ones.  Thread-pool workers can do this concurrently
    because the current tracer/registry are context variables, not
    process globals.  A non-empty ``stage_label`` (multi-stage plans) is
    stamped on the ``run_chunk`` span so detached chunk trees stay
    attributable to their stage; one-stage joins pass ``""`` and keep
    the pre-Plan-IR span shape.
    """
    from repro.engine.registry import get_backend

    backend_name, observe, stage_label = args
    backend = get_backend(backend_name)
    if not observe:
        t0 = time.perf_counter_ns()
        result = backend.run_chunk(structure, P, Q_chunk, start)
        result.wall_ns = time.perf_counter_ns() - t0
        return result

    from repro.obs import MetricsRegistry, Tracer
    from repro.obs import observe as activate_obs

    attrs = dict(start=int(start), n_queries=int(Q_chunk.shape[0]))
    if stage_label:
        attrs["stage"] = stage_label
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry(enabled=True)
    with activate_obs(tracer, registry):
        with tracer.span("run_chunk", **attrs):
            t0 = time.perf_counter_ns()
            result = backend.run_chunk(structure, P, Q_chunk, start)
            result.wall_ns = time.perf_counter_ns() - t0
    result.trace = tracer.take()
    result.metrics = registry.snapshot()
    return result


def merge_join_chunks(
    chunk_results: Sequence,
    spec: JoinSpec,
    backend: Optional[str] = None,
) -> JoinResult:
    """Combine per-chunk ``(matches, evaluated, generated, stats)`` tuples.

    Matches concatenate in query order; work counters sum; stats merge
    through the single :meth:`QueryStats.merge` implementation, so the
    totals are independent of how the query set was chunked.
    """
    matches: List[Optional[int]] = []
    evaluated = 0
    generated = 0
    stats = QueryStats()
    for chunk_matches, chunk_evaluated, chunk_generated, chunk_stats in chunk_results:
        matches.extend(chunk_matches)
        evaluated += chunk_evaluated
        generated += chunk_generated
        stats = stats.merge(chunk_stats)
    return JoinResult(
        matches=matches,
        spec=spec,
        inner_products_evaluated=evaluated,
        candidates_generated=generated,
        backend=backend,
        stats=stats,
    )
