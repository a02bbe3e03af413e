"""Zero-copy executor tests: arena, worker pools, sharding, BLAS control.

The load-bearing guarantees under test:

* the shared-memory arena never leaks ``/dev/shm`` segments — not after
  a clean ``close()``, not after a worker crash;
* chunk results come back in query order no matter the completion order;
* ``n_workers=k`` is bit-identical to serial for every backend, pool
  kind, and multi-stage Plan (matches, counters, stats, metrics);
* ``n_workers="auto"`` and the planner's parallel re-pricing behave
  deterministically under pinned knobs.

The CI parallel leg sets ``REPRO_TEST_WORKERS`` to run the equivalence
matrix at a different worker count; the default is 2.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro

from repro.core import (
    JoinSpec,
    WorkerPool,
    close_pools,
    get_pool,
    map_query_chunks,
    resolve_workers,
)
from repro.core.arena import (
    ARENA_MIN_BYTES,
    SharedArena,
    clone_shell,
    freeze,
    repro_segments,
    thaw,
)
from repro.core.executor import _chunk_bounds
from repro.engine import (
    CostModel,
    join,
    norm_prefix_lsh_plan,
    plan_join,
    shard_bounds,
    sharded_join,
)
from repro.errors import ParameterError
from repro.lsh import HyperplaneLSH, LSHIndex
from repro.utils import blasctl

#: Worker count of the equivalence matrix; the CI parallel leg overrides.
TEST_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"),
    reason="POSIX shared memory mount required",
)


def _hyperplane_index(P, seed):
    """The ``lsh`` backend's auto-built index shape over ``P``."""
    return LSHIndex(
        HyperplaneLSH(P.shape[1]), n_tables=16, hashes_per_table=12, seed=seed
    ).build(P)


def _result_key(result):
    """Everything that must be bit-identical across execution modes."""
    s = result.stats
    return (
        result.matches,
        result.topk,
        result.inner_products_evaluated,
        result.candidates_generated,
        s.queries,
        s.candidates,
        s.unique_candidates,
        s.probed_buckets,
        s.probe_candidates,
    )


# -- module-level chunk runners (pickled by reference into workers) -----


def _sum_runner(structure, P, Q_chunk, start, args):
    """Deterministic payload echo: (start, chunk row-sum)."""
    return (start, float(Q_chunk.sum()))


def _slow_first_runner(structure, P, Q_chunk, start, args):
    """Make chunk 0 finish LAST: later chunks complete out of order."""
    if start == 0:
        time.sleep(0.25)
    return (start, float(Q_chunk.sum()))


def _crash_runner(structure, P, Q_chunk, start, args):
    os._exit(17)


class TestSharedArena:
    def test_place_resolve_roundtrip(self):
        arr = np.arange(4096, dtype=np.float64).reshape(64, 64)
        with SharedArena() as arena:
            ref = arena.place(arr)
            view = ref.resolve()
            np.testing.assert_array_equal(view, arr)
            assert not view.flags.writeable
            assert view.dtype == arr.dtype and view.shape == arr.shape

    def test_dedup_by_identity(self):
        arr = np.ones((128, 16))
        with SharedArena() as arena:
            ref1 = arena.place(arr)
            ref2 = arena.place(arr)
            assert ref1 is ref2
            # A distinct equal array is a distinct placement.
            ref3 = arena.place(arr.copy())
            assert ref3 != ref1

    def test_many_small_arrays_share_one_slab(self):
        with SharedArena() as arena:
            refs = [arena.place(np.full((100, 8), i)) for i in range(10)]
            assert len(arena.segments()) == 1
            assert len({r.segment for r in refs}) == 1
            for i, ref in enumerate(refs):
                assert float(ref.resolve()[0, 0]) == float(i)

    def test_oversized_array_grows_slab(self):
        big = np.zeros(3 * 1024 * 1024, dtype=np.float64)  # 24 MB > slab
        with SharedArena() as arena:
            ref = arena.place(big)
            assert arena.nbytes >= big.nbytes
            assert ref.resolve().shape == big.shape

    def test_close_unlinks_segments(self):
        arena = SharedArena()
        arena.place(np.zeros((256, 64)))
        names = arena.segments()
        assert names and all(n in repro_segments() for n in names)
        arena.close()
        live = repro_segments()
        assert all(n not in live for n in names)
        arena.close()  # idempotent
        with pytest.raises(ParameterError, match="closed"):
            arena.place(np.zeros(1024))

    def test_non_contiguous_and_bad_inputs(self):
        with SharedArena() as arena:
            strided = np.arange(8192, dtype=np.float64).reshape(64, 128)[:, ::2]
            np.testing.assert_array_equal(arena.place(strided).resolve(), strided)
            with pytest.raises(ParameterError, match="ndarray"):
                arena.place([1, 2, 3])
            with pytest.raises(ParameterError, match="object array"):
                arena.place(np.array([object()]))


class TestFreezeThaw:
    def test_shell_bytes_stay_small(self):
        """The frozen payload must not scale with the array sizes."""
        big = np.random.default_rng(0).normal(size=(512, 64))
        with SharedArena() as arena:
            blob = freeze({"P": big, "tag": "x"}, arena)
            assert len(blob) < ARENA_MIN_BYTES
            out = thaw(blob)
            np.testing.assert_array_equal(out["P"], big)
            assert out["tag"] == "x"

    def test_small_arrays_pickle_inline(self):
        small = np.arange(8, dtype=np.float64)  # 64 bytes < threshold
        with SharedArena() as arena:
            blob = freeze(small, arena)
            assert arena.segments() == []  # nothing placed
            np.testing.assert_array_equal(thaw(blob), small)

    def test_lookup_arena_reuses_placement(self):
        """Arrays pre-placed in a persistent arena are referenced, not
        re-copied into the per-call scratch (the ``share()`` path)."""
        arr = np.zeros((256, 64))
        with SharedArena() as persistent, SharedArena() as scratch:
            ref = persistent.place(arr)
            blob = freeze(arr, scratch, lookup=(persistent,))
            assert scratch.segments() == []  # no scratch copy
            out = thaw(blob)
            np.testing.assert_array_equal(out, arr)
            assert ref.segment in repro_segments()

    def test_frozen_index_runs_identically(self):
        """A thawed LSHIndex answers exactly like the original."""
        rng = np.random.default_rng(3)
        P = rng.normal(size=(400, 16))
        Q = rng.normal(size=(20, 16))
        index = _hyperplane_index(P, seed=7)
        with SharedArena() as arena:
            other = thaw(freeze(index, arena))
            for a, b in zip(
                index.candidates_batch(Q), other.candidates_batch(Q)
            ):
                np.testing.assert_array_equal(a, b)


class TestCloneShell:
    def test_arrays_shared_small_state_copied(self):
        rng = np.random.default_rng(4)
        P = rng.normal(size=(300, 16))
        index = _hyperplane_index(P, seed=1)
        clone = clone_shell(index)
        assert clone is not index
        assert clone.stats is not index.stats  # own mutable stats
        clone.candidates_batch(rng.normal(size=(5, 16)))
        assert clone.stats.queries == 5
        assert index.stats.queries == 0  # original untouched

    def test_large_arrays_by_reference(self):
        payload = {"big": np.zeros((256, 64)), "small": np.arange(4)}
        clone = clone_shell(payload)
        assert clone["big"] is payload["big"]  # shared, zero copy
        assert clone["small"] is not payload["small"]  # copied inline


class TestResolveWorkers:
    def test_integers_pass_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_auto_uses_cpu_count(self):
        assert resolve_workers("auto") == (os.cpu_count() or 1)

    def test_auto_capped_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "1")
        assert resolve_workers("auto") == 1
        monkeypatch.setenv("REPRO_MAX_WORKERS", "junk")
        with pytest.raises(ParameterError, match="REPRO_MAX_WORKERS"):
            resolve_workers("auto")
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        with pytest.raises(ParameterError, match=">= 1"):
            resolve_workers("auto")

    def test_invalid_requests(self):
        with pytest.raises(ParameterError, match=">= 1"):
            resolve_workers(0)
        with pytest.raises(ParameterError, match="integer or 'auto'"):
            resolve_workers("many")


class TestWorkerPoolLifecycle:
    def test_close_unlinks_arena(self):
        with WorkerPool(2, kind="process") as pool:
            ref = pool.share(np.zeros((256, 64)))
            assert ref.segment in repro_segments()
        assert ref.segment not in repro_segments()
        assert pool.closed
        with pytest.raises(ParameterError, match="closed"):
            pool.arena

    def test_share_is_process_only(self):
        with WorkerPool(2, kind="thread") as pool:
            with pytest.raises(ParameterError, match="process pools"):
                pool.share(np.zeros((256, 64)))

    def test_registry_reuses_and_recreates(self):
        pool = get_pool(2, kind="thread")
        assert get_pool(2, kind="thread") is pool
        pool.close()
        fresh = get_pool(2, kind="thread")
        assert fresh is not pool and not fresh.closed
        close_pools()
        assert fresh.closed

    def test_bad_kind_rejected(self):
        with pytest.raises(ParameterError, match="pool kind"):
            WorkerPool(2, kind="fibers")

    def test_segments_freed_after_worker_crash(self):
        """A dying worker must not leave /dev/shm segments behind."""
        from concurrent.futures.process import BrokenProcessPool

        P = np.zeros((256, 64))
        Q = np.zeros((8, 64))
        before = repro_segments()
        pool = WorkerPool(2, kind="process")
        with pytest.raises(BrokenProcessPool):
            map_query_chunks(
                None, P, Q, _crash_runner, (), block=4, executor=pool,
            )
        assert pool.closed  # abandoned, not left half-dead
        assert repro_segments() == before

    def test_fork_workers_share_the_parent_resource_tracker(self):
        """A pool that forks before the parent made any segment (its first
        call is too small for the arena) must not leave each worker its
        own resource tracker, which at exit would try to unlink segments
        the parent already unlinked and warn about each."""
        script = textwrap.dedent("""
            import numpy as np
            from repro.core import JoinSpec, close_pools
            from repro.engine import join

            rng = np.random.default_rng(0)
            spec = JoinSpec(s=0.5, c=1.0)
            for n, d in ((20, 4), (20000, 16)):
                P = rng.standard_normal((n, d))
                join(P, P[:64], spec, backend="brute_force", n_workers=2,
                     pool="process")
            close_pools()
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        before = repro_segments()
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=path), timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert repro_segments() == before
        assert "resource_tracker" not in child.stderr, child.stderr

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="reads process states from /proc"
    )
    def test_workers_exit_and_segments_go_when_the_parent_is_killed(
        self, tmp_path
    ):
        """A parent killed by SIGKILL runs no shutdown: its workers must
        notice and exit, so that the resource tracker sees its pipe close
        and unlinks the segments the parent left."""
        script = textwrap.dedent("""
            import json, os, signal
            import numpy as np
            from repro.core import JoinSpec
            from repro.core.arena import repro_segments
            from repro.engine import open_session

            P = np.random.default_rng(0).standard_normal((2000, 16))
            session = open_session(
                P, JoinSpec(s=0.5, c=1.0), backend="brute_force",
                n_workers=2, pool="process", block=8)
            session.query(P[:64])
            prefix = f"repro_arena_{os.getpid()}_"
            print(json.dumps({
                "prefix": prefix,
                "workers": sorted(session._pool._executor._processes),
                "segments": [s for s in repro_segments()
                             if s.startswith(prefix)],
            }), flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
        """)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        out, err = tmp_path / "child.json", tmp_path / "child.err"
        with open(out, "w") as stdout, open(err, "w") as stderr:
            child = subprocess.Popen(
                [sys.executable, "-c", script], stdout=stdout, stderr=stderr,
                env=dict(os.environ, PYTHONPATH=path),
            )
            try:
                code = child.wait(timeout=300)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
        assert code == -signal.SIGKILL, err.read_text()
        state = json.loads(out.read_text())
        assert len(state["workers"]) == 2 and state["segments"]

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        def left():
            alive = [pid for pid in state["workers"] if running(pid)]
            return alive, [s for s in repro_segments()
                           if s.startswith(state["prefix"])]

        try:
            deadline = time.monotonic() + 30.0
            while any(left()) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert left() == ([], [])
        finally:
            for pid in left()[0]:
                os.kill(pid, signal.SIGKILL)

    def test_segments_freed_after_clean_calls(self):
        P = np.random.default_rng(0).normal(size=(256, 64))
        Q = np.random.default_rng(1).normal(size=(16, 64))
        before = repro_segments()
        with WorkerPool(2, kind="process") as pool:
            chunks = map_query_chunks(
                None, P, Q, _sum_runner, (), block=8, executor=pool,
            )
            assert [c[0] for c in chunks] == [0, 8]
        assert repro_segments() == before


class TestChunkOrdering:
    def test_chunk_bounds_align_to_block(self):
        assert _chunk_bounds(10, 4, 3) == [(0, 4), (4, 8), (8, 10)]
        assert _chunk_bounds(8, 8, 4) == [(0, 8)]

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_out_of_order_completion_returns_in_order(self, kind):
        """Chunk 0 finishes last; results still come back query-ordered."""
        P = np.zeros((8, 4))
        Q = np.arange(48, dtype=np.float64).reshape(12, 4)
        with WorkerPool(3, kind=kind) as pool:
            chunks = map_query_chunks(
                None, P, Q, _slow_first_runner, (), block=4, executor=pool,
            )
        assert [c[0] for c in chunks] == [0, 4, 8]
        expected = [float(Q[s:s + 4].sum()) for s in (0, 4, 8)]
        assert [c[1] for c in chunks] == expected


@pytest.fixture(scope="module")
def instance():
    rng = np.random.default_rng(11)
    P = rng.standard_normal((400, 24))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    Q = rng.standard_normal((90, 24))
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    return P, Q


class TestExecutionModeEquivalence:
    """serial == process == thread, bit for bit, for every backend."""

    BACKENDS = [
        ("brute_force", JoinSpec(s=0.5, c=0.8, signed=True)),
        ("norm_pruned", JoinSpec(s=0.5, c=0.8, signed=True)),
        ("lsh", JoinSpec(s=0.5, c=0.8, signed=True)),
        ("sketch", JoinSpec(s=0.5, c=0.3, signed=False)),
    ]

    @pytest.mark.parametrize("backend,spec", BACKENDS)
    def test_backend_matrix(self, instance, backend, spec):
        P, Q = instance
        serial = join(P, Q, spec, backend=backend, seed=5, n_workers=1)
        process = join(
            P, Q, spec, backend=backend, seed=5,
            n_workers=TEST_WORKERS, pool="process",
        )
        threaded = join(
            P, Q, spec, backend=backend, seed=5,
            n_workers=TEST_WORKERS, pool="thread",
        )
        assert serial.matched_count > 0
        assert _result_key(serial) == _result_key(process)
        assert _result_key(serial) == _result_key(threaded)

    def test_hybrid_plan_matrix(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        plan = norm_prefix_lsh_plan()
        serial = join(P, Q, spec, backend=plan, seed=5, n_workers=1)
        process = join(
            P, Q, spec, backend=plan, seed=5,
            n_workers=TEST_WORKERS, pool="process",
        )
        threaded = join(
            P, Q, spec, backend=plan, seed=5,
            n_workers=TEST_WORKERS, pool="thread",
        )
        assert _result_key(serial) == _result_key(process)
        assert _result_key(serial) == _result_key(threaded)

    def test_topk_equivalence(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True, k=3)
        serial = join(P, Q, spec, backend="brute_force", n_workers=1)
        threaded = join(
            P, Q, spec, backend="brute_force",
            n_workers=TEST_WORKERS, pool="thread",
        )
        assert serial.topk == threaded.topk
        assert serial.matches == threaded.matches

    def test_spawn_context_pool(self, instance):
        """Spawn workers (no inherited memory) see the same arena views."""
        P, Q = instance
        spec = JoinSpec(s=0.6, c=0.8)
        recipe = dict(
            family=HyperplaneLSH(24), n_tables=6, hashes_per_table=7, seed=2
        )
        serial = join(P, Q, spec, backend="lsh", **recipe)
        assert serial.matched_count > 0
        with WorkerPool(2, kind="process", mp_context="spawn") as pool:
            spawned = join(
                P, Q, spec, backend="lsh", **recipe,
                n_workers=2, executor=pool,
            )
        assert _result_key(serial) == _result_key(spawned)

    def test_traced_parallel_stitches_chunks(self, instance):
        """Parallel traces carry one run_chunk tree per chunk and merge
        to the exact metrics of the serial run."""
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        serial = join(
            P, Q, spec, backend="lsh", seed=5, n_workers=1, trace=True,
            block=32,
        )
        threaded = join(
            P, Q, spec, backend="lsh", seed=5,
            n_workers=2, pool="thread", trace=True, block=32,
        )
        assert len(serial.trace.find("run_chunk")) == 1
        assert len(threaded.trace.find("run_chunk")) == 2
        assert (
            serial.metrics.snapshot()["counters"]
            == threaded.metrics.snapshot()["counters"]
        )

    def test_auto_backend_with_workers(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        serial = join(P, Q, spec, backend="auto", seed=5, n_workers=1)
        parallel = join(P, Q, spec, backend="auto", seed=5, n_workers=2)
        assert serial.matches == parallel.matches


class TestPlannerParallelPricing:
    MODEL = CostModel(parallel_cores=8)

    def test_speedup_math(self):
        m = self.MODEL
        assert m.parallel_speedup(1) == 1.0
        assert m.parallel_speedup(4) == pytest.approx(1 + 3 * 0.75)
        # Workers beyond the pinned core count add nothing.
        assert m.parallel_speedup(64) == m.parallel_speedup(8)

    def test_parallelize_divides_query_ops_not_build(self):
        from repro.engine.protocol import CostEstimate

        est = CostEstimate(
            backend="x", build_ops=1e9, query_ops=8e9, feasible=True
        )
        out = self.MODEL.parallelize(est, 4)
        assert out.build_ops == est.build_ops  # build stays serial
        expected = 8e9 / self.MODEL.parallel_speedup(4) + 4 * 5e5
        assert out.query_ops == pytest.approx(expected)
        # n_workers=1 and infeasible estimates pass through untouched.
        assert self.MODEL.parallelize(est, 1) is est

    def test_small_join_prices_higher_parallel(self):
        spec = JoinSpec(s=0.5, c=0.8)
        serial = plan_join(500, 260, 32, spec, self.MODEL, n_workers=1)
        parallel = plan_join(500, 260, 32, spec, self.MODEL, n_workers=4)
        # Per-worker dispatch overhead dominates a tiny join.
        assert parallel.best_plan.total_ops > serial.best_plan.total_ops

    def test_large_join_prices_lower_parallel(self):
        spec = JoinSpec(s=0.5, c=0.8)
        serial = plan_join(200_000, 50_000, 64, spec, self.MODEL, n_workers=1)
        parallel = plan_join(
            200_000, 50_000, 64, spec, self.MODEL, n_workers=4
        )
        assert parallel.best_plan.total_ops < serial.best_plan.total_ops


class TestShardedJoin:
    def test_shard_bounds(self):
        assert shard_bounds(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert shard_bounds(2, 5) == [(0, 1), (1, 2)]  # capped at n
        with pytest.raises(ParameterError, match="n_shards"):
            shard_bounds(10, 0)
        with pytest.raises(ParameterError, match="empty"):
            shard_bounds(0, 2)

    @pytest.mark.parametrize("backend", ["brute_force", "norm_pruned"])
    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_exact_backends_identical_to_unsharded(
        self, instance, backend, n_shards
    ):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        unsharded = join(P, Q, spec, backend=backend, n_workers=1)
        sharded = sharded_join(P, Q, spec, n_shards=n_shards, backend=backend)
        assert sharded.matches == unsharded.matches
        assert sharded.backend == f"{backend}@{n_shards}shards"

    def test_topk_merge(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True, k=3)
        unsharded = join(P, Q, spec, backend="brute_force", n_workers=1)
        sharded = sharded_join(P, Q, spec, n_shards=4, backend="brute_force")
        assert sharded.topk == unsharded.topk

    @pytest.mark.parametrize("k", [None, 2])
    def test_cross_shard_ties_go_to_lowest_global_index(self, k):
        """Tied best rows in different shards: the lowest index wins.

        Three shards of two rows.  Query 0 ties rows 1, 3 and 5 (one per
        shard); query 1 ties rows 2 and 5 above shard 0's winner, row 0;
        query 2, unsigned, ties row 0 (+3) with row 4 (-3).
        """
        P = np.array([[0, 1, 3], [2, 0, 1], [0, 3, 0],
                      [2, 0, 2], [0, 0, -3], [2, 3, 0]], dtype=float)
        Q = np.eye(3)
        cases = (
            (True, Q[:2], [1, 2], [[1, 3], [2, 5]]),
            (False, Q[2:], [0], [[0, 4]]),
        )
        for signed, queries, best, ranked in cases:
            spec = JoinSpec(s=1.0, signed=signed, k=k)
            sharded = sharded_join(P, queries, spec, n_shards=3,
                                   backend="brute_force")
            assert sharded.matches == best
            assert sharded.topk == (ranked if k else None)
            unsharded = join(P, queries, spec, backend="brute_force")
            assert sharded.topk == unsharded.topk
            assert sharded.matches == unsharded.matches

    def test_sharded_result_keeps_bound_wall_trace_and_metrics(self):
        """The merged result carries what one session's result carries:
        the largest shard ``error_bound``, the call's wall time and,
        traced, one root span over the shards' trees and the merge plus
        the shards' merged metrics."""
        rng = np.random.default_rng(5)
        P = rng.standard_normal((300, 8))
        Q = rng.standard_normal((40, 8))
        spec = JoinSpec(s=1.0, c=0.8, signed=True)
        sharded = sharded_join(P, Q, spec, 2, backend="quantized", trace=True)
        shards = [join(P[a:b], Q, spec, backend="quantized", seed=None)
                  for a, b in shard_bounds(300, 2)]
        assert sharded.error_bound is not None
        assert sharded.error_bound == max(r.error_bound for r in shards)
        assert sharded.matches == join(P, Q, spec, backend="brute_force").matches
        assert sharded.wall_s > 0.0
        assert sharded.trace.name == "sharded.query"
        assert [c.name for c in sharded.trace.children] == [
            "session.query", "session.query", "merge"]
        assert [c.attrs["shard"] for c in sharded.trace.children[:2]] == [0, 1]
        counters = sharded.metrics.snapshot()["counters"]
        assert counters["engine.joins"] == 2
        assert counters["engine.candidates_generated"] == sum(
            r.candidates_generated for r in shards)
        untraced = sharded_join(P, Q, spec, 2, backend="brute_force")
        assert untraced.error_bound is None
        assert untraced.trace is None and untraced.metrics is None
        assert untraced.wall_s > 0.0

    def test_lsh_deterministic_given_seed_and_shards(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        first = sharded_join(P, Q, spec, n_shards=2, backend="lsh", seed=9)
        again = sharded_join(
            P, Q, spec, n_shards=2, backend="lsh", seed=9,
            n_workers=2, pool="thread",
        )
        assert first.matches == again.matches

    def test_self_join_rejected(self, instance):
        P, _ = instance
        spec = JoinSpec(s=0.5, c=0.8, self_join=True)
        with pytest.raises(ParameterError, match="variant"):
            sharded_join(P, P, spec, n_shards=2)

    @pytest.mark.parametrize(
        "bad_options, match",
        [
            ({"backend": "no_such_backend"}, "unknown backend"),
            ({"backend": "quantized", "accumulate": "bogus"}, "accumulate"),
            ({"backend": "brute_force", "kappa": 3}, "options"),
            ({"pool": "fiber"}, "pool"),
            ({"n_workers": 0}, "n_workers"),
        ],
    )
    def test_invalid_options_fail_before_any_shard(
        self, instance, monkeypatch, bad_options, match
    ):
        """An invalid option fails before any shard runs a chunk.

        A mid-loop failure would leave a partial run (some shards
        joined, work billed, pools warmed) for an error that was knowable
        up front.  Every shard gets the same options, so shard 0 raises
        in its constructor or its first prepare; the executor entry
        point is replaced with a counter to prove it is never reached.
        """
        import repro.engine.execute as execute

        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        calls = []
        real_map = execute.map_query_chunks
        monkeypatch.setattr(
            execute, "map_query_chunks",
            lambda *a, **kw: calls.append(1) or real_map(*a, **kw),
        )
        with pytest.raises(ParameterError, match=match):
            sharded_join(P, Q, spec, n_shards=3, **bad_options)
        assert calls == []
        # The counter does see the chunks of a valid sharded join.
        sharded_join(P, Q, spec, n_shards=3, backend="brute_force")
        assert len(calls) == 3


class TestBlasControl:
    def test_worker_share_policy(self):
        cores = os.cpu_count() or 1
        assert blasctl.worker_blas_threads(1) == max(1, cores)
        assert blasctl.worker_blas_threads(2 * cores) == 1
        assert blasctl.worker_blas_threads(2, requested=3) == 3
        with pytest.raises(ParameterError, match=">= 1"):
            blasctl.worker_blas_threads(2, requested=0)

    def test_blas_env_mapping(self):
        env = blasctl.blas_env(3)
        assert set(env) == set(blasctl.BLAS_ENV_VARS)
        assert all(v == "3" for v in env.values())
        with pytest.raises(ParameterError, match=">= 1"):
            blasctl.blas_env(0)

    def test_set_get_roundtrip(self):
        if not blasctl.blas_available() or blasctl.get_blas_threads() == 0:
            pytest.skip("no runtime BLAS thread control on this build")
        before = blasctl.get_blas_threads()
        try:
            assert blasctl.set_blas_threads(1)
            assert blasctl.get_blas_threads() == 1
        finally:
            blasctl.set_blas_threads(before)
        assert blasctl.get_blas_threads() == before

    def test_context_manager_restores(self):
        if not blasctl.blas_available() or blasctl.get_blas_threads() == 0:
            pytest.skip("no runtime BLAS thread control on this build")
        before = blasctl.get_blas_threads()
        with blasctl.blas_threads(1) as applied:
            assert applied
            assert blasctl.get_blas_threads() == 1
        assert blasctl.get_blas_threads() == before

    def test_set_rejects_nonpositive(self):
        with pytest.raises(ParameterError, match=">= 1"):
            blasctl.set_blas_threads(0)

    def test_serial_path_honors_blas_threads(self, instance, monkeypatch):
        """Regression: ``blas_threads=`` used to be dropped when
        ``n_workers=1`` — the pin only reached the pool paths.  The
        context manager is replaced with a recorder so the check holds
        on any core count (on one core the fair share is already 1 and a
        behavioral check would be vacuous).
        """
        from contextlib import contextmanager

        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        pins = []

        @contextmanager
        def recording(n):
            pins.append(n)
            yield True

        monkeypatch.setattr(blasctl, "blas_threads", recording)
        expected = join(P, Q, spec, backend="brute_force", n_workers=1)
        assert pins == []  # no request, no pin: default stays untouched
        pinned = join(
            P, Q, spec, backend="brute_force", n_workers=1, blas_threads=2
        )
        assert pins == [2]
        assert pinned.matches == expected.matches


@pytest.fixture(scope="module", autouse=True)
def _sweep_pools():
    """Leave no persistent pools or segments behind for other modules."""
    yield
    close_pools()
    assert repro_segments() == []
