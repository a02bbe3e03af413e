"""Session engine tests: build once, query many times, serve from disk.

The load-bearing guarantees under test:

* ``session.query(Q)`` is bit-identical to ``engine.join(P, Q, spec)``
  with the same plan, seed, and worker configuration — for every
  backend, hybrid Plans, top-k, self-join, and both pool kinds;
* repeated queries reuse the prepared structures: stage prepares happen
  once at open (deferred hybrid stages are the documented per-query
  exception), the owned pool's pinned arena segments stay stable across
  queries, and ``/dev/shm`` is clean after ``close()`` — even after a
  worker crash mid-query, which the session heals from;
* ``session.save(path)`` → ``engine.open_path(path)`` round-trips the
  prepared session through the directory format with memmapped arrays,
  and truncated sidecars fail loudly with :class:`PersistenceError`;
* ``query_stream`` over chunk iterators and memmapped files reproduces
  the in-memory batch exactly, for both pool kinds; each re-blocked
  window is one ordinary query batch, so a traced stream holds one
  ``session.query`` tree per window, the chunk-latency histogram sees
  every window's chunks, and a worker killed between windows fails the
  stream loudly, leaks no segment, and the next query heals;
* the ``auto`` planner amortizes build cost over ``expected_queries``,
  and every session query's planner-log record carries the amortization
  tags the regret report splits on.

The CI parallel leg's ``REPRO_TEST_WORKERS`` applies here too.
"""

import json
import os
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import JoinSpec, WorkerPool, map_query_chunks
from repro.core.arena import repro_segments
from repro.core.executor import QuerySource
from repro.datasets import planted_jaccard_sets, planted_mips, random_unit
from repro.engine import (
    JoinSession,
    join,
    norm_prefix_lsh_plan,
    open_path,
    open_session,
    open_sharded,
    plan_join,
    sharded_join,
)
from repro.errors import ParameterError
from repro.obs import PlannerLog, use_planner_log
from repro.utils.persistence import PersistenceError

#: Worker count of the equivalence matrix; the CI parallel leg overrides.
TEST_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

LSH = dict(n_tables=6, hashes_per_table=6)


@pytest.fixture(scope="module")
def instance():
    return planted_mips(300, 24, 32, s=0.85, c=0.4, seed=7)


@pytest.fixture(scope="module")
def spec():
    return JoinSpec(s=0.85, c=0.4, signed=False)


def _key(result):
    """Everything that must be bit-identical across dispatch paths."""
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


def _crash_runner(structure, P, Q_chunk, start, args):
    os._exit(17)


class TestSessionMatchesJoin:
    @pytest.mark.parametrize(
        "backend,options",
        [
            ("brute_force", {}),
            ("norm_pruned", {}),
            ("lsh", LSH),
            ("sketch", {"kappa": 3.0}),
        ],
    )
    def test_backend_equivalence(self, instance, spec, backend, options):
        expected = join(
            instance.P, instance.Q, spec, backend=backend, seed=3, **options
        )
        with open_session(
            instance.P, spec, backend=backend, seed=3, **options
        ) as session:
            first = session.query(instance.Q)
            second = session.query(instance.Q)
        assert expected.matched_count > 0
        assert _key(first) == _key(expected)
        assert _key(second) == _key(expected)

    def test_hybrid_plan_equivalence(self, instance, spec):
        plan = norm_prefix_lsh_plan(prefix_fraction=0.25)
        expected = join(instance.P, instance.Q, spec, backend=plan, seed=5)
        with open_session(
            instance.P, spec, backend=plan, seed=5
        ) as session:
            for _ in range(2):
                assert _key(session.query(instance.Q)) == _key(expected)

    def test_topk_equivalence(self, instance):
        topk_spec = JoinSpec(s=0.85, c=0.4, k=3)
        expected = join(instance.P, instance.Q, topk_spec, backend="lsh",
                        seed=3, **LSH)
        with open_session(
            instance.P, topk_spec, backend="lsh", seed=3, **LSH
        ) as session:
            result = session.query(instance.Q)
        assert _key(result) == _key(expected)
        assert result.topk == expected.topk

    def test_self_join_equivalence(self, instance):
        self_spec = JoinSpec(s=0.85, c=0.4, self_join=True)
        expected = join(instance.P, None, self_spec, backend="brute_force")
        with open_session(instance.P, self_spec, backend="brute_force") as s:
            assert _key(s.query(None)) == _key(expected)

    @pytest.mark.parametrize("pool", ["process", "thread"])
    def test_parallel_equivalence(self, instance, spec, pool):
        serial = join(instance.P, instance.Q, spec, backend="lsh", seed=3,
                      **LSH)
        with open_session(
            instance.P, spec, backend="lsh", seed=3,
            n_workers=TEST_WORKERS, pool=pool, block=16, **LSH
        ) as session:
            for _ in range(2):
                assert _key(session.query(instance.Q)) == _key(serial)

    def test_auto_session_matches_picked_backend(self, instance, spec):
        with open_session(instance.P, spec, backend="auto", seed=3) as session:
            picked = session.the_plan
            result = session.query(instance.Q)
        expected = join(instance.P, instance.Q, spec, backend=picked, seed=3)
        assert _key(result) == _key(expected)


class TestSessionReuse:
    def test_prepares_once_across_queries(self, instance, spec):
        with open_session(
            instance.P, spec, backend="lsh", seed=3, **LSH
        ) as session:
            assert session.metrics.counter("session.stage_prepares").value == 1
            for _ in range(3):
                session.query(instance.Q)
            assert session.metrics.counter("session.stage_prepares").value == 1
            assert session.metrics.counter("session.queries").value == 3
            assert session.queries_served == 3

    def test_hybrid_deferred_stages_reprepare_per_query(self, instance, spec):
        plan = norm_prefix_lsh_plan(prefix_fraction=0.25)
        with open_session(instance.P, spec, backend=plan, seed=5) as session:
            opened = session.metrics.counter("session.stage_prepares").value
            deferred0 = session.metrics.counter(
                "session.deferred_prepares"
            ).value
            session.query(instance.Q)
            session.query(instance.Q)
            # Eager prepares never re-run; only deferred stages (those
            # consuming per-query state) may prepare inside queries.
            assert session.metrics.counter(
                "session.stage_prepares"
            ).value == opened
            assert session.metrics.counter(
                "session.deferred_prepares"
            ).value >= deferred0

    def test_pool_pins_once_and_segments_stable(self, instance, spec):
        before = repro_segments()
        session = open_session(
            instance.P, spec, backend="lsh", seed=3,
            n_workers=TEST_WORKERS, pool="process", block=16, **LSH
        )
        try:
            pins = session.metrics.counter("session.pool_pins").value
            assert pins >= 1  # at least P is pinned at open
            after_open = repro_segments()
            assert len(after_open) > len(before)
            for _ in range(3):
                session.query(instance.Q)
            # Repeated queries freeze only their own Q (freed per call):
            # the pinned segment set must not grow with reuse.
            assert repro_segments() == after_open
            assert session.metrics.counter("session.pool_pins").value == pins
        finally:
            session.close()
        assert repro_segments() == before

    def test_close_is_idempotent_and_queries_fail_closed(self, instance, spec):
        session = open_session(instance.P, spec, backend="brute_force")
        session.close()
        session.close()
        assert session.closed
        with pytest.raises(ParameterError, match="closed"):
            session.query(instance.Q)
        with pytest.raises(ParameterError, match="closed"):
            session.query_stream([instance.Q])
        with pytest.raises(ParameterError, match="closed"):
            session.save("/tmp/never-written")

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"),
        reason="POSIX shared memory mount required",
    )
    def test_session_heals_after_worker_crash(self, instance, spec):
        from concurrent.futures.process import BrokenProcessPool

        expected = join(instance.P, instance.Q, spec, backend="lsh", seed=3,
                        **LSH)
        before = repro_segments()
        session = open_session(
            instance.P, spec, backend="lsh", seed=3,
            n_workers=2, pool="process", block=16, **LSH
        )
        try:
            assert _key(session.query(instance.Q)) == _key(expected)
            # Kill the session's own pool mid-map: the dying worker
            # must not leak segments, and the session must heal.
            with pytest.raises(BrokenProcessPool):
                map_query_chunks(
                    None, instance.P, instance.Q, _crash_runner, (),
                    n_workers=2, block=16, executor=session._pool,
                )
            assert session._pool.closed
            assert _key(session.query(instance.Q)) == _key(expected)
            assert session.metrics.counter(
                "session.pool_rebuilds"
            ).value == 1
        finally:
            session.close()
        assert repro_segments() == before

    def test_caller_managed_executor_left_running(self, instance, spec):
        with WorkerPool(TEST_WORKERS, kind="thread") as pool:
            session = open_session(
                instance.P, spec, backend="brute_force",
                n_workers=TEST_WORKERS, executor=pool, block=16,
            )
            session.query(instance.Q)
            session.close()
            assert not pool.closed  # the caller owns its lifecycle


class TestQueryStream:
    def test_stream_chunks_bit_identical_to_batch(self, instance, spec):
        with open_session(
            instance.P, spec, backend="lsh", seed=3, block=16, **LSH
        ) as session:
            batch = session.query(instance.Q)
            # Deliberately ragged chunk sizes: re-blocking must restore
            # the block-aligned determinism contract.
            splits = [instance.Q[:7], instance.Q[7:20], instance.Q[20:]]
            streamed = session.query_stream(iter(splits), chunk_rows=16)
            assert batch.matched_count > 0
            assert _key(streamed) == _key(batch)
            assert session.metrics.counter(
                "session.stream_chunks"
            ).value >= 1

    def test_stream_from_memmap_file(self, instance, spec, tmp_path):
        qfile = tmp_path / "queries.bin"
        qfile.write_bytes(np.ascontiguousarray(instance.Q).tobytes())
        source = QuerySource.from_memmap(qfile, d=instance.Q.shape[1])
        with open_session(
            instance.P, spec, backend="lsh", seed=3, block=16, **LSH
        ) as session:
            batch = session.query(instance.Q)
            streamed = session.query_stream(source, chunk_rows=16)
        assert batch.matched_count > 0
        assert _key(streamed) == _key(batch)

    def test_stream_hybrid_plan_folds_chunks(self, instance, spec):
        plan = norm_prefix_lsh_plan(prefix_fraction=0.25)
        with open_session(
            instance.P, spec, backend=plan, seed=5, block=16
        ) as session:
            batch = session.query(instance.Q)
            streamed = session.query_stream(
                iter([instance.Q[:16], instance.Q[16:]]), chunk_rows=16
            )
        assert batch.matched_count > 0
        assert streamed.matches == batch.matches
        assert (
            streamed.inner_products_evaluated
            == batch.inner_products_evaluated
        )

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_stream_parallel_matches_serial(self, instance, spec, pool):
        serial = join(instance.P, instance.Q, spec, backend="lsh", seed=3,
                      **LSH)
        with open_session(
            instance.P, spec, backend="lsh", seed=3,
            n_workers=TEST_WORKERS, pool=pool, block=16, **LSH
        ) as session:
            streamed = session.query_stream(
                iter([instance.Q[:13], instance.Q[13:]]), chunk_rows=16
            )
        assert serial.matched_count > 0
        assert _key(streamed) == _key(serial)

    def test_traced_stream_has_one_tree_per_window(self, instance, spec):
        m = instance.Q.shape[0]
        with open_session(
            instance.P, spec, backend="lsh", seed=3, block=16, **LSH
        ) as session:
            plain = session.query_stream(iter([instance.Q]), chunk_rows=16)
            traced = session.query_stream(
                iter([instance.Q]), chunk_rows=16, trace=True
            )
        assert plain.matched_count > 0
        assert plain.trace is None
        assert traced.matches == plain.matches
        root = traced.trace
        assert root.name == "session.query_stream"
        assert root.attrs["m"] == m
        # One ``session.query`` tree per 16-row window, in stream order.
        windows = root.children
        assert [w.name for w in windows] == ["session.query"] * 2
        assert [w.attrs["m"] for w in windows] == [16, m - 16]
        for window in windows:
            assert [c.name for c in window.children] == [
                "planner", "prepare", "run", "merge"
            ]

    def test_stream_chunk_histogram_sees_every_window(
        self, instance, spec, monkeypatch
    ):
        import repro.engine.execute as execute

        chunk_counts = []
        real_map = execute.map_query_chunks

        def counting_map(*args, **kwargs):
            chunks = real_map(*args, **kwargs)
            chunk_counts.append(len(chunks))
            return chunks

        log = PlannerLog()
        plan = norm_prefix_lsh_plan(prefix_fraction=0.25)
        with use_planner_log(log), open_session(
            instance.P, spec, backend=plan, seed=5, block=16
        ) as session:
            hist = session.metrics.histogram("session.chunk_latency_us")
            before = hist.count
            monkeypatch.setattr(execute, "map_query_chunks", counting_map)
            session.query_stream(
                iter([instance.Q[:16], instance.Q[16:]]), chunk_rows=16
            )
            windows = session.metrics.counter("session.stream_chunks").value
            stage_hist = session.metrics.histogram(
                "session.stage_latency_us.norm_pruned"
            )
            assert windows == 2
            assert hist.count - before == sum(chunk_counts)
            assert stage_hist.count == 1  # one summed wall per stream
        # One planner record for the stream; its stage rows sum the windows.
        (record,) = log.records
        assert record.m == instance.Q.shape[0]
        assert [st["index"] for st in record.stages] == [0, 1]
        assert record.stages[0]["m"] == instance.Q.shape[0]

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"),
        reason="POSIX shared memory mount required",
    )
    def test_worker_kill_mid_stream_fails_loudly_and_heals(
        self, instance, spec
    ):
        from concurrent.futures.process import BrokenProcessPool

        before = repro_segments()
        session = open_session(
            instance.P, spec, backend="lsh", seed=3,
            n_workers=2, pool="process", block=16, **LSH
        )

        def windows_with_kill():
            yield instance.Q[:16]
            # Between windows: every worker of the session's pool dies.
            for proc in list(session._pool._executor._processes.values()):
                os.kill(proc.pid, signal.SIGKILL)
            yield instance.Q[16:]

        try:
            expected = session.query(instance.Q)
            assert expected.matched_count > 0
            with pytest.raises(BrokenProcessPool):
                session.query_stream(windows_with_kill(), chunk_rows=16)
            assert repro_segments() == before
            healed = session.query(instance.Q)
            assert session.metrics.counter(
                "session.pool_rebuilds"
            ).value == 1
            assert _key(healed) == _key(expected)
        finally:
            session.close()
        assert repro_segments() == before

    def test_self_join_sessions_cannot_stream(self, instance):
        self_spec = JoinSpec(s=0.85, c=0.4, self_join=True)
        with open_session(instance.P, self_spec, backend="brute_force") as s:
            with pytest.raises(ParameterError, match="cannot stream"):
                s.query_stream([instance.P])


class TestSaveOpenPath:
    def test_roundtrip_serves_bit_identical_from_memmap(
        self, instance, spec, tmp_path
    ):
        index_dir = tmp_path / "index"
        with open_session(
            instance.P, spec, backend="lsh", seed=3, **LSH
        ) as session:
            expected = session.query(instance.Q)
            session.save(index_dir)
        assert expected.matched_count > 0
        assert (index_dir / "manifest.json").exists()
        loaded = open_path(index_dir)
        try:
            # Zero-copy load: P comes back as a read-only memmap view.
            assert not loaded.P.flags.writeable
            assert isinstance(loaded.P.base, np.memmap)
            assert _key(loaded.query(instance.Q)) == _key(expected)
        finally:
            loaded.close()

    def test_full_copy_load_and_parallel_serve(self, instance, spec, tmp_path):
        index_dir = tmp_path / "index"
        with open_session(
            instance.P, spec, backend="lsh", seed=3, **LSH
        ) as session:
            expected = session.query(instance.Q)
            session.save(index_dir)
        assert expected.matched_count > 0
        copied = open_path(index_dir, mmap=False)
        try:
            assert not isinstance(copied.P.base, np.memmap)
            assert _key(copied.query(instance.Q)) == _key(expected)
        finally:
            copied.close()
        # Execution knobs are per-open, not persisted.
        parallel = open_path(
            index_dir, n_workers=TEST_WORKERS, pool="thread"
        )
        try:
            assert _key(parallel.query(instance.Q)) == _key(expected)
        finally:
            parallel.close()

    def test_truncated_sidecar_raises_persistence_error(
        self, instance, spec, tmp_path
    ):
        index_dir = tmp_path / "index"
        with open_session(
            instance.P, spec, backend="lsh", seed=3, **LSH
        ) as session:
            session.save(index_dir)
        sidecar = sorted((index_dir / "arrays").glob("*.bin"))[0]
        sidecar.write_bytes(sidecar.read_bytes()[:-8])
        with pytest.raises(PersistenceError, match="truncated sidecar"):
            open_path(index_dir)

    def test_version_1_directory_refused(self, instance, spec, tmp_path):
        """A directory from the per-table LSH layout (format 1) fails on
        its manifest version, before any pickle is decoded."""
        index_dir = tmp_path / "index"
        with open_session(
            instance.P, spec, backend="lsh", seed=3, **LSH
        ) as session:
            session.save(index_dir)
        manifest_path = index_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="directory format version 1"):
            open_path(index_dir)

    def test_version_2_directory_refused(self, tmp_path):
        """A ``set_scan`` directory from before the postings' head
        bitmaps (format 2) fails on its manifest version instead of
        unpickling postings that lack them."""
        P, _ = planted_jaccard_sets(200, 10, universe=256, mean_size=12,
                                    seed=1)
        spec = JoinSpec(s=0.6, measure="jaccard")
        index_dir = tmp_path / "index"
        with open_session(P, spec, backend="set_scan") as session:
            session.save(index_dir)
        manifest_path = index_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="directory format version 2"):
            open_path(index_dir)

    def test_set_scan_head_bitmaps_are_memmapped(self, tmp_path):
        P, Q = planted_jaccard_sets(800, 40, universe=1024, mean_size=16,
                                    exponent=0.6, seed=2)
        spec = JoinSpec(s=0.6, measure="jaccard")
        index_dir = tmp_path / "index"
        with open_session(P, spec, backend="set_scan") as session:
            expected = session.query(Q)
            session.save(index_dir)
        assert expected.matched_count > 0
        with open_path(index_dir, mmap=True) as served:
            postings = served._prepared[0].payload.postings
            assert np.count_nonzero(postings.masks) > 0
            for arr in (postings.masks, postings.words):
                assert isinstance(arr.base, np.memmap)
            assert _key(served.query(Q)) == _key(expected)

    def test_only_prepared_sessions_save(self, instance, spec, tmp_path):
        lazy = JoinSession._lazy(instance.P, spec, backend="brute_force")
        with pytest.raises(ParameterError, match="prepared session"):
            lazy.save(tmp_path / "never")

    def test_saved_arrays_dedupe_by_identity(self, instance, spec, tmp_path):
        # brute_force does not partition P: the stage's P_stage IS P, so
        # the matrix must land in exactly one sidecar.
        index_dir = tmp_path / "index"
        with open_session(instance.P, spec, backend="brute_force") as session:
            session.save(index_dir)
        sidecars = list((index_dir / "arrays").glob("*.bin"))
        nbytes = np.ascontiguousarray(instance.P).nbytes
        assert sum(1 for f in sidecars if f.stat().st_size == nbytes) == 1


class TestPlannerAmortization:
    def test_expected_queries_amortizes_build(self, instance, spec):
        n, m, d = instance.P.shape[0], instance.Q.shape[0], instance.P.shape[1]
        one_shot = plan_join(n, m, d, spec)
        amortized = plan_join(n, m, d, spec, expected_queries=100_000)
        assert one_shot.expected_queries == 1.0
        assert amortized.expected_queries == 100_000.0

        def position(ranked, backend):
            names = [p.backend for p in ranked.feasible_plans]
            return names.index(backend)

        # Build-free brute force can only fall in the ranking as the
        # build amortizes away; a build-heavy plan's per-query cost
        # drops strictly below its one-shot cost.
        assert position(amortized, "brute_force") >= position(
            one_shot, "brute_force"
        )
        lsh = next(
            p for p in one_shot.feasible_plans if p.backend == "lsh"
        )
        assert lsh.amortized_ops(1) == lsh.total_ops
        assert lsh.amortized_ops(100) < 100 * lsh.total_ops

    def test_session_plans_with_amortization_hint(self, instance, spec):
        with open_session(
            instance.P, spec, backend="auto", seed=3, expected_queries=64,
        ) as session:
            assert session.join_plan is not None
            assert session.join_plan.expected_queries == 64.0
            session.query(instance.Q)

    def test_invalid_expected_queries_rejected(self, instance, spec):
        with pytest.raises(ParameterError, match="expected_queries"):
            open_session(instance.P, spec, expected_queries=0)
        with pytest.raises(ParameterError, match="expected_queries"):
            plan_join(10, 10, 4, spec, expected_queries=0)


class TestPlannerLogTags:
    def test_session_records_tag_amortization(self, instance, spec):
        log = PlannerLog()
        with use_planner_log(log):
            with open_session(
                instance.P, spec, backend="lsh", seed=3,
                expected_queries=8, **LSH
            ) as session:
                session.query(instance.Q)
                session.query(instance.Q)
            join(instance.P, instance.Q, spec, backend="lsh", seed=3, **LSH)
        records = list(log)
        assert len(records) == 3
        assert [r.expected_queries for r in records] == [8, 8, 1]
        assert [r.session_reuse for r in records] == [0, 1, 0]
        assert [r.is_session for r in records] == [True, True, False]
        assert log.session_counts() == (2, 1)

    def test_jsonl_roundtrip_keeps_session_tags(self, instance, spec, tmp_path):
        log = PlannerLog()
        with use_planner_log(log):
            with open_session(
                instance.P, spec, backend="lsh", seed=3,
                expected_queries=8, **LSH
            ) as session:
                session.query(instance.Q)
        path = tmp_path / "log.jsonl"
        log.save(path)
        loaded = PlannerLog.load(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in log]
        assert loaded.session_counts() == (1, 0)


class TestShardedSession:
    def test_sharded_session_matches_sharded_join(self, instance, spec):
        expected = sharded_join(
            instance.P, instance.Q, spec, n_shards=3,
            backend="lsh", seed=3, **LSH
        )
        with open_sharded(
            instance.P, spec, n_shards=3, backend="lsh", seed=3, **LSH
        ) as sharded:
            first = sharded.query(instance.Q)
            second = sharded.query(instance.Q)
        assert first.matches == expected.matches
        assert second.matches == expected.matches
        assert (
            first.inner_products_evaluated
            == expected.inner_products_evaluated
        )

    def test_sharded_session_rejects_bad_dimension(self, instance, spec):
        with open_sharded(
            instance.P, spec, n_shards=2, backend="brute_force"
        ) as sharded:
            with pytest.raises(ParameterError, match="share a dimension"):
                sharded.query(instance.Q[:, :-1])


class TestOpenSurface:
    def test_open_signature_shapes(self, instance, spec):
        with pytest.raises(ParameterError, match="JoinSpec"):
            open_session(instance.P, instance.Q)
        with pytest.raises(ParameterError, match="session over P only"):
            open_session(instance.P, instance.Q, spec)
        session = open_session(instance.P, None, spec, backend="brute_force")
        try:
            session.query(instance.Q)
        finally:
            session.close()

    def test_query_validates_dimension(self, instance, spec):
        with open_session(instance.P, spec, backend="brute_force") as session:
            with pytest.raises(ParameterError, match="share a dimension"):
                session.query(instance.Q[:, :-1])
            with pytest.raises(ParameterError, match="cross joins"):
                session.query(None)

    def test_self_join_session_rejects_query_set(self, instance):
        self_spec = JoinSpec(s=0.85, c=0.4, self_join=True)
        with open_session(instance.P, self_spec, backend="brute_force") as s:
            with pytest.raises(ParameterError, match="pass Q=None"):
                s.query(instance.Q)


class TestConcurrentQueries:
    def test_threads_sharing_a_session_are_serialized(self):
        """Eight threads querying one session at once each get exactly
        the serial answer, work counters included."""
        P = random_unit(20_000, 32, seed=1)
        noise = 0.05 * np.random.default_rng(2).normal(size=(512, 32))
        Q = P[:512] + noise
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        spec = JoinSpec(s=0.9, c=0.5)
        start = threading.Barrier(8, timeout=60)

        def query(session):
            start.wait()
            return session.query(Q)

        with open_session(P, spec, backend="lsh", seed=0) as session:
            serial = session.query(Q)
            with ThreadPoolExecutor(8) as threads:
                results = list(threads.map(query, [session] * 8))
            assert session.queries_served == 9
        assert serial.matched_count > 0
        for result in results:
            assert _key(result) == _key(serial)
