"""Serving telemetry tier: sampler, sink, resources, session wiring.

The load-bearing guarantees under test:

* :class:`~repro.obs.sampler.TraceSampler` is seeded-reproducible, the
  rate cap bounds sampled queries per window, and ``rate=0`` is the
  always-cheap no-op the session relies on;
* :class:`~repro.obs.sink.EventSink` rotates logrotate-style under a
  byte cap, readers reassemble the rotated set in ``seq`` order, and a
  torn trailing line (crash boundary) is skipped rather than fatal;
* resource snapshots read sane RSS / fault counts from ``/proc`` and
  the poller survives a failing ``extra`` callable;
* ``Histogram.quantile`` agrees with exact numpy quantiles to within
  one pow2 bucket, and the exporters carry p50/p95/p99 plus
  ``# HELP`` lines with charset-sanitized metric names;
* a session opened with ``trace_sample_rate`` + ``attach_sink`` writes
  the full event mix (meta, spans, planner, metrics, resource) while
  leaving query results bit-identical to an untelemetered session, and
  ``ShardedSession`` merges per-shard registries into one snapshot.
"""

import importlib.util
import json
import os
import re

import numpy as np
import pytest

from repro.core import JoinSpec
from repro.datasets import planted_mips, random_unit
from repro.engine import join, open_session, open_sharded
from repro.errors import ParameterError
from repro.obs import (
    EventSink,
    MetricsRegistry,
    ResourcePoller,
    TraceSampler,
    metrics_to_json,
    metrics_to_prometheus,
    read_events,
    resource_snapshot,
    sink_files,
)
from repro.obs.metrics import POW2_BOUNDS, Histogram
from repro.obs.resources import page_faults, rss_bytes, timeline
from repro.obs.sink import iter_events

LSH = dict(n_tables=6, hashes_per_table=6)

OBS_REPORT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tools", "obs_report.py")


@pytest.fixture(scope="module")
def instance():
    return planted_mips(300, 24, 32, s=0.85, c=0.4, seed=7)


@pytest.fixture(scope="module")
def spec():
    return JoinSpec(s=0.85, c=0.4)


class TestTraceSampler:
    def test_rate_zero_never_samples(self):
        sampler = TraceSampler(0.0)
        assert not any(sampler.should_sample() for _ in range(100))
        assert sampler.stats() == {
            "rate": 0.0, "seen": 100, "sampled": 0, "rate_limited": 0,
        }

    def test_rate_one_always_samples(self):
        sampler = TraceSampler(1.0)
        assert all(sampler.should_sample() for _ in range(50))
        assert sampler.sampled == sampler.seen == 50

    def test_seeded_pattern_reproducible(self):
        a = TraceSampler(0.3, seed=11)
        b = TraceSampler(0.3, seed=11)
        pattern = [a.should_sample() for _ in range(200)]
        assert pattern == [b.should_sample() for _ in range(200)]
        assert any(pattern) and not all(pattern)

    def test_fractional_rate_roughly_holds(self):
        sampler = TraceSampler(0.2, seed=3)
        hits = sum(sampler.should_sample() for _ in range(5000))
        assert 700 <= hits <= 1300  # ~1000 expected

    def test_window_cap_limits_and_counts(self):
        # A huge window: the cap binds for the whole test.
        sampler = TraceSampler(1.0, max_per_window=5, window_s=3600.0)
        decisions = [sampler.should_sample() for _ in range(20)]
        assert sum(decisions) == 5
        assert decisions[:5] == [True] * 5
        assert sampler.rate_limited == 15

    def test_window_reset_readmits(self):
        sampler = TraceSampler(1.0, max_per_window=2, window_s=1e-9)
        # Every decision lands in a fresh window, so the cap never binds.
        assert all(sampler.should_sample() for _ in range(10))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            TraceSampler(1.5)
        with pytest.raises(ParameterError):
            TraceSampler(-0.1)
        with pytest.raises(ParameterError):
            TraceSampler(0.5, max_per_window=-1)
        with pytest.raises(ParameterError):
            TraceSampler(0.5, window_s=0.0)


class TestEventSink:
    def test_roundtrip_and_seq_order(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path) as sink:
            for i in range(10):
                sink.emit("metrics", {"i": i})
        events = read_events(path)
        assert [e["seq"] for e in events] == list(range(10))
        assert [e["data"]["i"] for e in events] == list(range(10))
        assert all(e["kind"] == "metrics" for e in events)

    def test_rotation_under_byte_cap(self, tmp_path):
        path = tmp_path / "events.jsonl"
        payload = {"blob": "x" * 200}
        with EventSink(path, max_bytes=1000, max_files=3) as sink:
            for i in range(40):
                sink.emit("span", dict(payload, i=i))
            rotations = sink.rotations
        assert rotations >= 1
        files = sink_files(path)
        # Active file plus at most max_files generations, oldest first.
        assert 2 <= len(files) <= 4
        assert files[-1] == str(path)
        # Readers reassemble what survived in seq order; the newest
        # events are never the ones rotation dropped.
        events = read_events(path)
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 39

    def test_max_files_zero_truncates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path, max_bytes=500, max_files=0) as sink:
            for i in range(50):
                sink.emit("span", {"blob": "y" * 100, "i": i})
        assert sink_files(path) == [str(path)]

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path) as sink:
            sink.emit("metrics", {"ok": 1})
            sink.emit("metrics", {"ok": 2})
        with open(path, "a") as fh:
            fh.write('{"kind": "metrics", "ts": 1.0, "seq"')  # torn write
        events = list(iter_events(str(path)))
        assert [e["data"]["ok"] for e in events] == [1, 2]

    def test_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = EventSink(path)
        sink.emit("meta", {})
        sink.close()
        sink.emit("meta", {})  # must not raise or write
        assert len(read_events(path)) == 1

    def test_kind_filter(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with EventSink(path) as sink:
            sink.emit("span", {})
            sink.emit("resource", {})
            sink.emit("span", {})
        assert len(read_events(path, kinds=["span"])) == 2

    def test_parameter_validation(self, tmp_path):
        with pytest.raises(ParameterError):
            EventSink(tmp_path / "x.jsonl", max_bytes=0)
        with pytest.raises(ParameterError):
            EventSink(tmp_path / "x.jsonl", max_files=-1)


class TestResources:
    def test_snapshot_fields_sane(self):
        snap = resource_snapshot(arena_bytes=123, pool={"pool_rebuilds": 1})
        assert snap.rss_bytes > 1024 * 1024  # a live interpreter
        assert snap.minor_faults >= 0 and snap.major_faults >= 0
        assert snap.arena_bytes == 123
        assert snap.pool == {"pool_rebuilds": 1}
        d = snap.to_dict()
        assert json.dumps(d)  # sinkable
        assert d["rss_is_peak"] == (not os.path.exists("/proc/self/statm"))

    def test_faults_monotonic(self):
        minor0, major0 = page_faults()
        _ = bytearray(4 * 1024 * 1024)  # touch fresh pages
        minor1, major1 = page_faults()
        assert minor1 >= minor0 and major1 >= major0

    def test_rss_tracks_allocation_order(self):
        # Not asserting exact deltas (allocator noise); just that the
        # reading is instantaneous-scale, not absurd.
        assert 1024 * 1024 < rss_bytes() < 1 << 40

    def test_poller_sample_once_and_sink(self, tmp_path):
        sink = EventSink(tmp_path / "r.jsonl")
        poller = ResourcePoller(interval_s=60.0, keep=4,
                                extra=lambda: (77, {"pool_rebuilds": 2}),
                                sink=sink)
        for _ in range(6):
            poller.sample_once()
        assert len(poller.samples) == 4  # ring bounded
        assert all(s.arena_bytes == 77 for s in poller.samples)
        sink.close()
        events = read_events(tmp_path / "r.jsonl", kinds=["resource"])
        assert len(events) == 6
        assert events[0]["data"]["pool"] == {"pool_rebuilds": 2}

    def test_poller_survives_failing_extra(self):
        def boom():
            raise RuntimeError("mid-rebuild")

        poller = ResourcePoller(interval_s=60.0, extra=boom)
        snap = poller.sample_once()
        assert snap.arena_bytes == 0 and snap.pool == {}

    def test_poller_thread_start_stop(self):
        poller = ResourcePoller(interval_s=0.01, keep=64)
        with poller:
            import time
            deadline = time.monotonic() + 2.0
            while not poller.samples and time.monotonic() < deadline:
                time.sleep(0.01)
        assert len(poller.samples) >= 1

    def test_timeline_deltas(self):
        snaps = [resource_snapshot() for _ in range(3)]
        rows = timeline(snaps)
        assert "d_rss_bytes" not in rows[0]
        assert all("d_minor_faults" in row for row in rows[1:])

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            ResourcePoller(interval_s=0)
        with pytest.raises(ParameterError):
            ResourcePoller(keep=0)


class TestHistogramQuantile:
    def test_empty_histogram(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_validates_q(self):
        h = Histogram()
        h.observe(10.0)
        with pytest.raises(ParameterError):
            h.quantile(-0.1)
        with pytest.raises(ParameterError):
            h.quantile(1.5)

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_within_one_bucket_of_numpy(self, q):
        rng = np.random.default_rng(42)
        values = rng.lognormal(mean=5.0, sigma=2.0, size=50_000)
        h = Histogram()
        h.observe_array(values)
        est = h.quantile(q)
        exact = float(np.quantile(values, q))
        assert abs(h._bucket(est) - h._bucket(exact)) <= 1

    def test_overflow_bucket_returns_top_bound(self):
        h = Histogram()
        h.observe(10.0 * POW2_BOUNDS[-1])
        assert h.quantile(0.99) == POW2_BOUNDS[-1]

    def test_quantiles_convenience(self):
        h = Histogram()
        h.observe_array(np.arange(1.0, 1000.0))
        q50, q95 = h.quantiles((0.5, 0.95))
        assert 0.0 < q50 <= q95


class TestRegistryEdgeCases:
    def test_merge_unknown_kind_ignored(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        snap = reg.snapshot()
        snap["hyperloglogs"] = {"x": {"whatever": 1}}
        reg2 = MetricsRegistry()
        reg2.merge_snapshot(snap)  # must not raise
        assert reg2.snapshot()["counters"]["a"] == 1

    def test_merge_into_disabled_registry_is_noop(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        disabled = MetricsRegistry(enabled=False)
        disabled.merge_snapshot(reg.snapshot())
        snap = disabled.snapshot()
        assert snap.get("counters", {}) == {}
        assert snap.get("histograms", {}) == {}

    def test_merge_empty_snapshot_is_noop(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        before = reg.snapshot()
        reg.merge_snapshot({})
        assert reg.snapshot() == before


class TestExportersServing:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("engine.queries").inc(7)
        h = reg.histogram("session.query latency-us")  # needs sanitizing
        h.observe_array(np.array([3.0, 40.0, 500.0, 6000.0]))
        return reg.snapshot()

    def test_prometheus_help_lines(self):
        text = metrics_to_prometheus(self._snapshot())
        assert "# HELP repro_engine_queries repro metric engine.queries" \
            in text
        custom = metrics_to_prometheus(
            self._snapshot(),
            help_texts={"engine.queries": "total queries served"})
        assert "# HELP repro_engine_queries total queries served" in custom

    def test_prometheus_name_sanitization(self):
        text = metrics_to_prometheus(self._snapshot())
        # ' ' and '-' are outside [a-zA-Z0-9_:] and must be replaced
        # in metric names (HELP text keeps the raw registry name).
        assert "repro_session_query_latency_us_bucket" in text
        token = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name = line.split()[0].split("{")[0]
            assert token.match(name), line

    def test_prometheus_quantile_gauges(self):
        text = metrics_to_prometheus(self._snapshot())
        for tag in ("p50", "p95", "p99"):
            assert f"repro_session_query_latency_us_{tag} " in text
        # Quantiles can be disabled for scrape-side aggregation.
        bare = metrics_to_prometheus(self._snapshot(), quantiles=None)
        assert "_p50" not in bare

    def test_json_quantiles(self):
        payload = json.loads(metrics_to_json(self._snapshot()))
        hist = payload["histograms"]["session.query latency-us"]
        assert set(hist["quantiles"]) == {"0.5", "0.95", "0.99"}
        assert hist["quantiles"]["0.5"] <= hist["quantiles"]["0.99"]
        raw = json.loads(metrics_to_json(self._snapshot(), quantiles=None))
        assert "quantiles" not in raw["histograms"][
            "session.query latency-us"]


class TestSessionServingTelemetry:
    def test_latency_histograms_always_on(self, instance, spec):
        P, Q = instance.P, instance.Q
        with open_session(P, spec, backend="lsh", seed=5, **LSH) as session:
            for _ in range(3):
                session.query(Q)
            snap = session.metrics.snapshot()
        hists = snap["histograms"]
        assert hists["session.query_latency_us"]["count"] == 3
        assert hists["session.stage_latency_us.lsh"]["count"] == 3
        assert snap["counters"]["session.queries"] == 3

    def test_sample_rate_validation(self, instance, spec):
        P = instance.P
        with pytest.raises(ParameterError):
            open_session(P, spec, backend="lsh", seed=5,
                         trace_sample_rate=1.5, **LSH)

    def test_sampling_leaves_results_identical(self, instance, spec):
        P, Q = instance.P, instance.Q
        expected = join(P, Q, spec, backend="lsh", seed=5, **LSH)
        with open_session(P, spec, backend="lsh", seed=5,
                          trace_sample_rate=1.0, **LSH) as session:
            result = session.query(Q)
            sampled = session.metrics.snapshot()["counters"][
                "session.traces_sampled"]
        assert expected.matched_count > 0
        assert result.matches == expected.matches
        assert result.inner_products_evaluated == \
            expected.inner_products_evaluated
        assert sampled == 1

    def test_attach_sink_end_to_end(self, instance, spec, tmp_path):
        P, Q = instance.P, instance.Q
        path = tmp_path / "telemetry.jsonl"
        with open_session(P, spec, backend="lsh", seed=5,
                          trace_sample_rate=1.0, trace_sample_seed=0,
                          **LSH) as session:
            session.attach_sink(str(path), resource_every=2)
            for _ in range(4):
                session.query(Q)
        events = read_events(path)
        kinds = {e["kind"] for e in events}
        assert {"meta", "span", "planner", "resource", "metrics"} <= kinds
        meta = next(e["data"] for e in events if e["kind"] == "meta")
        assert meta["backend"] == "lsh" and meta["n"] == P.shape[0]
        assert meta["trace_sample_rate"] == 1.0
        spans = [e["data"] for e in events if e["kind"] == "span"]
        assert len(spans) == 4
        assert all(s["name"] == "session.query" for s in spans)
        metrics_events = [e["data"] for e in events if e["kind"] == "metrics"]
        assert "session.query_latency_us" in metrics_events[-1]["histograms"]
        planners = [e["data"] for e in events if e["kind"] == "planner"]
        assert len(planners) == 4

    def test_attach_sink_twice_rejected(self, instance, spec, tmp_path):
        P = instance.P
        with open_session(P, spec, backend="lsh", seed=5, **LSH) as session:
            session.attach_sink(str(tmp_path / "a.jsonl"))
            with pytest.raises(ParameterError):
                session.attach_sink(str(tmp_path / "b.jsonl"))
            session.detach_sink()
            session.attach_sink(str(tmp_path / "b.jsonl"))

    def test_caller_managed_sink_stays_open(self, instance, spec, tmp_path):
        P, Q = instance.P, instance.Q
        sink = EventSink(tmp_path / "shared.jsonl")
        with open_session(P, spec, backend="lsh", seed=5, **LSH) as session:
            session.attach_sink(sink)
            session.query(Q)
        # The session flushed but did not close a sink it does not own.
        sink.emit("meta", {"still": "open"})
        sink.close()
        assert read_events(tmp_path / "shared.jsonl")[-1]["data"] == \
            {"still": "open"}

    def test_poll_resources_lifecycle(self, instance, spec):
        P, Q = instance.P, instance.Q
        with open_session(P, spec, backend="lsh", seed=5, **LSH) as session:
            poller = session.poll_resources(interval_s=0.01, keep=16)
            session.query(Q)
            import time
            deadline = time.monotonic() + 2.0
            while not poller.samples and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(poller.samples) >= 1
        # close() stopped the poller thread.
        assert poller._thread is None

    def test_sampler_cap_knob(self, instance, spec):
        P, Q = instance.P, instance.Q
        with open_session(P, spec, backend="lsh", seed=5,
                          trace_sample_rate=1.0, trace_sample_cap=1,
                          **LSH) as session:
            for _ in range(3):
                session.query(Q)
            stats = session.sampler.stats()
        assert stats["sampled"] == 1 and stats["rate_limited"] == 2


class TestShardedServingTelemetry:
    def test_merged_metrics_snapshot(self, instance, spec):
        P, Q = instance.P, instance.Q
        with open_sharded(P, spec, 3, backend="lsh", seed=5,
                          **LSH) as sharded:
            walls = [sharded.query(Q).wall_s for _ in range(10)]
            snap = sharded.metrics_snapshot()
        # One count and one whole-call latency per sharded call ...
        assert snap["counters"]["session.queries"] == 10
        latency = snap["histograms"]["session.query_latency_us"]
        assert latency["count"] == 10
        assert latency["sum"] == pytest.approx(sum(walls) * 1e6)
        # ... while each shard's stage and chunk walls still merge.
        assert snap["histograms"]["session.stage_latency_us.lsh"]["count"] == 30
        assert snap["histograms"]["session.chunk_latency_us"]["count"] == 30

    def test_shared_sink_across_shards(self, instance, spec, tmp_path):
        P, Q = instance.P, instance.Q
        path = tmp_path / "sharded.jsonl"
        with open_sharded(P, spec, 2, backend="lsh", seed=5,
                          trace_sample_rate=1.0, **LSH) as sharded:
            sharded.attach_sink(str(path))
            sharded.query(Q)
        events = read_events(path)
        metas = [e for e in events if e["kind"] == "meta"]
        spans = [e for e in events if e["kind"] == "span"]
        assert len(metas) == 2  # one per shard
        assert len(spans) == 2  # every shard's query sampled
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)


class TestObsReport:
    """``tools/obs_report.py`` over the rotated sink of a sampled session."""

    def test_report_sections_from_rotated_sink(self, instance, spec, tmp_path,
                                                capsys):
        loader = importlib.util.spec_from_file_location("obs_report",
                                                        OBS_REPORT)
        obs_report = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(obs_report)
        P, Q = instance.P, instance.Q
        path = tmp_path / "obs_sink.jsonl"
        with open_session(P, spec, backend="lsh", seed=5,
                          trace_sample_rate=0.5, trace_sample_seed=1,
                          **LSH) as session:
            session.attach_sink(str(path), max_bytes=4096, max_files=8,
                                resource_every=2)
            for _ in range(8):
                session.query(Q)
            rotations = session._sink.rotations
        assert rotations >= 1 and len(sink_files(path)) >= 2
        histograms = [e["data"]["histograms"] for e in read_events(path)
                      if e["kind"] == "metrics"][-1]
        assert any(name.startswith("session.stage_latency_us.")
                   for name in histograms)

        assert obs_report.main([str(path)]) == 0
        text = capsys.readouterr().out
        for header in ("== latency percentiles", "== planner regret",
                       "== resource timeline", "== sampled spans"):
            assert header in text
        assert "session.query_latency_us" in text
        assert "no metrics snapshots" not in text
        assert "no planner events" not in text
        assert "slowest sampled query" in text

        assert obs_report.main([str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in report["percentiles"]}
        assert "session.query_latency_us" in names
        assert all(row["p50"] <= row["p95"] <= row["p99"]
                   for row in report["percentiles"])
        assert report["planner_records"] >= 1
        assert report["resources"]
        assert 1 <= report["spans"]["sampled"] < 8
