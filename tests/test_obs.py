"""Observability: span tracing, metrics, exporters, planner regret.

Contracts enforced here:

* **Trace shape** — ``repro.engine.join(..., trace=True)`` returns a
  span tree with ``planner``, ``prepare``, per-chunk ``run_chunk``, and
  ``merge`` spans for every backend, serial and parallel, with the
  kernel sub-phases (hash / candidates / verify / scan) underneath.
* **Stitching determinism** — the span-tree *skeleton* and all
  chunk-shipped metric totals are bit-identical across worker counts.
* **Near-zero disabled cost** — untraced joins carry no trace/metrics
  and instrumentation sites return the shared no-op span.
* **Planner telemetry** — every dispatch appends a
  :class:`~repro.obs.planner_log.PlannerRecord`; regret scoring,
  persistence, and :meth:`CostModel.from_planner_log` close the loop.
* **Stats hygiene** — a prebuilt index reused across engine joins
  starts each join with fresh ``QueryStats`` (the reuse-leak
  regression).
"""

import json

import numpy as np
import pytest

from repro.core import JoinSpec
from repro.datasets import planted_mips
from repro.engine import join
from repro.engine.planner import (
    DEFAULT_MODEL,
    CostModel,
    default_model,
    plan_join,
)
from repro.errors import ParameterError
from repro.mips import LSHMIPS
from repro.obs import (
    MetricsRegistry,
    PlannerLog,
    PlannerRecord,
    Span,
    Tracer,
    current_tracer,
    format_pick_distribution,
    format_regret_table,
    metrics_to_json,
    metrics_to_prometheus,
    span,
    trace_summary,
    trace_to_json,
    use_planner_log,
    use_tracer,
)
from repro.obs.metrics import Histogram


@pytest.fixture(scope="module")
def instance():
    return planted_mips(500, 48, 64, s=0.85, c=0.4, seed=7)


BACKEND_CASES = [
    ("brute_force", dict(s=0.85, c=0.4), {}),
    ("norm_pruned", dict(s=0.85, c=0.4), {}),
    ("lsh", dict(s=0.85, c=0.4), {"seed": 1}),
    ("sketch", dict(s=0.85, c=0.4, signed=False), {"seed": 1, "kappa": 3.0}),
]


class TestTracerUnit:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", job=1):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        root = tracer.take()
        assert root.name == "root"
        assert root.attrs == {"job": 1}
        assert root.name_tree() == ("root", (("a", (("a1", ()),)), ("b", ())))
        assert root.duration_ns >= root.child("a").duration_ns
        assert [s.name for s in root.find("a1")] == ["a1"]
        assert tracer.take() is None  # detached

    def test_disabled_tracer_hands_out_noop_span(self):
        tracer = Tracer(enabled=False)
        cm = tracer.span("anything", x=1)
        with cm as s:
            assert s is None
        assert tracer.roots == []
        # All disabled spans are one shared object: no per-site garbage.
        assert tracer.span("other") is cm

    def test_module_level_span_follows_activation(self):
        with span("outside"):
            pass
        assert current_tracer().roots == []  # process default is disabled
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with span("inside"):
                pass
        assert [s.name for s in tracer.roots] == ["inside"]
        assert current_tracer().enabled is False  # restored

    def test_dict_roundtrip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root", n=3):
            with tracer.span("leaf"):
                pass
        root = tracer.take()
        clone = Span.from_dict(root.to_dict())
        assert clone.name_tree() == root.name_tree()
        assert clone.attrs == root.attrs
        assert clone.duration_ns == root.duration_ns


class TestMetricsUnit:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(2.5)
        h = reg.histogram("h")
        h.observe(3)
        h.observe_array(np.array([1, 1, 300], dtype=np.int64))
        assert reg.counter("c").value == 5
        assert reg.gauge("g").value == 2.5
        assert h.count == 4
        assert h.sum == 305
        assert h.mean == pytest.approx(305 / 4)

    def test_histogram_bucketing_matches_scalar_and_array(self):
        a, b = Histogram(), Histogram()
        values = [0, 1, 2, 3, 16, 2 ** 24, 2 ** 24 + 1]
        for v in values:
            a.observe(v)
        b.observe_array(np.array(values, dtype=np.int64))
        assert a.counts == b.counts
        assert a.sum == b.sum

    def test_snapshot_merge_is_exact(self):
        parts = []
        for seed in (1, 2, 3):
            reg = MetricsRegistry()
            reg.counter("n").inc(seed)
            reg.histogram("h").observe_array(np.arange(seed * 10))
            parts.append(reg.snapshot())
        merged = MetricsRegistry()
        for snap in parts:
            merged.merge_snapshot(snap)
        whole = MetricsRegistry()
        whole.counter("n").inc(6)
        whole.histogram("h").observe_array(np.arange(10))
        whole.histogram("h").observe_array(np.arange(20))
        whole.histogram("h").observe_array(np.arange(30))
        assert merged.snapshot() == whole.snapshot()

    def test_mismatched_histogram_bounds_refuse_to_merge(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0, 2.0))
        other = MetricsRegistry()
        other.histogram("h")  # default pow2 bounds
        with pytest.raises(ParameterError, match="layouts disagree"):
            reg.merge_snapshot(other.snapshot())


class TestExporters:
    def _traced(self, instance):
        return join(
            instance.P, instance.Q, JoinSpec(s=0.85, c=0.4),
            backend="lsh", seed=1, trace=True,
        )

    def test_trace_json_roundtrip(self, instance):
        result = self._traced(instance)
        payload = json.loads(trace_to_json(result.trace))
        assert payload["name"] == "engine.join"
        assert Span.from_dict(payload).name_tree() == result.trace.name_tree()

    def test_metrics_json(self, instance):
        result = self._traced(instance)
        payload = json.loads(metrics_to_json(result.metrics))
        assert payload["counters"]["engine.queries"] == instance.Q.shape[0]

    def test_prometheus_text(self, instance):
        result = self._traced(instance)
        text = metrics_to_prometheus(result.metrics)
        assert "# TYPE repro_engine_queries counter" in text
        assert f"repro_engine_queries {instance.Q.shape[0]}" in text
        # Histogram series are cumulative and end at +Inf.
        assert 'le="+Inf"' in text

    def test_trace_summary_mentions_phases(self, instance):
        result = self._traced(instance)
        text = trace_summary(result.trace, result.metrics)
        for name in ("engine.join", "planner", "prepare", "run_chunk", "merge"):
            assert name in text


class TestEngineTraceShape:
    @pytest.mark.parametrize("backend,spec_kw,options", BACKEND_CASES)
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_all_backends_produce_phase_spans(
        self, instance, backend, spec_kw, options, n_workers
    ):
        result = join(
            instance.P, instance.Q, JoinSpec(**spec_kw),
            backend=backend, n_workers=n_workers, block=32, trace=True,
            **options,
        )
        # Tracing observes the join; it must not change its answers.
        plain = join(
            instance.P, instance.Q, JoinSpec(**spec_kw),
            backend=backend, n_workers=n_workers, block=32, **options,
        )
        assert plain.trace is None and plain.matched_count > 0
        assert result.matches == plain.matches
        assert result.inner_products_evaluated == plain.inner_products_evaluated
        root = result.trace
        assert root is not None and root.name == "engine.join"
        assert root.attrs["n_workers"] == n_workers
        names = [c.name for c in root.children]
        assert names.count("planner") == 1
        assert names.count("prepare") == 1
        assert names.count("run") == 1
        assert names.count("merge") == 1
        chunks = root.child("run").find("run_chunk")
        assert len(chunks) == (1 if n_workers == 1 else 2)
        # Chunks tile the query set in order.
        starts = [c.attrs["start"] for c in chunks]
        assert starts == sorted(starts) and starts[0] == 0
        assert sum(c.attrs["n_queries"] for c in chunks) == instance.Q.shape[0]
        assert result.metrics is not None
        assert result.wall_s > 0

    def test_kernel_subphases_present(self, instance):
        lsh = join(
            instance.P, instance.Q, JoinSpec(s=0.85, c=0.4),
            backend="lsh", seed=1, trace=True,
        ).trace
        assert lsh.find("hash")        # query-side hashing
        assert lsh.find("candidates")  # bucket gathering
        assert lsh.find("verify")      # blocked verification
        assert lsh.child("prepare").find("build")  # serial in-trace build
        sketch = join(
            instance.P, instance.Q, JoinSpec(s=0.85, c=0.4, signed=False),
            backend="sketch", seed=1, kappa=3.0, trace=True,
        ).trace
        assert sketch.find("sketch_propose") and sketch.find("verify")
        exact = join(
            instance.P, instance.Q, JoinSpec(s=0.85, c=0.4),
            backend="brute_force", trace=True,
        ).trace
        assert exact.find("scan")

    def test_untraced_join_carries_nothing(self, instance):
        result = join(
            instance.P, instance.Q, JoinSpec(s=0.85, c=0.4),
            backend="brute_force",
        )
        assert result.trace is None
        assert result.metrics is None
        assert result.wall_s > 0  # wall time is always measured

    def test_auto_planner_span_records_ranking(self, instance):
        result = join(
            instance.P, instance.Q, JoinSpec(s=0.85, c=0.4),
            backend="auto", seed=1, trace=True,
        )
        planner = result.trace.child("planner")
        assert planner.attrs["picked"] == result.backend
        ranked = [name for name, _ in planner.attrs["ranking"]]
        assert ranked[0] == result.backend


class TestParallelStitching:
    """Satellite: serial and parallel traces/metrics must agree."""

    @pytest.mark.parametrize("backend,spec_kw,options", BACKEND_CASES)
    def test_metric_totals_bit_identical_across_workers(
        self, instance, backend, spec_kw, options
    ):
        spec = JoinSpec(**spec_kw)
        results = [
            join(
                instance.P, instance.Q, spec, backend=backend,
                n_workers=w, block=16, trace=True, **options,
            )
            for w in (1, 2, 3)
        ]
        assert results[0].matches == results[1].matches == results[2].matches
        snaps = [r.metrics.snapshot() for r in results]
        # Build-phase instruments are recorded where the build runs
        # under observation (the parent, serially); parallel workers
        # build inside the unobserved pool initializer, each producing
        # an identical structure.  Everything shipped via chunks — all
        # counters, and the verify histograms — is bit-identical.
        for snap in snaps[1:]:
            assert snap["counters"] == snaps[0]["counters"]
            for name, payload in snap["histograms"].items():
                assert payload == snaps[0]["histograms"][name]

    def test_chunk_skeletons_deterministic(self, instance):
        spec = JoinSpec(s=0.85, c=0.4)
        runs = [
            join(
                instance.P, instance.Q, spec, backend="lsh",
                seed=5, n_workers=3, block=16, trace=True,
            )
            for _ in range(2)
        ]
        t1, t2 = (r.trace for r in runs)
        assert t1.name_tree() == t2.name_tree()
        # Serial chunk trees have the same shape as each worker's.
        serial = join(
            instance.P, instance.Q, spec, backend="lsh", seed=5, block=16,
            trace=True,
        ).trace
        serial_chunk = serial.child("run").find("run_chunk")[0]
        for chunk in t1.child("run").find("run_chunk"):
            assert {c.name for c in chunk.children} == {
                c.name for c in serial_chunk.children
            }


class TestStatsReuseRegression:
    """A reused prebuilt index must not leak stats across engine joins.

    Per-join ``JoinResult.stats`` are snapshot-diffed deltas; the
    index's own counters stay cumulative across joins (the monitoring
    contract ``tests/test_csr_and_executor.py`` pins).  These tests pin
    the delta side: consecutive joins report identical per-join stats
    no matter what ran on the index in between.
    """

    def test_lshmips_join_reuse_reports_per_join_stats(self, instance):
        eng = LSHMIPS(instance.P * 0.9, seed=0)
        spec = JoinSpec(s=0.6, c=0.5)
        m = instance.Q.shape[0]
        first = join(eng.data, instance.Q, spec, backend="lsh", index=eng.index)
        second = join(eng.data, instance.Q, spec, backend="lsh", index=eng.index)
        # Same work both times: deltas, not cumulative counts.
        assert second.stats == first.stats
        assert second.candidates_generated == first.candidates_generated
        assert first.stats.queries == m
        # The index's own counters keep accumulating across joins.
        assert eng.index.stats.queries == 2 * m

    def test_interleaved_queries_do_not_pollute_join_stats(self, instance):
        eng = LSHMIPS(instance.P * 0.9, seed=0)
        spec = JoinSpec(s=0.6, c=0.5)
        first = join(eng.data, instance.Q, spec, backend="lsh", index=eng.index)
        # Point queries between joins mutate the index's cumulative
        # stats but must not surface in the next join's delta.
        for q in instance.Q[:7]:
            eng.query(q)
        second = join(eng.data, instance.Q, spec, backend="lsh", index=eng.index)
        assert first.matched_count > 0
        assert second.stats == first.stats
        assert second.matches == first.matches

    def test_engine_join_with_prebuilt_index_reports_per_join_stats(
        self, instance
    ):
        from repro.lsh import HyperplaneLSH, LSHIndex

        index = LSHIndex(
            HyperplaneLSH(instance.P.shape[1]), n_tables=8, hashes_per_table=6,
            seed=2,
        ).build(instance.P)
        spec = JoinSpec(s=0.85, c=0.4)
        r1 = join(instance.P, instance.Q, spec, backend="lsh", index=index)
        r2 = join(instance.P, instance.Q, spec, backend="lsh", index=index)
        assert r1.stats == r2.stats
        assert r1.stats.queries == instance.Q.shape[0]
        assert index.stats.queries == 2 * instance.Q.shape[0]


class TestPlannerLog:
    def _sweep(self, instance):
        log = PlannerLog()
        spec = JoinSpec(s=0.85, c=0.4, signed=False)
        with use_planner_log(log):
            for backend in ("brute_force", "norm_pruned", "lsh", "sketch"):
                join(
                    instance.P, instance.Q, spec, backend=backend, seed=1,
                    **({"kappa": 3.0} if backend == "sketch" else {}),
                )
            join(instance.P, instance.Q, spec, backend="auto", seed=1)
        return log

    def test_every_join_is_recorded(self, instance):
        log = self._sweep(instance)
        assert len(log) == 5
        modes = [r.mode for r in log]
        assert modes.count("auto") == 1 and modes.count("explicit") == 4
        auto = [r for r in log if r.mode == "auto"][0]
        assert auto.predicted  # feasible backends were ranked
        assert auto.wall_s > 0
        # All rows describe the same instance (the requested spec, so
        # the sketch's c-substitution cannot fragment the grouping).
        assert len({r.key() for r in log}) == 1

    def test_regret_rows_score_against_fastest(self, instance):
        log = self._sweep(instance)
        rows = log.regret_rows()
        assert len(rows) == 1
        row = rows[0]
        assert set(row.measured) >= {"brute_force", "norm_pruned", "lsh", "sketch"}
        assert row.fastest_s == min(row.measured.values())
        assert row.regret >= 0.0
        table = format_regret_table(log)
        assert "picked fastest" in table and row.picked in table
        dist = format_pick_distribution(log)
        assert row.picked in dist

    def test_regret_table_splits_session_from_one_shot(self, instance):
        from repro.engine import open_session

        log = self._sweep(instance)  # one-shot records only
        spec = JoinSpec(s=0.85, c=0.4, signed=False)
        with use_planner_log(log):
            with open_session(
                instance.P, spec, backend="auto", seed=1, expected_queries=16
            ) as session:
                session.query(instance.Q)
                session.query(instance.Q)
        amortized, one_shot = log.session_counts()
        assert amortized == 2 and one_shot == 5
        # The session filter partitions the auto rows cleanly.
        assert len(log.regret_rows(session=True)) + len(
            log.regret_rows(session=False)
        ) == len(log.regret_rows())
        assert "no session-amortized" not in format_regret_table(
            log, session=True
        )
        assert "picked fastest" in format_regret_table(log, session=False)

    def test_jsonl_roundtrip(self, instance, tmp_path):
        log = self._sweep(instance)
        path = tmp_path / "log.jsonl"
        log.save(path)
        loaded = PlannerLog.load(path)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in log]
        (tmp_path / "bad.jsonl").write_text("not json\n")
        with pytest.raises(ParameterError, match="not a planner record"):
            PlannerLog.load(tmp_path / "bad.jsonl")

    def test_from_planner_log_fits_measured_signals(self, instance):
        log = self._sweep(instance)
        model = CostModel.from_planner_log(log)
        assert model.gemm_op == 1.0
        explicit = {r.picked: r for r in log if r.mode == "explicit"}
        norm = explicit["norm_pruned"]
        assert model.norm_prefix_fraction == pytest.approx(
            min(1.0, norm.evaluated / (norm.n * norm.m))
        )
        lsh = explicit["lsh"]
        assert model.lsh_candidate_fraction == pytest.approx(
            min(1.0, lsh.generated / (lsh.n * lsh.m))
        )

    def test_log_is_bounded(self):
        log = PlannerLog(maxlen=3)
        for i in range(5):
            log.record(
                PlannerRecord(
                    n=i, m=1, d=1, s=0.5, c=0.5, signed=True, variant="join",
                    mode="explicit", picked="brute_force", wall_s=0.1,
                )
            )
        assert len(log) == 3
        assert [r.n for r in log] == [2, 3, 4]


class TestCostModelPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        model = CostModel(gemm_op=1.0, row_op=123.0, norm_prefix_fraction=0.5)
        path = str(tmp_path / "nested" / "costmodel.json")
        model.save(path)
        assert CostModel.load(path) == model
        payload = json.loads(open(path).read())
        assert payload["format"] == "repro-costmodel-v1"

    def test_load_ignores_unknown_keys_rejects_bad_values(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"row_op": 7, "future_field": "x"}))
        assert CostModel.load(str(path)).row_op == 7.0
        path.write_text(json.dumps({"row_op": "fast"}))
        with pytest.raises(ParameterError, match="must be a number"):
            CostModel.load(str(path))

    def test_default_model_env_semantics(self, tmp_path, monkeypatch):
        calibrated = CostModel(row_op=42.0)
        path = str(tmp_path / "costmodel.json")
        calibrated.save(path)
        monkeypatch.setenv("REPRO_COSTMODEL", path)
        assert default_model() == calibrated
        # Empty value: explicit opt-out to the builtin defaults.
        monkeypatch.setenv("REPRO_COSTMODEL", "")
        assert default_model() is DEFAULT_MODEL
        # Missing file: silent fallback, never an error.
        monkeypatch.setenv("REPRO_COSTMODEL", str(tmp_path / "absent.json"))
        assert default_model() is DEFAULT_MODEL
        # Corrupt file: same.
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        monkeypatch.setenv("REPRO_COSTMODEL", str(bad))
        assert default_model() is DEFAULT_MODEL

    def test_auto_join_uses_persisted_model(self, instance, tmp_path, monkeypatch):
        # A model that makes norm_pruned wildly expensive flips the
        # planner's ranking for this instance — proof the persisted
        # calibration actually reaches backend="auto".
        path = str(tmp_path / "costmodel.json")
        CostModel(norm_prefix_fraction=1.0, norm_fixed_build=1e12).save(path)
        n, m, d = instance.P.shape[0], instance.Q.shape[0], instance.P.shape[1]
        spec = JoinSpec(s=0.85, c=0.4)
        monkeypatch.setenv("REPRO_COSTMODEL", "")
        builtin_pick = plan_join(n, m, d, spec).backend
        monkeypatch.setenv("REPRO_COSTMODEL", path)
        assert plan_join(n, m, d, spec).backend != "norm_pruned"
        result = join(instance.P, instance.Q, spec, backend="auto", seed=1)
        assert result.backend != "norm_pruned"
        assert builtin_pick == "norm_pruned"  # the flip was real


class TestHybridTraceShape:
    """Multi-stage plans expose one span per stage, run_chunks labelled."""

    def _hybrid(self, instance, *, n_workers=1, trace=True):
        from repro.engine import norm_prefix_lsh_plan

        return join(
            instance.P, instance.Q, JoinSpec(s=0.85, c=0.4),
            backend=norm_prefix_lsh_plan(prefix_fraction=0.25),
            seed=1, block=32, n_workers=n_workers, trace=trace,
        )

    def test_stage_spans_nest_prepare_run_merge(self, instance):
        root = self._hybrid(instance).trace
        assert root is not None and root.name == "engine.join"
        names = [c.name for c in root.children]
        assert names == ["planner", "stage", "stage", "merge"]
        stages = root.find("stage")
        for i, stage_span in enumerate(stages):
            assert stage_span.attrs["index"] == i
            inner = [c.name for c in stage_span.children]
            assert inner.count("prepare") == 1
            assert inner.count("run") == 1
            assert inner.count("merge") == 1
            assert stage_span.attrs["n"] > 0
        assert stages[0].attrs["backend"] == "norm_pruned"
        assert stages[0].attrs["label"] == "prefix"
        assert stages[0].attrs["points"] == "norm_top"
        assert stages[1].attrs["backend"] == "lsh"
        assert stages[1].attrs["label"] == "tail"
        assert stages[1].attrs["queries"] == "unanswered"
        # Stage 2 only sees what stage 1 left unanswered.
        assert stages[1].attrs["m"] == \
            instance.Q.shape[0] - stages[0].attrs["answered"]
        assert root.child("merge").attrs["stages"] == 2

    def test_stage_run_chunks_carry_stage_label(self, instance):
        root = self._hybrid(instance, n_workers=2).trace
        for stage_span in root.find("stage"):
            chunks = stage_span.child("run").find("run_chunk")
            assert chunks, "each stage shards its query subset"
            for chunk in chunks:
                assert chunk.attrs["stage"] == stage_span.attrs["label"]
            starts = [c.attrs["start"] for c in chunks]
            assert starts == sorted(starts) and starts[0] == 0
            assert sum(c.attrs["n_queries"] for c in chunks) == \
                stage_span.attrs["m"]

    def test_hybrid_trace_serial_parallel_same_shape(self, instance):
        serial = self._hybrid(instance, n_workers=1).trace
        parallel = self._hybrid(instance, n_workers=2).trace
        assert [c.name for c in serial.children] == \
            [c.name for c in parallel.children]
        for a, b in zip(serial.find("stage"), parallel.find("stage")):
            assert a.attrs["answered"] == b.attrs["answered"]
            assert a.attrs["m"] == b.attrs["m"]


class TestPlannerLogStages:
    """Every record carries per-stage attribution rows."""

    def test_single_backend_record_has_one_stage(self, instance):
        log = PlannerLog()
        spec = JoinSpec(s=0.85, c=0.4)
        with use_planner_log(log):
            join(instance.P, instance.Q, spec, backend="norm_pruned")
        (record,) = log.records
        assert len(record.stages) == 1
        stage = record.stages[0]
        assert stage["backend"] == "norm_pruned"
        assert stage["index"] == 0
        assert stage["n"] == instance.P.shape[0]
        assert stage["m"] == instance.Q.shape[0]
        assert stage["wall_s"] == record.wall_s
        assert stage["evaluated"] == record.evaluated

    def test_hybrid_record_attributes_per_stage(self, instance):
        from repro.engine import norm_prefix_lsh_plan

        log = PlannerLog()
        spec = JoinSpec(s=0.85, c=0.4)
        with use_planner_log(log):
            join(
                instance.P, instance.Q, spec,
                backend=norm_prefix_lsh_plan(prefix_fraction=0.25), seed=1,
            )
        (record,) = log.records
        assert record.picked == "norm_pruned+lsh"
        assert [s["backend"] for s in record.stages] == ["norm_pruned", "lsh"]
        assert record.stages[0]["m"] == instance.Q.shape[0]
        assert record.stages[1]["m"] == \
            instance.Q.shape[0] - record.stages[0]["answered"]
        assert sum(s["evaluated"] for s in record.stages) <= record.evaluated
        assert all(s["wall_s"] >= 0 for s in record.stages)
        # Explicit plans carry no predictions.
        assert all("predicted_ops" not in s for s in record.stages)

    def test_auto_hybrid_stages_carry_predicted_ops(self, instance):
        model = CostModel(
            hybrid_prefix_fraction=0.1, hybrid_tail_query_fraction=0.1
        )
        spec = JoinSpec(s=0.9, c=0.7)
        rng = np.random.default_rng(1)
        P, Q = rng.normal(size=(4000, 32)), rng.normal(size=(1000, 32))
        assert plan_join(4000, 1000, 32, spec, model=model).backend == \
            "norm_pruned+lsh"
        log = PlannerLog()
        with use_planner_log(log):
            join(P, Q, spec, backend="auto", model=model, seed=5)
        (record,) = log.records
        assert record.mode == "auto"
        assert record.picked == "norm_pruned+lsh"
        assert len(record.stages) == 2
        for stage in record.stages:
            assert stage["predicted_ops"] > 0
        assert "norm_pruned+lsh" in record.predicted

    def test_stage_rows_and_table(self, instance):
        from repro.engine import norm_prefix_lsh_plan
        from repro.obs import format_stage_table

        log = PlannerLog()
        spec = JoinSpec(s=0.85, c=0.4)
        with use_planner_log(log):
            join(instance.P, instance.Q, spec, backend="brute_force")
            join(
                instance.P, instance.Q, spec,
                backend=norm_prefix_lsh_plan(prefix_fraction=0.25), seed=1,
            )
        rows = log.stage_rows()
        assert len(rows) == 3  # 1 single + 2 hybrid stages
        table = format_stage_table(log)
        assert "norm_pruned+lsh" in table
        assert "prefix" not in table or True  # labels not in table columns
        assert "brute_force" not in table  # single-stage filtered by default
        full = format_stage_table(log, multi_stage_only=False)
        assert "brute_force" in full
        empty = format_stage_table(PlannerLog())
        assert empty == "no multi-stage plans recorded"

    def test_jsonl_roundtrip_preserves_stages(self, instance, tmp_path):
        from repro.engine import norm_prefix_lsh_plan

        log = PlannerLog()
        spec = JoinSpec(s=0.85, c=0.4)
        with use_planner_log(log):
            join(
                instance.P, instance.Q, spec,
                backend=norm_prefix_lsh_plan(prefix_fraction=0.25), seed=1,
            )
        path = tmp_path / "stages.jsonl"
        log.save(path)
        loaded = PlannerLog.load(path)
        assert loaded.records[0].stages == log.records[0].stages
        assert loaded.records[0].to_dict() == log.records[0].to_dict()
