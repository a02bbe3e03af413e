"""Tier-1 smoke for the perf suite: quick mode completes, schema valid.

``tools/bench_perf.py --quick`` is the CI guard for the fast paths: it
runs a seconds-scale shrink of the full n=100k suite, asserts the
equivalence checks inside it, and writes a schema-stable JSON artifact
(the full run's ``BENCH_PR1.json`` lives at the repo root).
"""

import json
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(REPO_ROOT, "tools")


@pytest.fixture(scope="module")
def quick_report(tmp_path_factory):
    sys.path.insert(0, TOOLS)
    try:
        import bench_perf
    finally:
        sys.path.remove(TOOLS)
    out = tmp_path_factory.mktemp("bench") / "bench_quick.json"
    report = bench_perf.main(["--quick", "--out", str(out)])
    return report, out, bench_perf


def test_quick_suite_completes_and_validates(quick_report):
    report, out, bench_perf = quick_report
    assert out.exists()
    on_disk = json.loads(out.read_text())
    bench_perf.validate_schema(on_disk)
    assert on_disk["meta"]["quick"] is True
    assert on_disk["schema"] == bench_perf.SCHEMA


def test_quick_suite_equivalence_checks_pass(quick_report):
    report, _, _ = quick_report
    assert all(report["checks"].values()), report["checks"]


def test_timings_positive(quick_report):
    report, _, _ = quick_report
    for key, value in report["timings"].items():
        if isinstance(value, dict):
            assert all(v > 0 for v in value.values()), key
        else:
            assert value > 0, key


def _load_bench_perf():
    sys.path.insert(0, TOOLS)
    try:
        import bench_perf
    finally:
        sys.path.remove(TOOLS)
    return bench_perf


def test_repo_artifact_when_present():
    """BENCH_PR1.json at the repo root, when checked in, must be valid."""
    path = os.path.join(REPO_ROOT, "BENCH_PR1.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert report["meta"]["n"] == 100_000
    assert report["meta"]["d"] == 64
    assert report["speedups"]["candidates_csr_vs_dict"] >= 5.0
    assert report["checks"]["parallel_matches_identical"]


def test_pr2_artifact_when_present():
    """BENCH_PR2.json (batch hashing / sketch suites), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR2.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    suites = report["meta"]["suites"]
    assert "hash_batch_vs_generic" in suites
    assert "sketch_batch_vs_loop" in suites
    assert report["meta"]["hash_suite"]["n"] == 20_000
    assert report["meta"]["sketch_suite"]["n"] == 20_000
    for name in ("crosspolytope", "e2lsh"):
        assert report["speedups"][f"hash_batch_vs_generic_{name}"] >= 10.0
        assert report["checks"][f"hash_candidates_equal_{name}"]
    assert report["speedups"]["sketch_join_blocked_vs_loop"] >= 5.0
    assert report["checks"]["sketch_join_matches_equal"]
    assert all(report["checks"].values()), report["checks"]


def test_pr3_artifact_when_present():
    """BENCH_PR3.json (planner/dispatch suite), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR3.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert "planner_dispatch" in report["meta"]["suites"]
    assert report["meta"]["planner_suite"]["n"] == 20_000
    picks = report["work"]["planner_picks"]
    assert picks["tiny_signed"] in ("brute_force", "norm_pruned")
    assert picks["large_gap_signed"] in ("lsh", "sketch")
    ceiling = bench_perf.DISPATCH_OVERHEAD_CEILING
    assert report["work"]["dispatch_overhead_brute_force"] <= ceiling
    assert report["work"]["dispatch_overhead_lsh"] <= ceiling
    assert report["checks"]["dispatch_brute_matches_equal"]
    assert report["checks"]["dispatch_lsh_matches_equal"]
    assert all(report["checks"].values()), report["checks"]


def test_pr5_artifact_when_present():
    """BENCH_PR5.json (hybrid plan suite), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR5.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert "hybrid_vs_single" in report["meta"]["suites"]
    assert report["meta"]["hybrid_suite"]["n"] == 30_000
    assert report["speedups"]["hybrid_vs_best_single"] > 1.0
    assert report["work"]["hybrid_coverage_vs_brute"] >= \
        bench_perf.HYBRID_COVERAGE_FLOOR
    assert report["work"]["plan_dispatch_overhead"] <= \
        bench_perf.PLAN_DISPATCH_OVERHEAD_CEILING
    assert report["checks"]["hybrid_backend_is_plan"]
    assert report["checks"]["hybrid_parallel_identical"]
    assert all(report["checks"].values()), report["checks"]


def test_pr6_artifact_when_present():
    """BENCH_PR6.json (zero-copy parallel executor), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR6.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert "parallel_scaling" in report["meta"]["suites"]
    assert report["meta"]["parallel_suite"]["n"] == 40_000
    assert report["checks"]["parallel_modes_identical"]
    scaling = report["speedups"]["parallel_scaling_vs_serial"]
    # Wall-clock scaling assertions are cores-aware: the artifact may
    # have been recorded on a small container, so only enforce the 4w
    # floor when the recording machine actually had >= 4 cores.
    cores = report["work"]["parallel_cpu_count"]
    if cores >= 4 and "4" in scaling["process"]:
        best_4w = max(scaling["process"]["4"], scaling["thread"]["4"])
        assert best_4w >= bench_perf.PARALLEL_4W_SPEEDUP_FLOOR
    assert all(report["checks"].values()), report["checks"]


def test_pr7_artifact_when_present():
    """BENCH_PR7.json (quantized compact tier), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR7.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert "quantized_tier" in report["meta"]["suites"]
    assert report["meta"]["quant_suite"]["n"] == 100_000
    assert report["speedups"]["quant_scan_vs_brute"] >= \
        bench_perf.QUANT_SCAN_SPEEDUP_FLOOR
    assert report["speedups"]["quant_memory_reduction"] >= \
        bench_perf.QUANT_MEMORY_REDUCTION_FLOOR
    assert report["speedups"]["quant_filter_vs_brute"] > 1.0
    assert report["work"]["quant_filter_recall"] >= \
        bench_perf.QUANT_FILTER_RECALL_FLOOR
    assert report["checks"]["quant_matches_equal_brute"]
    assert report["checks"]["quant_parallel_identical"]
    assert report["checks"]["quant_auto_picks_quantized_under_budget"]
    assert all(report["checks"].values()), report["checks"]


def test_pr8_artifact_when_present():
    """BENCH_PR8.json (session engine core), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR8.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert "streaming_session" in report["meta"]["suites"]
    assert report["meta"]["session_suite"]["n"] == 100_000
    assert report["speedups"]["session_reuse_vs_oneshot"] >= \
        bench_perf.SESSION_REUSE_SPEEDUP_FLOOR
    assert (
        report["work"]["session_rss_mmap_load_bytes"]
        <= bench_perf.SESSION_MMAP_RSS_CEILING
        * report["work"]["session_rss_full_load_bytes"]
    )
    assert report["checks"]["session_matches_equal_oneshot"]
    assert report["checks"]["session_stream_bit_identical"]
    assert report["checks"]["session_load_matches_equal"]
    assert all(report["checks"].values()), report["checks"]


def test_pr10_artifact_when_present():
    """BENCH_PR10.json (similarity-measure layer), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR10.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert "jaccard_join" in report["meta"]["suites"]
    assert report["meta"]["jaccard_suite"]["n"] == 20_000
    assert report["work"]["jaccard_minhash_recall"] >= \
        bench_perf.JACCARD_MINHASH_RECALL_FLOOR
    assert report["speedups"]["jaccard_minhash_pair_reduction"] >= 1.0
    assert report["checks"]["jaccard_minhash_sound"]
    assert report["checks"]["jaccard_parallel_identical"]
    assert report["checks"]["jaccard_session_matches_equal"]
    assert report["checks"]["jaccard_stream_bit_identical"]
    assert all(report["checks"].values()), report["checks"]


def test_pr9_artifact_when_present():
    """BENCH_PR9.json (serving telemetry), when checked in."""
    path = os.path.join(REPO_ROOT, "BENCH_PR9.json")
    if not os.path.exists(path):
        pytest.skip("full-suite artifact not generated in this checkout")
    bench_perf = _load_bench_perf()
    with open(path) as handle:
        report = json.load(handle)
    bench_perf.validate_schema(report)
    assert "serving_obs" in report["meta"]["suites"]
    assert report["meta"]["serving_obs_suite"]["n"] == 50_000
    assert (
        report["work"]["serving_obs_overhead_disabled"]
        <= bench_perf.SERVING_OBS_DISABLED_CEILING
    )
    assert (
        report["work"]["serving_obs_overhead_sampled"]
        <= bench_perf.SERVING_OBS_SAMPLED_CEILING
    )
    assert report["checks"]["serving_matches_equal"]
    assert report["checks"]["serving_quantile_within_one_bucket"]
    assert report["checks"]["serving_sink_parseable"]
    assert report["checks"]["serving_sink_rotated"]
    assert all(report["checks"].values()), report["checks"]
