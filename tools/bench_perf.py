"""Seeded perf suite for the fast paths: blocked verify, batch hashing, executor.

Runs a fixed, fully seeded sequence of build / candidate-generation /
verification / join timings and writes the results as JSON (default
``BENCH_PR10.json`` at the repo root), so successive PRs have a recorded
baseline to beat.  Two modes:

* full (default): n=100k, d=64 for the core suite, n=20k, d=64 for the
  batch-hashing and sketch suites; takes a few minutes because the
  reference paths are slow (that is the point).
* ``--quick``: a seconds-scale shrink of the same suites for CI smoke
  (asserts the suites run end to end and the schema is stable).

Suites (select with ``--suites``):

* ``core``: per-query GEMV loop vs the blocked verification kernel
  over LSH candidate lists, ``engine.join`` LSH worker scaling.
* ``hash_batch_vs_generic``: the batch hashing protocol — family-native
  ``hash_matrix`` vs the generic per-row closure path of ``LSHIndex``
  for hyperplane, cross-polytope, and E2LSH, with identical candidate
  sets asserted.  Exits non-zero if a family that should hash natively
  silently fell back to the generic per-row loop.
* ``sketch_batch_vs_loop``: the Section 4.3 sketch join — the blocked
  ``sketch`` backend (batched c-MIPS descents) vs the per-query
  ``SketchCMIPS.query`` loop on a shared structure, identical matches
  asserted.
* ``planner_dispatch``: the unified engine — the cost-model planner's
  backend picks across a small (n, d, spec) grid (sanity-checked:
  small/exact instances pick exact backends, large gapped instances
  pick approximate ones), and the dispatch overhead of
  ``repro.engine.join`` vs calling the underlying kernel directly,
  identical matches asserted.  Full mode fails when the overhead
  exceeds ``DISPATCH_OVERHEAD_CEILING`` (5%).
* ``obs_overhead``: the observability hooks — the instrumented LSH
  kernel (``span()`` calls present, tracing disabled, the default
  state every kernel now runs in) vs an inline span-free twin of the
  same loop, paired interleaved timing, identical matches asserted.
  Full mode fails when the disabled-hook overhead exceeds
  ``OBS_OVERHEAD_CEILING`` (2%).  Also records the informational cost
  of ``trace=True`` through the engine and the per-call price of a
  disabled ``span()``.
* ``hybrid_vs_single``: the Plan IR — a norm-skewed workload (a few
  high-norm hub points in one subspace, a low-norm tail in the
  complementary one) joined by each single backend and by the
  ``norm_prefix_lsh_plan`` hybrid.  Full mode fails unless the hybrid
  beats the best single backend and the one-stage ``Plan`` dispatch
  overhead (vs the string-backend path) stays within
  ``PLAN_DISPATCH_OVERHEAD_CEILING`` (5%).  Both modes assert match
  soundness, near-brute coverage, and serial/parallel bit-identity.
* ``quantized_tier``: the compact index tier — the int8 scan kernel vs
  the ``brute_force`` backend on a planted n=100k join (bit-identical
  matches asserted), index memory reduction vs the float64 matrix,
  serial vs 2-worker bit-identity for the ``quantized`` backend on both
  pool kinds, the ``quantized_filter_plan`` sketch-filter pipeline vs
  brute on a planted d=512 workload (recall and verified-fraction
  recorded), and the planner's compact-tier behavior (a memory budget
  steers ``backend="auto"`` to ``quantized`` live; the
  ``ip_filter+quantized`` hybrid is costed for gapped specs).  Gated in
  both modes: memory reduction >= ``QUANT_MEMORY_REDUCTION_FLOOR`` and
  filter recall >= ``QUANT_FILTER_RECALL_FLOOR`` (both deterministic
  given the seed).  Full mode adds the scan-throughput floor — int8
  scan >= ``QUANT_SCAN_SPEEDUP_FLOOR`` x the brute join wall — and the
  filter pipeline beating brute end to end (quick shapes are too small
  for stable ratios).
* ``streaming_session``: the session-oriented engine core — one
  prepared ``engine.open`` session answering repeated small query
  batches vs the same batches through one-shot ``engine.join`` calls
  (which rebuild the LSH index every call), bit-identical matches
  asserted; a streamed query set over a memmapped file
  (``QuerySource.from_memmap`` through ``session.query_stream``) vs
  the in-memory ``session.query`` on the same rows, bit-identical
  matches asserted; and the saved index (``session.save`` →
  ``engine.open_path``) reloaded in fresh child processes with
  ``mmap=True`` vs the fully-materialized load, resident set recorded
  after the load and again after a probe query.  Full mode gates
  session reuse >= ``SESSION_REUSE_SPEEDUP_FLOOR`` (5x) and the memmap
  child's post-load RSS <= ``SESSION_MMAP_RSS_CEILING`` x the full
  load's.
* ``parallel_scaling``: the zero-copy executor — serial vs the
  shared-memory process pool and the GIL-free thread pool at each
  worker count, all bit-identical by assertion.  The speedup ratios are
  recorded, not gated, except for the full-mode 2.0x @ 4 workers floor
  on machines with >= 4 cores (``work.parallel_cpu_count`` records the
  machine).
* ``jaccard_join``: the similarity-measure layer — the exact
  ``set_scan`` postings join vs the ``minhash_lsh`` filter-then-verify
  backend on a planted Jaccard workload (``measure="jaccard"`` through
  the unchanged engine core).  Gated in both modes (the workload is
  seeded, so the numbers are deterministic): minhash recall of the
  exact answers >= ``JACCARD_MINHASH_RECALL_FLOOR`` and exact-verified
  soundness; serial == 2-worker bit-identity; session ``query`` and
  ``query_stream`` equal to the one-shot join.  Full mode adds the
  pair-pruning check (minhash evaluates fewer pairs than the scan).

Usage::

    PYTHONPATH=src python tools/bench_perf.py [--quick] [--out PATH] \
        [--suites core,hash_batch_vs_generic,sketch_batch_vs_loop,\
planner_dispatch,obs_overhead,hybrid_vs_single,quantized_tier,\
parallel_scaling,streaming_session,jaccard_join]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from typing import Callable, List, Optional

import numpy as np

from repro.core import JoinSpec, close_pools
from repro.core.brute_force import brute_force_join
from repro.core.executor import QuerySource
from repro.core.lsh_join import lsh_filter_verify_chunk
from repro.core.problems import JoinResult
from repro.core.verify import verify_block, verify_candidates
from repro.datasets import jaccard_pair, planted_jaccard_sets, random_unit
from repro.engine import Plan, norm_prefix_lsh_plan, quantized_filter_plan
from repro.engine import open_session
from repro.engine import join as engine_join
from repro.engine import plan_join
from repro.engine.planner import default_model
from repro.quant import quantize_rows, quantized_scan_survivors
from repro.lsh import CrossPolytopeLSH, E2LSH, HyperplaneLSH, LSHIndex
from repro.lsh.index import block_candidates
from repro.obs.metrics import Histogram
from repro.obs.sink import read_events, sink_files
from repro.obs.trace import span
from repro.sketches import SketchCMIPS
from repro.utils.validation import check_matrix

SCHEMA = "repro-bench-perf/v1"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_PR10.json")

ALL_SUITES = ("core", "hash_batch_vs_generic", "sketch_batch_vs_loop",
              "planner_dispatch", "obs_overhead", "serving_obs",
              "hybrid_vs_single", "quantized_tier", "parallel_scaling",
              "streaming_session", "jaccard_join")

FULL = dict(n=100_000, d=64, n_queries=2_000, n_tables=16, bits_per_table=14,
            workers=(1, 2, 4), block=256, seed=2016)
QUICK = dict(n=4_000, d=32, n_queries=256, n_tables=8, bits_per_table=10,
             workers=(1, 2), block=128, seed=2016)

HASH_FULL = dict(n=20_000, d=64, n_queries=2_000, n_tables=8,
                 hashes_per_table=4, seed=2016)
HASH_QUICK = dict(n=1_500, d=32, n_queries=200, n_tables=4,
                  hashes_per_table=3, seed=2016)

SKETCH_FULL = dict(n=20_000, d=64, n_queries=400, kappa=4.0, copies=5,
                   leaf_size=16, s=4.0, block=512, seed=2016)
SKETCH_QUICK = dict(n=1_000, d=32, n_queries=64, kappa=4.0, copies=5,
                    leaf_size=16, s=3.0, block=128, seed=2016)

PLANNER_FULL = dict(n=20_000, d=64, n_queries=1_000, s=0.75, c=0.8,
                    n_tables=8, bits_per_table=10, block=256, repeats=21,
                    seed=2016)
PLANNER_QUICK = dict(n=2_000, d=32, n_queries=200, s=0.75, c=0.8,
                     n_tables=4, bits_per_table=8, block=128, repeats=3,
                     seed=2016)

OBS_FULL = dict(n=50_000, d=64, n_queries=10_000, s=0.75, c=0.8, n_tables=8,
                bits_per_table=10, block=256, repeats=21, seed=2016)
OBS_QUICK = dict(n=2_000, d=32, n_queries=256, s=0.75, c=0.8, n_tables=4,
                 bits_per_table=8, block=128, repeats=3, seed=2016)

HYBRID_FULL = dict(n=30_000, d=32, n_queries=20_000, hub_fraction=0.02,
                   hub_query_fraction=0.85, s=0.8, c=0.5, n_tables=16,
                   hashes_per_table=10, block=256, repeats=2,
                   dispatch_n=4_000, dispatch_queries=512,
                   dispatch_repeats=15, seed=2016)
HYBRID_QUICK = dict(n=3_000, d=32, n_queries=600, hub_fraction=0.02,
                    hub_query_fraction=0.85, s=0.8, c=0.5, n_tables=16,
                    hashes_per_table=10, block=128, repeats=1,
                    dispatch_n=1_500, dispatch_queries=200,
                    dispatch_repeats=3, seed=2016)

QUANT_FULL = dict(n=100_000, d=64, n_queries=2_000, planted=400, rho=0.92,
                  s=0.8, c=0.9, workers=2, block=256, repeats=3,
                  filter_n=20_000, filter_d=512, filter_queries=2_000,
                  filter_planted=400, filter_rho=0.92, filter_dims=128,
                  filter_s=0.85, filter_c=0.7, seed=2016)
QUANT_QUICK = dict(n=8_000, d=64, n_queries=512, planted=64, rho=0.92,
                   s=0.8, c=0.9, workers=2, block=128, repeats=3,
                   filter_n=2_500, filter_d=256, filter_queries=256,
                   filter_planted=40, filter_rho=0.92, filter_dims=64,
                   filter_s=0.85, filter_c=0.7, seed=2016)

PARALLEL_FULL = dict(n=40_000, d=64, n_queries=2_048, n_tables=10,
                     bits_per_table=12, block=256, workers=(2, 4),
                     repeats=2, seed=2016)
PARALLEL_QUICK = dict(n=4_000, d=32, n_queries=384, n_tables=6,
                      bits_per_table=9, block=128, workers=(2,),
                      repeats=3, seed=2016)

SESSION_FULL = dict(n=100_000, d=64, batch=64, batches=50, n_tables=12,
                    hashes_per_table=12, block=256, stream_rows=4096,
                    seed=2016)
SESSION_QUICK = dict(n=4_000, d=32, batch=32, batches=8, n_tables=6,
                     hashes_per_table=9, block=128, stream_rows=512,
                     seed=2016)

SERVING_FULL = dict(n=50_000, d=64, batch=64, batches=120, n_tables=8,
                    hashes_per_table=10, block=256, repeats=9,
                    sample_rate=0.01, sink_cap=65_536, quantile_n=200_000,
                    seed=2016)
SERVING_QUICK = dict(n=3_000, d=32, batch=32, batches=24, n_tables=4,
                     hashes_per_table=8, block=128, repeats=3,
                     sample_rate=0.01, sink_cap=32_768, quantile_n=20_000,
                     seed=2016)

JACCARD_FULL = dict(n=20_000, n_queries=2_000, universe=8_192, mean_size=32,
                    threshold=0.6, block=256, workers=2, repeats=2, seed=2016)
JACCARD_QUICK = dict(n=2_000, n_queries=200, universe=1_024, mean_size=16,
                     threshold=0.6, block=64, workers=2, repeats=1, seed=2016)

#: Full-mode speedup floors; quick mode only checks correctness (the
#: shrunken workloads are too small for stable ratios).
HASH_SPEEDUP_FLOORS = {"crosspolytope": 10.0, "e2lsh": 10.0}
#: The blocked sketch join runs 5-8x the per-query loop on the
#: reference machine, but the *loop* side swings with BLAS/allocator
#: state (recorded runs: 8.4x, 5.2x, 4.5x with an identical blocked
#: wall), so the floor sits below the observed band.
SKETCH_JOIN_SPEEDUP_FLOOR = 4.0
#: Max tolerated relative wall-time overhead of ``repro.engine.join``
#: over calling the underlying kernel directly (full mode only).
DISPATCH_OVERHEAD_CEILING = 0.05
#: Max tolerated relative wall-time overhead of the disabled
#: observability hooks: the instrumented kernel vs a span-free twin of
#: the same loop (full mode only).
OBS_OVERHEAD_CEILING = 0.02
#: Max tolerated relative wall-time overhead of dispatching a
#: one-stage ``Plan`` vs the plain string-backend path (full mode
#: only) — the Plan IR must not tax single-backend joins.
PLAN_DISPATCH_OVERHEAD_CEILING = 0.05
#: Full-mode floor on the hybrid's matched-query coverage relative to
#: brute force (the hybrid's LSH tail is approximate).
HYBRID_COVERAGE_FLOOR = 0.95
#: Full-mode parallel-scaling floor at 4 workers, enforced only on
#: machines with >= 4 cores (``meta.cpu_count`` records the machine a
#: given artifact measured).
PARALLEL_4W_SPEEDUP_FLOOR = 2.0
#: Full-mode floor on int8 scan throughput vs the float64 brute join
#: wall at the same (n, d, queries).  sgemm runs ~2x dgemm on the
#: reference machine and the scan additionally skips brute's per-block
#: match bookkeeping, so the observed band sits at 2.2-2.4x.
QUANT_SCAN_SPEEDUP_FLOOR = 2.0
#: Index bytes floor, both modes: float64 rows vs the int8 codes +
#: per-row float64 (scale, norm, eps) metadata — 8d / (d + 24), i.e.
#: 5.8x at d=64.  Deterministic, so no measurement slack is needed.
QUANT_MEMORY_REDUCTION_FLOOR = 4.0
#: Both-modes floor on the sketch-filter pipeline's recall of brute's
#: answered queries (the z=3 margin targets ~none lost; the planted
#: workload is seeded, so the observed recall is deterministic).
QUANT_FILTER_RECALL_FLOOR = 0.99
#: Full-mode floor on session reuse: 50 repeated small query batches
#: through one prepared ``engine.open`` session vs the same batches as
#: one-shot ``engine.join`` calls, which rebuild the LSH index every
#: call.  Build dominates the one-shot wall at n=100k, so the observed
#: ratio approaches the batch count; 5x leaves a wide margin.
SESSION_REUSE_SPEEDUP_FLOOR = 5.0
#: Full-mode ceiling on the memmap-loaded session's post-load RSS
#: relative to the fully-materialized load of the same saved index
#: (fresh child processes, ``/proc/self/statm``).  The mmap load maps
#: sidecar pages lazily, so right after ``open_path`` its resident set
#: is the interpreter baseline; the full load has every array in
#: anonymous memory.
SESSION_MMAP_RSS_CEILING = 0.85
#: Max tolerated relative wall-time overhead of the session serving
#: telemetry (always-on latency histograms, sampler consult, sink gate)
#: with sampling disabled, vs the pre-PR ``query()`` body — validate the
#: batch, dispatch, bump the counters — replayed on the same session
#: (full mode only).
SERVING_OBS_DISABLED_CEILING = 0.02
#: Same pair with ``trace_sample_rate=0.01``: roughly 1 in 100 batches
#: pays the full span-tracer cost, so the amortized ceiling is looser
#: (full mode only).
SERVING_OBS_SAMPLED_CEILING = 0.05
#: Both-modes floor on ``minhash_lsh`` recall of the exact ``set_scan``
#: answers on the planted Jaccard workload.  The default banding (L=32
#: tables of k=4 hashes) collides a true J=0.6 pair in ~98.9% of
#: queries per size partition, and the workload is seeded, so the
#: observed recall is deterministic and sits above the floor.
JACCARD_MINHASH_RECALL_FLOOR = 0.95


def _timed(fn: Callable, repeats: int = 1):
    """Best-of-``repeats`` wall time; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _timed_pair(fn_a: Callable, fn_b: Callable, repeats: int = 1):
    """Best-of wall times for two functions with interleaved repetitions.

    Alternating a/b within each repetition keeps slow machine-load drift
    from landing entirely on one side of the ratio, and alternating
    which side runs *first* across repetitions cancels position bias
    (the first run of a round pays cold caches / allocator growth for
    both) — essential when the quantity of interest (dispatch or
    observability overhead) is a few percent.
    Returns (seconds_a, seconds_b, last_result_a, last_result_b).
    """
    best = {"a": float("inf"), "b": float("inf")}
    results = {"a": None, "b": None}
    labelled = (("a", fn_a), ("b", fn_b))
    for i in range(repeats):
        for label, fn in labelled if i % 2 == 0 else labelled[::-1]:
            start = time.perf_counter()
            results[label] = fn()
            best[label] = min(best[label], time.perf_counter() - start)
    return best["a"], best["b"], results["a"], results["b"]


def _median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _timed_pair_median(fn_a: Callable, fn_b: Callable, repeats: int = 1):
    """:func:`_timed_pair` plus a drift-robust overhead estimate.

    Returns ``(sec_a, sec_b, overhead, res_a, res_b)`` where ``sec_*``
    are best-of walls (fed to the timings/speedups report as before) and
    ``overhead`` is the MEDIAN of the per-round ``b/a - 1`` ratios.  The
    few-percent overhead ceilings cannot ride the best-of ratio: the two
    minima are taken independently, so each is biased by whichever round
    caught the quietest scheduler window, and on a busy shared box that
    bias (observed at +-10% on half-second legs) dwarfs the quantity
    under test.  Within one round the two legs run back to back, so the
    per-round ratio is drift-paired and its median converges on the true
    overhead.
    """
    best = {"a": float("inf"), "b": float("inf")}
    results = {"a": None, "b": None}
    ratios = []
    labelled = (("a", fn_a), ("b", fn_b))
    for i in range(repeats):
        round_s = {}
        for label, fn in labelled if i % 2 == 0 else labelled[::-1]:
            start = time.perf_counter()
            results[label] = fn()
            round_s[label] = time.perf_counter() - start
            best[label] = min(best[label], round_s[label])
        ratios.append(round_s["b"] / round_s["a"] - 1.0)
    return best["a"], best["b"], _median(ratios), results["a"], results["b"]


def _paired_batch_overhead(call_a: Callable, call_b: Callable, items,
                           repeats: int = 1):
    """Per-item interleaved paired timing of two single-item callables.

    Runs ``call_a(item)`` and ``call_b(item)`` adjacent for every item —
    alternating which side goes first per item and per round — and sums
    each side's walls within a round.  Pairing at the single-call scale
    (milliseconds) instead of the leg scale (seconds) keeps machine-load
    drift correlated across the sides, which tightens the per-round
    ratio enough for a 2% ceiling; the reported overhead is the median
    round ratio of ``b`` over ``a`` (see :func:`_timed_pair_median` for
    why best-of ratios are unusable here).
    Returns ``(sec_a, sec_b, overhead, results_a, results_b)`` with
    ``sec_*`` the best round sums and ``results_*`` the last round's
    per-item results.
    """
    best = {"a": float("inf"), "b": float("inf")}
    results = {"a": None, "b": None}
    ratios = []
    for i in range(repeats):
        round_s = {"a": 0.0, "b": 0.0}
        round_res = {"a": [], "b": []}
        labelled = (("a", call_a), ("b", call_b))
        for j, item in enumerate(items):
            for label, call in labelled if (i + j) % 2 == 0 else labelled[::-1]:
                start = time.perf_counter()
                out = call(item)
                round_s[label] += time.perf_counter() - start
                round_res[label].append(out)
        for label in ("a", "b"):
            best[label] = min(best[label], round_s[label])
            results[label] = round_res[label]
        ratios.append(round_s["b"] / round_s["a"] - 1.0)
    return best["a"], best["b"], _median(ratios), results["a"], results["b"]


def _hyperplane_recipe(d: int, cfg: dict, seed: int) -> dict:
    """``lsh`` backend options for a hyperplane index of ``cfg``'s shape."""
    return dict(family=HyperplaneLSH(d), n_tables=cfg["n_tables"],
                hashes_per_table=cfg["bits_per_table"], seed=seed)


def _hyperplane_index(P, cfg: dict, seed: int) -> LSHIndex:
    recipe = _hyperplane_recipe(P.shape[1], cfg, seed)
    return LSHIndex(recipe.pop("family"), **recipe).build(P)


def _assert_same_candidates(a: List[np.ndarray], b: List[np.ndarray]) -> bool:
    if len(a) != len(b):
        return False
    return all(np.array_equal(x, y) for x, y in zip(a, b))


def _run_hash_suite(quick: bool, timings: dict, speedups: dict,
                    work: dict, checks: dict) -> dict:
    """Family-native batch hashing vs the generic per-row closure path."""
    cfg = HASH_QUICK if quick else HASH_FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    tables, k, seed = cfg["n_tables"], cfg["hashes_per_table"], cfg["seed"]
    print(f"[bench_perf] hash suite: n={n} d={d} L={tables} k={k}", flush=True)
    P = random_unit(n, d, seed=seed) * 0.95
    Q = random_unit(nq, d, seed=seed + 1) * 0.95
    families = {
        "hyperplane": HyperplaneLSH(d),
        "crosspolytope": CrossPolytopeLSH(d),
        "e2lsh": E2LSH(d, w=2.0),
    }
    for name, family in families.items():
        print(f"[bench_perf] hash: {name} batch vs generic ...", flush=True)
        batch_index = LSHIndex(family, n_tables=tables, hashes_per_table=k,
                               seed=seed + 2)
        generic_index = LSHIndex(family, n_tables=tables, hashes_per_table=k,
                                 seed=seed + 2, use_batch=False)
        # A family advertised as native must actually hash natively; a
        # silent fallback to the per-row loop is a failed check (and a
        # non-zero exit).
        checks[f"hash_native_path_{name}"] = batch_index.uses_batch_hashing
        batch_s, _ = _timed(
            lambda idx=batch_index: idx._hasher.hash_matrix(P, side="data"),
            repeats=3)
        generic_s, _ = _timed(
            lambda idx=generic_index: idx._hasher.hash_matrix(P, side="data"))
        timings[f"hash_batch_{name}_s"] = batch_s
        timings[f"hash_generic_{name}_s"] = generic_s
        speedups[f"hash_batch_vs_generic_{name}"] = generic_s / batch_s
        batch_index.build(P)
        generic_index.build(P)
        batch_cands = batch_index.candidates_batch(Q)
        generic_cands = generic_index.candidates_batch(Q)
        checks[f"hash_candidates_equal_{name}"] = _assert_same_candidates(
            batch_cands, generic_cands)
        work[f"hash_candidates_per_query_{name}"] = (
            batch_index.stats.candidates_per_query)
        if not quick and name in HASH_SPEEDUP_FLOORS:
            checks[f"hash_speedup_floor_{name}"] = (
                speedups[f"hash_batch_vs_generic_{name}"]
                >= HASH_SPEEDUP_FLOORS[name])
    return cfg


def _sketch_loop_join(P, Q, s: float, structure: SketchCMIPS,
                      block: int) -> JoinResult:
    """The pre-batch reference: one ``SketchCMIPS.query`` per query."""
    spec = JoinSpec(s=s, c=structure.approximation_factor, signed=False)
    evaluated = 0
    proposals = []
    empty = np.empty(0, dtype=np.int64)
    for q in Q:
        answer = structure.query(q)
        evaluated += structure.recovery.query_cost() // max(1, P.shape[1])
        proposals.append(
            np.array([answer.index], dtype=np.int64) if answer.index >= 0 else empty
        )
    matches, _ = verify_candidates(
        P, Q, proposals, threshold=spec.cs, signed=False, block=block
    )
    return JoinResult(
        matches=matches,
        spec=spec,
        inner_products_evaluated=evaluated,
        candidates_generated=len(matches),
    )


def _run_sketch_suite(quick: bool, timings: dict, speedups: dict,
                      work: dict, checks: dict) -> dict:
    """Blocked sketch join (batched c-MIPS descents) vs the query loop."""
    cfg = SKETCH_QUICK if quick else SKETCH_FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    seed, s, block = cfg["seed"], cfg["s"], cfg["block"]
    print(f"[bench_perf] sketch suite: n={n} d={d} queries={nq} "
          f"kappa={cfg['kappa']}", flush=True)
    rng = np.random.default_rng(seed)
    P = rng.normal(size=(n, d))
    Q = rng.normal(size=(nq, d))
    print("[bench_perf] sketch: building structure ...", flush=True)
    build_s, structure = _timed(lambda: SketchCMIPS(
        P, kappa=cfg["kappa"], copies=cfg["copies"],
        leaf_size=cfg["leaf_size"], seed=seed + 2))
    print("[bench_perf] sketch: join loop vs blocked ...", flush=True)
    loop_s, loop_result = _timed(
        lambda: _sketch_loop_join(P, Q, s, structure, block))
    blocked_s, blocked_result = _timed(
        lambda: engine_join(P, Q, JoinSpec(s=s, signed=False),
                            backend="sketch", structure=structure,
                            block=block), repeats=2)
    print("[bench_perf] sketch: query_batch vs query loop ...", flush=True)
    query_loop_s, loop_answers = _timed(
        lambda: [structure.query(q) for q in Q])
    query_batch_s, batch_answers = _timed(
        lambda: structure.query_batch(Q), repeats=2)
    timings["sketch_build_s"] = build_s
    timings["sketch_join_loop_s"] = loop_s
    timings["sketch_join_blocked_s"] = blocked_s
    timings["sketch_query_loop_s"] = query_loop_s
    timings["sketch_query_batch_s"] = query_batch_s
    speedups["sketch_join_blocked_vs_loop"] = loop_s / blocked_s
    speedups["sketch_query_batch_vs_loop"] = query_loop_s / query_batch_s
    work["sketch_join_matched"] = blocked_result.matched_count
    work["sketch_join_inner_products_evaluated"] = (
        blocked_result.inner_products_evaluated)
    checks["sketch_join_matches_equal"] = (
        blocked_result.matches == loop_result.matches
        and blocked_result.inner_products_evaluated
        == loop_result.inner_products_evaluated)
    checks["sketch_query_indices_equal"] = (
        [int(i) for i in batch_answers.indices]
        == [a.index for a in loop_answers])
    if not quick:
        checks["sketch_join_speedup_floor"] = (
            speedups["sketch_join_blocked_vs_loop"] >= SKETCH_JOIN_SPEEDUP_FLOOR)
    return cfg


#: Exact backends: a planner pick from this set means "no approximation".
_EXACT_BACKENDS = ("brute_force", "norm_pruned")

#: Dimension-only planner grid: (label, n, m, d, spec).  No data is
#: materialized; ``plan_join`` ranks backends from the cost model alone.
_PLANNER_GRID = (
    ("tiny_signed", 200, 100, 32, JoinSpec(s=0.8, c=0.5)),
    ("exact_demand_c1", 50_000, 50_000, 64, JoinSpec(s=0.8, c=1.0)),
    ("large_gap_signed", 2_000_000, 2_000_000, 32, JoinSpec(s=0.9, c=0.3)),
    ("large_gap_unsigned", 2_000_000, 2_000_000, 32,
     JoinSpec(s=0.9, c=0.3, signed=False)),
    ("topk_small", 5_000, 500, 32, JoinSpec(s=0.3, c=0.9, k=4)),
)


def _run_planner_suite(quick: bool, timings: dict, speedups: dict,
                       work: dict, checks: dict) -> dict:
    """Planner picks over a (n, m, d, spec) grid + engine dispatch overhead."""
    cfg = PLANNER_QUICK if quick else PLANNER_FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    seed, block, repeats = cfg["seed"], cfg["block"], cfg["repeats"]
    print(f"[bench_perf] planner suite: n={n} d={d} queries={nq} "
          f"repeats={repeats}", flush=True)

    # --- planner picks (dimension-only, no data) ----------------------
    picks = {}
    for label, gn, gm, gd, gspec in _PLANNER_GRID:
        plan = plan_join(gn, gm, gd, gspec)
        picks[label] = plan.backend
    work["planner_picks"] = picks
    checks["planner_tiny_picks_exact"] = picks["tiny_signed"] in _EXACT_BACKENDS
    checks["planner_exact_demand_picks_exact"] = (
        picks["exact_demand_c1"] in _EXACT_BACKENDS)
    checks["planner_large_gap_picks_approximate"] = (
        picks["large_gap_signed"] in ("lsh", "sketch")
        and picks["large_gap_unsigned"] in ("lsh", "sketch"))

    # --- dispatch overhead: engine.join vs the bare kernel ------------
    spec = JoinSpec(s=cfg["s"], c=cfg["c"])
    P = random_unit(n, d, seed=seed) * 0.95
    Q = random_unit(nq, d, seed=seed + 1) * 0.95

    print("[bench_perf] dispatch: brute_force engine vs kernel ...", flush=True)
    (direct_brute_s, engine_brute_s, overhead_brute,
     direct_brute, engine_brute) = _timed_pair_median(
        lambda: brute_force_join(P, Q, spec, block=block),
        lambda: engine_join(P, Q, spec, backend="brute_force", block=block),
        repeats=repeats)

    print("[bench_perf] dispatch: lsh engine vs kernel ...", flush=True)
    index = _hyperplane_index(P, cfg, seed + 2)
    (direct_lsh_s, engine_lsh_s, overhead_lsh,
     direct_lsh, engine_lsh) = _timed_pair_median(
        lambda: lsh_filter_verify_chunk(index, P, Q, True, spec.cs, 0, block),
        lambda: engine_join(P, Q, spec, backend="lsh", index=index, block=block),
        repeats=repeats)
    timings["dispatch_brute_kernel_s"] = direct_brute_s
    timings["dispatch_brute_engine_s"] = engine_brute_s
    timings["dispatch_lsh_kernel_s"] = direct_lsh_s
    timings["dispatch_lsh_engine_s"] = engine_lsh_s
    speedups["engine_vs_kernel_brute_force"] = direct_brute_s / engine_brute_s
    speedups["engine_vs_kernel_lsh"] = direct_lsh_s / engine_lsh_s
    work["dispatch_overhead_brute_force"] = overhead_brute
    work["dispatch_overhead_lsh"] = overhead_lsh
    work["dispatch_matched"] = engine_brute.matched_count
    checks["dispatch_brute_matches_equal"] = (
        engine_brute.matches == direct_brute.matches
        and engine_brute.inner_products_evaluated
        == direct_brute.inner_products_evaluated)
    checks["dispatch_lsh_matches_equal"] = (
        engine_lsh.matches == direct_lsh[0]
        and engine_lsh.inner_products_evaluated == direct_lsh[1])
    if not quick:
        checks["dispatch_overhead_brute_within_ceiling"] = (
            overhead_brute <= DISPATCH_OVERHEAD_CEILING)
        checks["dispatch_overhead_lsh_within_ceiling"] = (
            overhead_lsh <= DISPATCH_OVERHEAD_CEILING)
    return cfg


def _lsh_chunk_span_free(index, P, Q_chunk, signed: bool, cs: float,
                         block: int):
    """:func:`lsh_filter_verify_chunk` with the ``span()`` calls removed.

    Kept line-for-line in sync with the kernel so the timed pair differs
    only in the observability hooks — the quantity the ``obs_overhead``
    suite exists to bound.
    """
    before = index.stats.copy()
    matches: List[Optional[int]] = []
    verified = 0
    for q0 in range(0, Q_chunk.shape[0], block):
        Q_block = Q_chunk[q0:q0 + block]
        cand_lists = block_candidates(index, Q_block, 0)
        result = verify_block(P, Q_block, cand_lists, signed=signed)
        verified += result.n_evaluated
        matches.extend(
            int(idx) if idx >= 0 and score >= cs else None
            for idx, score in zip(result.best_index, result.best_score)
        )
    delta = index.stats.diff(before)
    return matches, verified, delta.candidates, delta


def _run_obs_suite(quick: bool, timings: dict, speedups: dict,
                   work: dict, checks: dict) -> dict:
    """Cost of the observability hooks, disabled (ceiling) and enabled."""
    cfg = OBS_QUICK if quick else OBS_FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    seed, block, repeats = cfg["seed"], cfg["block"], cfg["repeats"]
    print(f"[bench_perf] obs suite: n={n} d={d} queries={nq} "
          f"repeats={repeats}", flush=True)
    spec = JoinSpec(s=cfg["s"], c=cfg["c"])
    P = random_unit(n, d, seed=seed) * 0.95
    Q = random_unit(nq, d, seed=seed + 1) * 0.95
    index = _hyperplane_index(P, cfg, seed + 2)

    # --- disabled hooks: instrumented kernel vs span-free twin --------
    print("[bench_perf] obs: instrumented kernel vs span-free twin ...",
          flush=True)
    bare_s, hooked_s, overhead_disabled, bare, hooked = _timed_pair_median(
        lambda: _lsh_chunk_span_free(index, P, Q, True, spec.cs, block),
        lambda: lsh_filter_verify_chunk(index, P, Q, True, spec.cs, 0, block),
        repeats=repeats)

    # --- enabled hooks: traced vs untraced engine join (informational)
    print("[bench_perf] obs: engine join traced vs untraced ...", flush=True)
    untraced_s, traced_s, untraced, traced = _timed_pair(
        lambda: engine_join(P, Q, spec, backend="lsh", index=index,
                            block=block),
        lambda: engine_join(P, Q, spec, backend="lsh", index=index,
                            block=block, trace=True),
        repeats=repeats)
    overhead_traced = traced_s / untraced_s - 1.0

    # --- microbench: per-call price of a disabled span() --------------
    calls = 20_000 if quick else 200_000
    span_s, _ = _timed(
        lambda: [span("bench") for _ in range(calls)], repeats=3)

    timings["obs_kernel_span_free_s"] = bare_s
    timings["obs_kernel_instrumented_s"] = hooked_s
    timings["obs_engine_untraced_s"] = untraced_s
    timings["obs_engine_traced_s"] = traced_s
    timings["obs_span_disabled_ns"] = span_s / calls * 1e9
    speedups["obs_span_free_vs_instrumented"] = hooked_s / bare_s
    work["obs_overhead_disabled"] = overhead_disabled
    work["obs_overhead_traced"] = overhead_traced
    def count_spans(node):
        return 1 + sum(count_spans(c) for c in node.children)

    work["obs_traced_span_count"] = (
        count_spans(traced.trace) if traced.trace is not None else 0)
    checks["obs_matches_equal"] = (
        hooked[0] == bare[0] and hooked[1] == bare[1]
        and traced.matches == untraced.matches
        and traced.matches == hooked[0])
    checks["obs_trace_present_when_requested"] = (
        traced.trace is not None and untraced.trace is None)
    if not quick:
        checks["obs_overhead_disabled_within_ceiling"] = (
            overhead_disabled <= OBS_OVERHEAD_CEILING)
    return cfg


def _norm_skewed_workload(n: int, m: int, d: int, hub_fraction: float,
                          hub_query_fraction: float, seed: int):
    """A workload built for two-stage plans: hubs + an orthogonal tail.

    A ``hub_fraction`` of the points are norm-2.0 "hubs" living in the
    first ``d // 4`` dimensions; the rest are norm-0.5 tail points in
    the complementary subspace, so the two populations have zero inner
    product across groups.  Queries are unit vectors: hub queries align
    with a planted hub (inner product ~2), tail queries plant a tail
    match at ``0.5 * 0.9 = 0.45``.  With ``cs = 0.4`` the norm-prefix
    stage answers every hub query from ``hub_fraction * n`` points,
    while ``norm_pruned`` alone can never stop early on a tail query
    (``0.5 * 1 > cs``) and full-scans it — the regime hybrids exist
    for.  Returns ``(P, Q, d_hub)``.
    """
    rng = np.random.default_rng(seed)
    n_hub = max(1, int(round(hub_fraction * n)))
    d_hub = d // 4
    d_tail = d - d_hub
    P = np.zeros((n, d))
    H = rng.normal(size=(n_hub, d_hub))
    P[:n_hub, :d_hub] = 2.0 * H / np.linalg.norm(H, axis=1, keepdims=True)
    T = rng.normal(size=(n - n_hub, d_tail))
    P[n_hub:, d_hub:] = 0.5 * T / np.linalg.norm(T, axis=1, keepdims=True)

    m_hub = int(round(hub_query_fraction * m))
    Q = np.zeros((m, d))
    hub_targets = rng.integers(0, n_hub, m_hub)
    Qh = P[hub_targets, :d_hub] / 2.0 + 0.05 * rng.normal(size=(m_hub, d_hub))
    Q[:m_hub, :d_hub] = Qh / np.linalg.norm(Qh, axis=1, keepdims=True)
    tail_targets = rng.integers(n_hub, n, m - m_hub)
    U = P[tail_targets, d_hub:] / 0.5
    W = rng.normal(size=(m - m_hub, d_tail))
    W -= np.einsum("ij,ij->i", W, U)[:, None] * U
    W /= np.linalg.norm(W, axis=1, keepdims=True)
    Q[m_hub:, d_hub:] = 0.9 * U + np.sqrt(1.0 - 0.9 ** 2) * W
    return P, Q, d_hub


def _run_hybrid_suite(quick: bool, timings: dict, speedups: dict,
                      work: dict, checks: dict) -> dict:
    """Hybrid plan vs every single backend on the norm-skewed workload."""
    cfg = HYBRID_QUICK if quick else HYBRID_FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    seed, block, repeats = cfg["seed"], cfg["block"], cfg["repeats"]
    print(f"[bench_perf] hybrid suite: n={n} d={d} queries={nq} "
          f"hubs={cfg['hub_fraction']:g}", flush=True)
    P, Q, _ = _norm_skewed_workload(
        n, nq, d, cfg["hub_fraction"], cfg["hub_query_fraction"], seed)
    spec = JoinSpec(s=cfg["s"], c=cfg["c"])
    lsh_options = dict(n_tables=cfg["n_tables"],
                       hashes_per_table=cfg["hashes_per_table"])
    plan = norm_prefix_lsh_plan(prefix_fraction=cfg["hub_fraction"],
                                tail_options=lsh_options)

    singles = {}
    results = {}
    print("[bench_perf] hybrid: timing single backends ...", flush=True)
    singles["brute_force"], results["brute_force"] = _timed(
        lambda: engine_join(P, Q, spec, backend="brute_force", block=block),
        repeats=repeats)
    singles["norm_pruned"], results["norm_pruned"] = _timed(
        lambda: engine_join(P, Q, spec, backend="norm_pruned", block=block),
        repeats=repeats)
    singles["lsh"], results["lsh"] = _timed(
        lambda: engine_join(P, Q, spec, backend="lsh", block=block,
                            seed=seed + 3, **lsh_options),
        repeats=repeats)
    print("[bench_perf] hybrid: timing norm_pruned+lsh plan ...", flush=True)
    hybrid_s, hybrid = _timed(
        lambda: engine_join(P, Q, spec, backend=plan, block=block,
                            seed=seed + 3),
        repeats=repeats)
    hybrid_parallel = engine_join(P, Q, spec, backend=plan, block=block,
                                  seed=seed + 3, n_workers=2)

    best_single = min(singles, key=lambda name: singles[name])
    matched = {name: r.matched_count for name, r in results.items()}
    matched["hybrid"] = hybrid.matched_count
    sound = all(
        float(P[mi] @ Q[qi]) >= spec.cs - 1e-9
        for qi, mi in enumerate(hybrid.matches) if mi is not None
    )

    timings["hybrid_plan_s"] = hybrid_s
    for name, secs in singles.items():
        timings[f"hybrid_single_{name}_s"] = secs
    speedups["hybrid_vs_best_single"] = singles[best_single] / hybrid_s
    work["hybrid_matched"] = matched
    work["hybrid_best_single"] = best_single
    work["hybrid_coverage_vs_brute"] = (
        matched["hybrid"] / max(1, matched["brute_force"]))
    checks["hybrid_backend_is_plan"] = hybrid.backend == "norm_pruned+lsh"
    checks["hybrid_matches_sound"] = sound
    checks["hybrid_coverage_floor"] = (
        work["hybrid_coverage_vs_brute"] >= HYBRID_COVERAGE_FLOOR)
    checks["hybrid_parallel_identical"] = (
        hybrid_parallel.matches == hybrid.matches
        and hybrid_parallel.inner_products_evaluated
        == hybrid.inner_products_evaluated)
    if not quick:
        checks["hybrid_beats_best_single"] = (
            speedups["hybrid_vs_best_single"] > 1.0)

    # --- one-stage Plan dispatch vs the string-backend path -----------
    print("[bench_perf] hybrid: one-stage Plan dispatch overhead ...",
          flush=True)
    dn, dm = cfg["dispatch_n"], cfg["dispatch_queries"]
    Pd, Qd = P[:dn], Q[:dm]
    one_stage = Plan.single("lsh", lsh_options)
    string_s, plan_s, overhead, by_string, by_plan = _timed_pair_median(
        lambda: engine_join(Pd, Qd, spec, backend="lsh", block=block,
                            seed=seed + 4, **lsh_options),
        lambda: engine_join(Pd, Qd, spec, backend=one_stage, block=block,
                            seed=seed + 4),
        repeats=cfg["dispatch_repeats"])
    timings["hybrid_dispatch_string_s"] = string_s
    timings["hybrid_dispatch_plan_s"] = plan_s
    work["plan_dispatch_overhead"] = overhead
    checks["plan_dispatch_matches_equal"] = (
        by_plan.matches == by_string.matches
        and by_plan.inner_products_evaluated
        == by_string.inner_products_evaluated)
    if not quick:
        checks["plan_dispatch_overhead_within_ceiling"] = (
            overhead <= PLAN_DISPATCH_OVERHEAD_CEILING)
    return cfg


def _planted_instance(n: int, d: int, nq: int, planted: int, rho: float,
                      seed: int):
    """Planted IPS join workload: 0.95-scaled unit rows where the first
    ``planted`` queries get a partner at true inner product ``rho *
    0.95**2`` (the rest follow the random-pair cosine concentration, so
    a threshold above the bulk leaves exactly the planted matches)."""
    P = random_unit(n, d, seed=seed)
    Q = random_unit(nq, d, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    idx = rng.choice(n, size=planted, replace=False)
    noise = rng.standard_normal((planted, d))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    Q[:planted] = rho * P[idx] + math.sqrt(1.0 - rho * rho) * noise
    Q[:planted] /= np.linalg.norm(Q[:planted], axis=1, keepdims=True)
    return P * 0.95, Q * 0.95


def _run_quant_suite(quick: bool, timings: dict, speedups: dict,
                     work: dict, checks: dict) -> dict:
    cfg = QUANT_QUICK if quick else QUANT_FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    seed, block, repeats = cfg["seed"], cfg["block"], cfg["repeats"]
    print(f"[bench_perf] quantized tier: n={n} d={d} queries={nq} "
          f"planted={cfg['planted']} quick={quick}", flush=True)
    P, Q = _planted_instance(n, d, nq, cfg["planted"], cfg["rho"], seed)
    spec = JoinSpec(s=cfg["s"], c=cfg["c"], signed=True)

    # --- index memory (deterministic) ---------------------------------
    qp = quantize_rows(P)
    work["quant_index_bytes"] = qp.nbytes
    work["quant_float64_bytes"] = P.nbytes
    speedups["quant_memory_reduction"] = P.nbytes / qp.nbytes
    checks["quant_memory_reduction_floor"] = (
        speedups["quant_memory_reduction"] >= QUANT_MEMORY_REDUCTION_FLOOR)

    # --- int8 scan vs the float64 brute join --------------------------
    print("[bench_perf] quantized: scan vs brute ...", flush=True)
    brute_s, brute = _timed(
        lambda: engine_join(P, Q, spec, backend="brute_force", block=block),
        repeats=repeats)
    quant_s, quant = _timed(
        lambda: engine_join(P, Q, spec, backend="quantized", block=block),
        repeats=repeats)
    qq = quantize_rows(Q)
    scan_s, scan = _timed(
        lambda: quantized_scan_survivors(qp, qq, spec.cs, spec.signed),
        repeats=repeats)
    timings["quant_brute_join_s"] = brute_s
    timings["quant_join_s"] = quant_s
    timings["quant_scan_s"] = scan_s
    speedups["quant_scan_vs_brute"] = brute_s / scan_s
    speedups["quant_join_vs_brute"] = brute_s / quant_s
    work["quant_scan_survivors"] = scan[1]
    work["quant_error_bound"] = quant.error_bound
    work["quant_inner_products_evaluated"] = quant.inner_products_evaluated
    checks["quant_matches_equal_brute"] = quant.matches == brute.matches
    checks["quant_prunes_pair_space"] = (
        quant.inner_products_evaluated < brute.inner_products_evaluated)
    if not quick:
        checks["quant_scan_speedup_floor"] = (
            speedups["quant_scan_vs_brute"] >= QUANT_SCAN_SPEEDUP_FLOOR)

    # --- serial vs parallel bit-identity ------------------------------
    w = cfg["workers"]
    identical = True
    for pool in ("process", "thread"):
        par = engine_join(P, Q, spec, backend="quantized", block=block,
                          n_workers=w, pool=pool)
        identical = identical and (
            par.matches == quant.matches
            and par.inner_products_evaluated
            == quant.inner_products_evaluated)
    checks["quant_parallel_identical"] = identical
    close_pools()

    # --- sketch-filter pipeline vs brute ------------------------------
    fn, fd, fq = cfg["filter_n"], cfg["filter_d"], cfg["filter_queries"]
    print(f"[bench_perf] quantized: filter plan n={fn} d={fd} "
          f"queries={fq} ...", flush=True)
    FP, FQ = _planted_instance(fn, fd, fq, cfg["filter_planted"],
                               cfg["filter_rho"], seed + 10)
    fspec = JoinSpec(s=cfg["filter_s"], c=cfg["filter_c"], signed=True)
    fplan = quantized_filter_plan(
        filter_options={"n_dims": cfg["filter_dims"]})
    fbrute_s, fbrute = _timed(
        lambda: engine_join(FP, FQ, fspec, backend="brute_force",
                            block=block),
        repeats=repeats)
    fplan_s, fres = _timed(
        lambda: engine_join(FP, FQ, fspec, backend=fplan, block=block,
                            seed=seed),
        repeats=repeats)
    timings["quant_filter_brute_s"] = fbrute_s
    timings["quant_filter_plan_s"] = fplan_s
    speedups["quant_filter_vs_brute"] = fbrute_s / fplan_s
    truth = {j for j, p in enumerate(fbrute.matches) if p is not None}
    got = {j for j, p in enumerate(fres.matches) if p is not None}
    recall = len(truth & got) / max(1, len(truth))
    sound = all(
        float(FP[p] @ FQ[j]) >= fspec.cs - 1e-9
        for j, p in enumerate(fres.matches) if p is not None)
    work["quant_filter_recall"] = recall
    work["quant_filter_verified_fraction"] = (
        fres.inner_products_evaluated / (fn * fq))
    checks["quant_filter_backend_is_plan"] = (
        fres.backend == "ip_filter+quantized")
    checks["quant_filter_truth_nonempty"] = bool(truth)
    checks["quant_filter_recall_floor"] = recall >= QUANT_FILTER_RECALL_FLOOR
    checks["quant_filter_matches_sound"] = sound
    if not quick:
        checks["quant_filter_beats_brute"] = fplan_s < fbrute_s

    # --- planner: the compact tier in backend="auto" ------------------
    # A memory budget of half the float64 matrix (4 bytes/coord) fits
    # the int8 index but no float64-resident backend, so the planner
    # must steer auto to the quantized tier — checked live, end to end.
    tight = replace(default_model(), mem_budget_bytes=float(n * d * 4))
    exact_spec = JoinSpec(s=cfg["s"], c=1.0, signed=True)
    auto = engine_join(P, Q, exact_spec, backend="auto", model=tight,
                       block=block)
    base_pick = plan_join(n, nq, d, exact_spec).best_plan.backend
    work["quant_planner_picks"] = {
        "base_model": base_pick, "mem_budget": auto.backend}
    checks["quant_auto_picks_quantized_under_budget"] = (
        auto.backend == "quantized")
    ranked = plan_join(fn, fq, fd, fspec)
    hybrids = [p for p in ranked.plans
               if p.backend == "ip_filter+quantized"]
    checks["quant_hybrid_costed_for_gap_specs"] = (
        len(hybrids) == 1 and hybrids[0].feasible)
    return cfg


def _run_parallel_suite(quick: bool, timings: dict, speedups: dict,
                        work: dict, checks: dict) -> dict:
    """Zero-copy process/thread pools vs serial."""
    cfg = PARALLEL_QUICK if quick else PARALLEL_FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    seed, block, repeats = cfg["seed"], cfg["block"], cfg["repeats"]
    cores = os.cpu_count() or 1
    print(f"[bench_perf] parallel suite: n={n} d={d} queries={nq} "
          f"workers={cfg['workers']} cores={cores}", flush=True)
    P = random_unit(n, d, seed=seed) * 0.95
    Q = random_unit(nq, d, seed=seed + 1) * 0.95
    spec = JoinSpec(s=0.75, c=0.8)
    recipe = _hyperplane_recipe(d, cfg, seed + 2)

    def result_key(r: JoinResult):
        s = r.stats
        return (r.matches, r.inner_products_evaluated,
                r.candidates_generated, s.queries, s.candidates,
                s.unique_candidates, s.probed_buckets)

    def lsh_join_on(n_workers: int, pool: str = "process") -> JoinResult:
        return engine_join(P, Q, spec, backend="lsh", **recipe,
                           n_workers=n_workers, block=block, pool=pool)

    serial_s, serial = _timed(lambda: lsh_join_on(1), repeats=repeats)
    timings["parallel_serial_s"] = serial_s

    scaling = {"process": {}, "thread": {}}
    identical = True
    for w in cfg["workers"]:
        print(f"[bench_perf] parallel: {w} workers (process / thread) ...",
              flush=True)
        process_s, process = _timed(
            lambda w=w: lsh_join_on(w, "process"), repeats=repeats)
        thread_s, threaded = _timed(
            lambda w=w: lsh_join_on(w, "thread"), repeats=repeats)
        timings[f"parallel_process_{w}w_s"] = process_s
        timings[f"parallel_thread_{w}w_s"] = thread_s
        scaling["process"][str(w)] = serial_s / process_s
        scaling["thread"][str(w)] = serial_s / thread_s
        identical = identical and (
            result_key(process) == result_key(serial)
            and result_key(threaded) == result_key(serial))
    speedups["parallel_scaling_vs_serial"] = scaling
    work["parallel_join_matched"] = serial.matched_count
    work["parallel_cpu_count"] = cores
    checks["parallel_modes_identical"] = identical and serial.matched_count > 0

    # Speedup is gated only where the machine can show it: a 2-worker
    # ratio on a shared 2-core box measures the neighbours as much as
    # the executor, so it is recorded above and left ungated.
    if not quick and cores >= 4 and 4 in cfg["workers"]:
        checks["parallel_4w_speedup_floor"] = (
            max(scaling["process"]["4"], scaling["thread"]["4"])
            >= PARALLEL_4W_SPEEDUP_FLOOR)
    # Leave no persistent pools (or /dev/shm segments) behind.
    close_pools()
    return cfg


#: Child program for the open_path RSS measurement: a fresh process
#: loads the saved session (mmap'd or fully materialized), reports its
#: resident set, answers one query batch, and reports it again.  The
#: gated number is the post-load one — a materialized load allocates
#: anonymous pages for every array while the mmap load maps them lazily;
#: the post-query number is informational only, because once the index's
#: pages sit in the OS page cache, kernel fault-around maps cached
#: neighbours into the mmap child too, an OS policy rather than a copy.
#: Current ``VmRSS`` from ``/proc/self/statm``, not ``ru_maxrss``: the
#: rusage peak (VmHWM) is inherited through fork and survives exec on
#: Linux, so a child spawned from a large bench parent would report the
#: *parent's* RSS.  Falls back to ``ru_maxrss`` off Linux (then only an
#: upper bound).
_RSS_CHILD = """\
import os
import resource
import sys

import numpy as np

from repro.engine import open_path


def rss_bytes():
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


session = open_path(sys.argv[1], mmap=(sys.argv[2] == "1"))
load_rss = rss_bytes()
Q = np.load(sys.argv[3])
result = session.query(Q)
print(load_rss, rss_bytes(), result.matched_count)
session.close()
"""


def _load_rss(index_dir: str, q_path: str, mmap: bool):
    """(load RSS, serve RSS, matched) of a child open_path load+query."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    prior = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_CHILD, index_dir,
         "1" if mmap else "0", q_path],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(
            f"open_path RSS child failed (mmap={mmap}): {proc.stderr}")
    load_rss, serve_rss, matched = proc.stdout.split()
    return int(load_rss), int(serve_rss), int(matched)


def _run_session_suite(quick: bool, timings: dict, speedups: dict,
                       work: dict, checks: dict) -> dict:
    cfg = SESSION_QUICK if quick else SESSION_FULL
    n, d = cfg["n"], cfg["d"]
    batch, batches = cfg["batch"], cfg["batches"]
    seed, block = cfg["seed"], cfg["block"]
    lsh_options = dict(n_tables=cfg["n_tables"],
                       hashes_per_table=cfg["hashes_per_table"])
    print(f"[bench_perf] streaming session: n={n} d={d} "
          f"batches={batches}x{batch} quick={quick}", flush=True)
    P = random_unit(n, d, seed=seed) * 0.95
    Q_all = np.ascontiguousarray(
        random_unit(batches * batch, d, seed=seed + 1) * 0.95)
    Qs = [np.ascontiguousarray(Q_all[i * batch:(i + 1) * batch])
          for i in range(batches)]
    spec = JoinSpec(s=0.75, c=0.8)

    # --- session reuse vs one-shot join() ------------------------------
    # The same seeded LSH backend either rebuilds its index per batch
    # (one-shot) or builds once at open and serves every batch from the
    # prepared structure; matches must agree batch for batch.
    print("[bench_perf] session: reuse vs one-shot ...", flush=True)

    def one_shot():
        return [engine_join(P, Qb, spec, backend="lsh", seed=seed + 2,
                            block=block, **lsh_options) for Qb in Qs]

    def reuse():
        with open_session(P, spec, backend="lsh", seed=seed + 2,
                          block=block, expected_queries=batches,
                          **lsh_options) as session:
            return [session.query(Qb) for Qb in Qs]

    oneshot_s, oneshot_results = _timed(one_shot)
    session_s, session_results = _timed(reuse)
    timings["session_oneshot_s"] = oneshot_s
    timings["session_reuse_s"] = session_s
    speedups["session_reuse_vs_oneshot"] = oneshot_s / session_s
    work["session_batches"] = batches
    work["session_matched"] = sum(r.matched_count for r in session_results)
    checks["session_matches_equal_oneshot"] = all(
        s.matches == o.matches
        and s.inner_products_evaluated == o.inner_products_evaluated
        for s, o in zip(session_results, oneshot_results))
    if not quick:
        checks["session_reuse_speedup_floor"] = (
            speedups["session_reuse_vs_oneshot"]
            >= SESSION_REUSE_SPEEDUP_FLOOR)

    # --- streamed memmap Q + saved-index RSS ---------------------------
    print("[bench_perf] session: memmap stream and open_path RSS ...",
          flush=True)
    tmpdir = tempfile.mkdtemp(prefix="bench_session_")
    try:
        qfile = os.path.join(tmpdir, "queries.bin")
        with open(qfile, "wb") as handle:
            handle.write(Q_all.tobytes())
        index_dir = os.path.join(tmpdir, "index")
        with open_session(P, spec, backend="lsh", seed=seed + 2,
                          block=block, expected_queries=batches,
                          **lsh_options) as session:
            in_mem_s, in_mem = _timed(lambda: session.query(Q_all))
            stream_s, streamed = _timed(
                lambda: session.query_stream(
                    QuerySource.from_memmap(qfile, d=d),
                    chunk_rows=cfg["stream_rows"]))
            session.save(index_dir)
        timings["session_query_in_memory_s"] = in_mem_s
        timings["session_stream_s"] = stream_s
        checks["session_stream_bit_identical"] = (
            streamed.matches == in_mem.matches
            and streamed.inner_products_evaluated
            == in_mem.inner_products_evaluated)

        # A few probe queries, not a whole batch, so the post-query
        # (serve) number reflects a point-query working set rather than
        # a bulk scan of the index.
        probe_rows = min(4, batch)
        qnpy = os.path.join(tmpdir, "queries.npy")
        np.save(qnpy, np.ascontiguousarray(Q_all[:probe_rows]))
        probe_matched = sum(
            1 for match in in_mem.matches[:probe_rows] if match is not None)
        full_load, full_serve, matched_full = _load_rss(
            index_dir, qnpy, mmap=False)
        mmap_load, mmap_serve, matched_mmap = _load_rss(
            index_dir, qnpy, mmap=True)
        work["session_rss_full_load_bytes"] = full_load
        work["session_rss_mmap_load_bytes"] = mmap_load
        work["session_rss_full_serve_bytes"] = full_serve
        work["session_rss_mmap_serve_bytes"] = mmap_serve
        speedups["session_mmap_rss_reduction"] = full_load / mmap_load
        checks["session_load_matches_equal"] = (
            matched_full == probe_matched and matched_mmap == probe_matched)
        if not quick:
            checks["session_mmap_rss_ceiling"] = (
                mmap_load <= SESSION_MMAP_RSS_CEILING * full_load)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    return cfg


def _run_serving_obs_suite(quick: bool, timings: dict, speedups: dict,
                           work: dict, checks: dict,
                           out_dir: Optional[str] = None) -> dict:
    """Serving telemetry: overhead pair, quantile accuracy, sink output.

    The overhead baseline is a *pre-PR twin* of ``session.query`` —
    validate the batch, ``_dispatch``, bump the counters — replayed on
    the very same session, so the paired ratio isolates exactly what
    this tier added per call: the latency-histogram observes, the
    sampler consult, and the (absent-)sink gate.
    """
    cfg = SERVING_QUICK if quick else SERVING_FULL
    n, d = cfg["n"], cfg["d"]
    batch, batches = cfg["batch"], cfg["batches"]
    seed, block, repeats = cfg["seed"], cfg["block"], cfg["repeats"]
    lsh_options = dict(n_tables=cfg["n_tables"],
                       hashes_per_table=cfg["hashes_per_table"])
    print(f"[bench_perf] serving obs: n={n} d={d} "
          f"batches={batches}x{batch} quick={quick}", flush=True)
    P = random_unit(n, d, seed=seed) * 0.95
    Q_all = random_unit(batches * batch, d, seed=seed + 1) * 0.95
    Qs = [np.ascontiguousarray(Q_all[i * batch:(i + 1) * batch])
          for i in range(batches)]
    spec = JoinSpec(s=0.75, c=0.8)

    def open_serving(**kwargs):
        return open_session(P, spec, backend="lsh", seed=seed + 2,
                            block=block, expected_queries=batches,
                            **lsh_options, **kwargs)

    def pre_pr_one(session, Qb):
        Qc = check_matrix(Qb, "Q")
        out = session._dispatch(Qc, trace=False, root="session.query")
        session.queries_served += 1
        session.metrics.counter("session.queries").inc()
        return out

    # --- per-call telemetry overhead, sampling disabled ----------------
    # The pair interleaves per BATCH (see _paired_batch_overhead): the
    # quantity is ~0.1% of a 2-3 ms call, far below what independent
    # best-of legs can resolve on a shared box.
    print("[bench_perf] serving obs: disabled-sampling overhead ...",
          flush=True)
    with open_serving() as session:
        (prepr_s, telem_s, overhead_disabled,
         prepr_res, telem_res) = _paired_batch_overhead(
            lambda Qb: pre_pr_one(session, Qb),
            session.query,
            Qs, repeats=repeats)
    timings["serving_telemetry_s"] = telem_s
    timings["serving_prepr_s"] = prepr_s
    work["serving_obs_overhead_disabled"] = overhead_disabled
    speedups["serving_telemetry_vs_prepr"] = prepr_s / telem_s
    checks["serving_matches_equal"] = all(
        t.matches == p.matches
        and t.inner_products_evaluated == p.inner_products_evaluated
        for t, p in zip(telem_res, prepr_res))
    if not quick:
        checks["serving_obs_disabled_ceiling"] = (
            work["serving_obs_overhead_disabled"]
            <= SERVING_OBS_DISABLED_CEILING)

    # --- per-call telemetry overhead, sampled at 1% --------------------
    print("[bench_perf] serving obs: 1%-sampled overhead ...", flush=True)
    with open_serving(trace_sample_rate=cfg["sample_rate"],
                      trace_sample_seed=seed) as session:
        (sampled_base_s, sampled_s, overhead_sampled,
         _, _) = _paired_batch_overhead(
            lambda Qb: pre_pr_one(session, Qb),
            session.query,
            Qs, repeats=repeats)
        sampler_stats = session.sampler.stats()
    timings["serving_sampled_s"] = sampled_s
    timings["serving_sampled_prepr_s"] = sampled_base_s
    work["serving_obs_overhead_sampled"] = overhead_sampled
    work["serving_sampled_traces"] = sampler_stats["sampled"]
    speedups["serving_sampled_vs_prepr"] = sampled_base_s / sampled_s
    if not quick:
        checks["serving_obs_sampled_ceiling"] = (
            work["serving_obs_overhead_sampled"]
            <= SERVING_OBS_SAMPLED_CEILING)

    # --- Histogram.quantile vs exact numpy quantiles -------------------
    # Pow2 buckets guarantee no better than bucket resolution, so the
    # contract is agreement to within one bucket, not relative error.
    rng = np.random.default_rng(seed)
    values = rng.lognormal(mean=6.0, sigma=1.5, size=cfg["quantile_n"])
    hist = Histogram()
    hist.observe_array(values)
    quantile_ok = True
    for q in (0.5, 0.95, 0.99):
        est = hist.quantile(q)
        exact = float(np.quantile(values, q))
        work[f"serving_quantile_p{int(q * 100)}_est"] = est
        work[f"serving_quantile_p{int(q * 100)}_exact"] = exact
        quantile_ok = quantile_ok and (
            abs(hist._bucket(est) - hist._bucket(exact)) <= 1)
    checks["serving_quantile_within_one_bucket"] = quantile_ok

    # --- sink: spans, latency histograms, resources, rotation ----------
    print("[bench_perf] serving obs: sink + rotation ...", flush=True)
    sink_dir = tempfile.mkdtemp(prefix="bench_serving_obs_")
    try:
        sink_path = os.path.join(sink_dir, "obs_sink.jsonl")
        with open_serving(trace_sample_rate=1.0,
                          trace_sample_seed=seed) as session:
            session.attach_sink(sink_path, max_bytes=cfg["sink_cap"],
                                max_files=4, resource_every=8)
            for Qb in Qs:
                session.query(Qb)
            rotations = session._sink.rotations
        files = sink_files(sink_path)
        events = read_events(sink_path)
        kinds: dict = {}
        for event in events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        work["serving_sink_events"] = len(events)
        work["serving_sink_files"] = len(files)
        work["serving_sink_spans"] = kinds.get("span", 0)
        work["serving_sink_rotations"] = rotations
        checks["serving_sink_parseable"] = bool(events)
        checks["serving_sink_has_spans"] = kinds.get("span", 0) >= 1
        checks["serving_sink_has_resource"] = kinds.get("resource", 0) >= 1
        metrics_events = [e["data"] for e in events
                          if e["kind"] == "metrics"]
        checks["serving_sink_stage_histograms"] = bool(metrics_events) and (
            "session.query_latency_us" in metrics_events[-1]["histograms"]
            and any(name.startswith("session.stage_latency_us.")
                    for name in metrics_events[-1]["histograms"]))
        checks["serving_sink_rotated"] = rotations >= 1 and len(files) >= 2
        if out_dir:
            # Concatenate the surviving generations oldest-first so the
            # CI artifact is one self-contained JSONL file next to the
            # bench report (tools/obs_report.py renders it).
            dest = os.path.join(out_dir, "obs_sink.jsonl")
            with open(dest, "wb") as out_handle:
                for path in files:
                    with open(path, "rb") as in_handle:
                        shutil.copyfileobj(in_handle, out_handle)
    finally:
        shutil.rmtree(sink_dir, ignore_errors=True)
    return cfg


def _run_jaccard_suite(quick: bool, timings: dict, speedups: dict,
                       work: dict, checks: dict) -> dict:
    """The measure layer: jaccard joins through the identical engine core.

    Exact ``set_scan`` is the reference; ``minhash_lsh`` must verify its
    candidates exactly (soundness) and recover the planted answers
    (recall floor, both modes — the workload is seeded).  Composition
    checks mirror the IP suites: serial == 2-worker bit-identity and
    session/stream results equal to the one-shot join.
    """
    cfg = JACCARD_QUICK if quick else JACCARD_FULL
    n, nq = cfg["n"], cfg["n_queries"]
    universe, mean_size = cfg["universe"], cfg["mean_size"]
    seed, block, repeats = cfg["seed"], cfg["block"], cfg["repeats"]
    spec = JoinSpec(s=cfg["threshold"], measure="jaccard")
    print(f"[bench_perf] jaccard suite: n={n} queries={nq} "
          f"universe={universe} mean_size={mean_size} quick={quick}",
          flush=True)
    P, Q = planted_jaccard_sets(
        n, nq, universe=universe, mean_size=mean_size,
        threshold=cfg["threshold"], seed=seed,
    )

    print("[bench_perf] jaccard: set_scan vs minhash_lsh ...", flush=True)
    scan_s, scan = _timed(
        lambda: engine_join(P, Q, spec, backend="set_scan", block=block),
        repeats=repeats)
    minhash_s, approx = _timed(
        lambda: engine_join(P, Q, spec, backend="minhash_lsh", seed=seed,
                            block=block),
        repeats=repeats)

    answered = [j for j, m in enumerate(scan.matches) if m is not None]
    hit = sum(1 for j in answered if approx.matches[j] is not None)
    recall = hit / len(answered) if answered else 0.0
    sound = all(
        jaccard_pair(P.row(m), Q.row(j)) >= spec.cs
        for j, m in enumerate(approx.matches) if m is not None
    )

    print("[bench_perf] jaccard: parallel + session + stream ...", flush=True)
    par = engine_join(P, Q, spec, backend="set_scan", block=block,
                      n_workers=cfg["workers"])
    parallel_identical = (
        par.matches == scan.matches
        and par.inner_products_evaluated == scan.inner_products_evaluated
        and par.candidates_generated == scan.candidates_generated
    )
    with open_session(P, spec, backend="set_scan", block=block) as session:
        session_s, in_session = _timed(lambda: session.query(Q))
        streamed = session.query_stream(Q, chunk_rows=block)
    session_identical = in_session.matches == scan.matches
    stream_identical = (
        streamed.matches == in_session.matches
        and streamed.inner_products_evaluated
        == in_session.inner_products_evaluated
    )

    timings["jaccard_scan_s"] = scan_s
    timings["jaccard_minhash_s"] = minhash_s
    timings["jaccard_session_query_s"] = session_s
    speedups["jaccard_minhash_vs_scan"] = scan_s / minhash_s
    speedups["jaccard_minhash_pair_reduction"] = (
        scan.inner_products_evaluated
        / max(1, approx.inner_products_evaluated))
    work["jaccard_scan_pairs"] = scan.inner_products_evaluated
    work["jaccard_minhash_pairs"] = approx.inner_products_evaluated
    work["jaccard_matched"] = scan.matched_count
    work["jaccard_minhash_recall"] = recall
    checks["jaccard_minhash_recall_floor"] = (
        recall >= JACCARD_MINHASH_RECALL_FLOOR)
    checks["jaccard_minhash_sound"] = sound
    checks["jaccard_parallel_identical"] = parallel_identical
    checks["jaccard_session_matches_equal"] = session_identical
    checks["jaccard_stream_bit_identical"] = stream_identical
    if not quick:
        checks["jaccard_minhash_prunes_pairs"] = (
            approx.inner_products_evaluated < scan.inner_products_evaluated)
    return cfg


def run_suite(quick: bool = False, suites=ALL_SUITES,
              out_dir: Optional[str] = None) -> dict:
    suites = tuple(suites)
    unknown = [s for s in suites if s not in ALL_SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}; choose from {ALL_SUITES}")
    timings: dict = {}
    speedups: dict = {}
    work: dict = {}
    checks: dict = {}
    report = {
        "schema": SCHEMA,
        "meta": {
            "quick": quick,
            "suites": list(suites),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "timings": timings,
        "speedups": speedups,
        "work": work,
        "checks": checks,
    }
    # The overhead suites (few-percent paired ratios) run FIRST: after
    # the n=100k core workload has fragmented the allocator, the
    # engine-side extra allocations price 2-3 points higher than in a
    # fresh process, which is heap state, not dispatch cost.
    if "planner_dispatch" in suites:
        planner_cfg = _run_planner_suite(quick, timings, speedups, work, checks)
        report["meta"]["planner_suite"] = dict(planner_cfg)
    if "obs_overhead" in suites:
        obs_cfg = _run_obs_suite(quick, timings, speedups, work, checks)
        report["meta"]["obs_suite"] = dict(obs_cfg)
    if "serving_obs" in suites:
        serving_cfg = _run_serving_obs_suite(quick, timings, speedups, work,
                                             checks, out_dir=out_dir)
        report["meta"]["serving_obs_suite"] = dict(serving_cfg)
    if "core" in suites:
        _run_core_suite(quick, report["meta"], timings, speedups, work, checks)
    if "hash_batch_vs_generic" in suites:
        hash_cfg = _run_hash_suite(quick, timings, speedups, work, checks)
        report["meta"]["hash_suite"] = dict(hash_cfg)
    if "sketch_batch_vs_loop" in suites:
        sketch_cfg = _run_sketch_suite(quick, timings, speedups, work, checks)
        report["meta"]["sketch_suite"] = dict(sketch_cfg)
    if "hybrid_vs_single" in suites:
        hybrid_cfg = _run_hybrid_suite(quick, timings, speedups, work, checks)
        report["meta"]["hybrid_suite"] = dict(hybrid_cfg)
    if "quantized_tier" in suites:
        quant_cfg = _run_quant_suite(quick, timings, speedups, work, checks)
        report["meta"]["quant_suite"] = dict(quant_cfg)
    if "parallel_scaling" in suites:
        parallel_cfg = _run_parallel_suite(quick, timings, speedups, work,
                                           checks)
        report["meta"]["parallel_suite"] = dict(parallel_cfg)
    if "streaming_session" in suites:
        session_cfg = _run_session_suite(quick, timings, speedups, work,
                                         checks)
        report["meta"]["session_suite"] = dict(session_cfg)
    if "jaccard_join" in suites:
        jaccard_cfg = _run_jaccard_suite(quick, timings, speedups, work,
                                         checks)
        report["meta"]["jaccard_suite"] = dict(jaccard_cfg)
    return report


def _run_core_suite(quick: bool, meta: dict, timings: dict, speedups: dict,
                    work: dict, checks: dict) -> None:
    cfg = QUICK if quick else FULL
    n, d, nq = cfg["n"], cfg["d"], cfg["n_queries"]
    tables, bits, seed = cfg["n_tables"], cfg["bits_per_table"], cfg["seed"]
    print(f"[bench_perf] workload: n={n} d={d} queries={nq} "
          f"L={tables} k={bits} quick={quick}", flush=True)

    P = random_unit(n, d, seed=seed) * 0.95
    Q = random_unit(nq, d, seed=seed + 1) * 0.95
    index = _hyperplane_index(P, cfg, seed + 2)
    cands = index.candidates_batch(Q)

    # --- verification --------------------------------------------------
    # Two regimes: the LSH candidate lists themselves (sparse overlap on
    # this uniform workload — the kernel's cost test picks gathered
    # GEMVs) and a popularity-skewed workload where hot rows appear in
    # most lists (the union-GEMM path fires and wins).
    print("[bench_perf] verify: per-query loop vs blocked kernel ...", flush=True)
    threshold = 0.6

    def verify_loop(cand_lists):
        matches = []
        for qi, cands in enumerate(cand_lists):
            if cands.size == 0:
                matches.append(None)
                continue
            values = P[cands] @ Q[qi]
            best = int(np.argmax(values))
            matches.append(int(cands[best]) if values[best] >= threshold else None)
        return matches

    verify_loop_s, loop_matches = _timed(lambda: verify_loop(cands), repeats=3)
    verify_blocked_s, (blocked_matches, evaluated) = _timed(
        lambda: verify_candidates(P, Q, cands, threshold, block=cfg["block"]),
        repeats=3)
    verify_equal = loop_matches == blocked_matches

    # Popularity-skewed lists: candidates concentrated on a hot-row set
    # small enough (2x the per-query list size) that every hot row shows
    # up in a large fraction of each block's lists — the regime the
    # union-GEMM strategy is built for.
    skew_rng = np.random.default_rng(seed + 3)
    per_query = max(16, int(round(index.stats.candidates_per_query)))
    hot = max(32, 2 * per_query)
    skewed = [
        np.unique(skew_rng.integers(0, hot, per_query).astype(np.int64))
        for _ in range(nq)
    ]
    overlap_loop_s, overlap_loop_matches = _timed(
        lambda: verify_loop(skewed), repeats=3)
    overlap_blocked_s, (overlap_blocked_matches, _) = _timed(
        lambda: verify_candidates(P, Q, skewed, threshold, block=cfg["block"]),
        repeats=3)
    overlap_equal = overlap_loop_matches == overlap_blocked_matches

    # --- join: executor scaling ---------------------------------------
    spec = JoinSpec(s=0.75, c=0.8)
    recipe = _hyperplane_recipe(d, cfg, seed + 2)
    join_seconds = {}
    join_results = {}
    for workers in cfg["workers"]:
        print(f"[bench_perf] join: {workers} worker(s) ...", flush=True)
        secs, result = _timed(lambda w=workers: engine_join(
            P, Q, spec, backend="lsh", **recipe, n_workers=w,
            block=cfg["block"]))
        join_seconds[str(workers)] = secs
        join_results[workers] = result
    base = join_results[cfg["workers"][0]]
    parallel_identical = all(
        r.matches == base.matches
        and r.inner_products_evaluated == base.inner_products_evaluated
        for r in join_results.values()
    )

    meta.update({
        "n": n, "d": d, "n_queries": nq,
        "n_tables": tables, "bits_per_table": bits,
        "block": cfg["block"], "seed": seed,
    })
    timings.update({
        "verify_loop_s": verify_loop_s,
        "verify_blocked_s": verify_blocked_s,
        "verify_overlap_loop_s": overlap_loop_s,
        "verify_overlap_blocked_s": overlap_blocked_s,
        "join_workers_s": join_seconds,
    })
    speedups.update({
        "verify_blocked_vs_loop": verify_loop_s / verify_blocked_s,
        "verify_overlap_blocked_vs_loop": overlap_loop_s / overlap_blocked_s,
        "join_scaling_vs_1_worker": {
            w: join_seconds[str(cfg["workers"][0])] / s
            for w, s in join_seconds.items()
        },
    })
    work.update({
        "candidates_per_query": index.stats.candidates_per_query,
        "inner_products_verified": evaluated,
        "join_matched": base.matched_count,
        "join_inner_products_evaluated": base.inner_products_evaluated,
    })
    checks.update({
        "verify_matches_equal": verify_equal,
        "verify_overlap_matches_equal": overlap_equal,
        "parallel_matches_identical": parallel_identical,
    })


def validate_schema(report: dict) -> None:
    """Raise if ``report`` does not look like a bench_perf artifact."""
    assert report.get("schema") == SCHEMA, "unknown schema"
    for section in ("meta", "timings", "speedups", "work", "checks"):
        assert isinstance(report.get(section), dict), f"missing section {section}"
    # Pre-suite artifacts (PR 1) have no "suites" key and are all-core.
    suites = report["meta"].get("suites", ["core"])
    if "core" in suites:
        for key in ("verify_loop_s", "verify_blocked_s", "join_workers_s"):
            assert key in report["timings"], f"missing timing {key}"
        for key in ("verify_blocked_vs_loop", "join_scaling_vs_1_worker"):
            assert key in report["speedups"], f"missing speedup {key}"
    if "hash_batch_vs_generic" in suites:
        for name in ("hyperplane", "crosspolytope", "e2lsh"):
            assert f"hash_batch_{name}_s" in report["timings"]
            assert f"hash_batch_vs_generic_{name}" in report["speedups"]
            assert f"hash_native_path_{name}" in report["checks"]
            assert f"hash_candidates_equal_{name}" in report["checks"]
    if "sketch_batch_vs_loop" in suites:
        for key in ("sketch_build_s", "sketch_join_loop_s",
                    "sketch_join_blocked_s", "sketch_query_batch_s"):
            assert key in report["timings"], f"missing timing {key}"
        assert "sketch_join_blocked_vs_loop" in report["speedups"]
        assert "sketch_join_matches_equal" in report["checks"]
        assert "sketch_query_indices_equal" in report["checks"]
    if "planner_dispatch" in suites:
        for key in ("dispatch_brute_kernel_s", "dispatch_brute_engine_s",
                    "dispatch_lsh_kernel_s", "dispatch_lsh_engine_s"):
            assert key in report["timings"], f"missing timing {key}"
        for key in ("engine_vs_kernel_brute_force", "engine_vs_kernel_lsh"):
            assert key in report["speedups"], f"missing speedup {key}"
        assert isinstance(report["work"].get("planner_picks"), dict)
        for key in ("planner_tiny_picks_exact",
                    "planner_exact_demand_picks_exact",
                    "planner_large_gap_picks_approximate",
                    "dispatch_brute_matches_equal",
                    "dispatch_lsh_matches_equal"):
            assert key in report["checks"], f"missing check {key}"
    if "hybrid_vs_single" in suites:
        for key in ("hybrid_plan_s", "hybrid_single_brute_force_s",
                    "hybrid_single_norm_pruned_s", "hybrid_single_lsh_s",
                    "hybrid_dispatch_string_s", "hybrid_dispatch_plan_s"):
            assert key in report["timings"], f"missing timing {key}"
        assert "hybrid_vs_best_single" in report["speedups"]
        for key in ("hybrid_matched", "hybrid_best_single",
                    "hybrid_coverage_vs_brute", "plan_dispatch_overhead"):
            assert key in report["work"], f"missing work {key}"
        for key in ("hybrid_backend_is_plan", "hybrid_matches_sound",
                    "hybrid_coverage_floor", "hybrid_parallel_identical",
                    "plan_dispatch_matches_equal"):
            assert key in report["checks"], f"missing check {key}"
    if "quantized_tier" in suites:
        for key in ("quant_brute_join_s", "quant_join_s", "quant_scan_s",
                    "quant_filter_brute_s", "quant_filter_plan_s"):
            assert key in report["timings"], f"missing timing {key}"
        for key in ("quant_scan_vs_brute", "quant_join_vs_brute",
                    "quant_memory_reduction", "quant_filter_vs_brute"):
            assert key in report["speedups"], f"missing speedup {key}"
        for key in ("quant_index_bytes", "quant_scan_survivors",
                    "quant_error_bound", "quant_filter_recall",
                    "quant_filter_verified_fraction", "quant_planner_picks"):
            assert key in report["work"], f"missing work {key}"
        for key in ("quant_matches_equal_brute", "quant_prunes_pair_space",
                    "quant_memory_reduction_floor",
                    "quant_parallel_identical",
                    "quant_filter_backend_is_plan",
                    "quant_filter_recall_floor", "quant_filter_matches_sound",
                    "quant_auto_picks_quantized_under_budget",
                    "quant_hybrid_costed_for_gap_specs"):
            assert key in report["checks"], f"missing check {key}"
    if "parallel_scaling" in suites:
        assert "parallel_serial_s" in report["timings"]
        workers = report["meta"]["parallel_suite"]["workers"]
        for w in workers:
            for mode in ("process", "thread"):
                assert f"parallel_{mode}_{w}w_s" in report["timings"]
        scaling = report["speedups"].get("parallel_scaling_vs_serial")
        assert isinstance(scaling, dict)
        for mode in ("process", "thread"):
            assert set(scaling[mode]) == {str(w) for w in workers}
        assert "parallel_cpu_count" in report["work"]
        assert "parallel_modes_identical" in report["checks"]
    if "streaming_session" in suites:
        for key in ("session_oneshot_s", "session_reuse_s",
                    "session_query_in_memory_s", "session_stream_s"):
            assert key in report["timings"], f"missing timing {key}"
        for key in ("session_reuse_vs_oneshot",
                    "session_mmap_rss_reduction"):
            assert key in report["speedups"], f"missing speedup {key}"
        for key in ("session_batches", "session_rss_full_load_bytes",
                    "session_rss_mmap_load_bytes"):
            assert key in report["work"], f"missing work {key}"
        for key in ("session_matches_equal_oneshot",
                    "session_stream_bit_identical",
                    "session_load_matches_equal"):
            assert key in report["checks"], f"missing check {key}"
    if "obs_overhead" in suites:
        for key in ("obs_kernel_span_free_s", "obs_kernel_instrumented_s",
                    "obs_engine_untraced_s", "obs_engine_traced_s",
                    "obs_span_disabled_ns"):
            assert key in report["timings"], f"missing timing {key}"
        for key in ("obs_overhead_disabled", "obs_overhead_traced",
                    "obs_traced_span_count"):
            assert key in report["work"], f"missing work {key}"
        for key in ("obs_matches_equal", "obs_trace_present_when_requested"):
            assert key in report["checks"], f"missing check {key}"
    if "jaccard_join" in suites:
        for key in ("jaccard_scan_s", "jaccard_minhash_s",
                    "jaccard_session_query_s"):
            assert key in report["timings"], f"missing timing {key}"
        for key in ("jaccard_minhash_vs_scan",
                    "jaccard_minhash_pair_reduction"):
            assert key in report["speedups"], f"missing speedup {key}"
        for key in ("jaccard_scan_pairs", "jaccard_minhash_pairs",
                    "jaccard_matched", "jaccard_minhash_recall"):
            assert key in report["work"], f"missing work {key}"
        for key in ("jaccard_minhash_recall_floor", "jaccard_minhash_sound",
                    "jaccard_parallel_identical",
                    "jaccard_session_matches_equal",
                    "jaccard_stream_bit_identical"):
            assert key in report["checks"], f"missing check {key}"
    if "serving_obs" in suites:
        for key in ("serving_telemetry_s", "serving_prepr_s",
                    "serving_sampled_s", "serving_sampled_prepr_s"):
            assert key in report["timings"], f"missing timing {key}"
        for key in ("serving_telemetry_vs_prepr", "serving_sampled_vs_prepr"):
            assert key in report["speedups"], f"missing speedup {key}"
        for key in ("serving_obs_overhead_disabled",
                    "serving_obs_overhead_sampled", "serving_sampled_traces",
                    "serving_sink_events", "serving_sink_spans"):
            assert key in report["work"], f"missing work {key}"
        for key in ("serving_matches_equal",
                    "serving_quantile_within_one_bucket",
                    "serving_sink_parseable", "serving_sink_has_spans",
                    "serving_sink_has_resource",
                    "serving_sink_stage_histograms", "serving_sink_rotated"):
            assert key in report["checks"], f"missing check {key}"
    assert all(isinstance(v, bool) for v in report["checks"].values())


def main(argv: Optional[List[str]] = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="seconds-scale CI smoke instead of the full n=100k run")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--suites", default=",".join(ALL_SUITES),
                        help="comma-separated subset of "
                             f"{','.join(ALL_SUITES)} (default: all)")
    args = parser.parse_args(argv)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not os.path.isdir(out_dir):
        parser.error(f"output directory does not exist: {out_dir}")
    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    unknown = [s for s in suites if s not in ALL_SUITES]
    if unknown:
        parser.error(f"unknown suites {unknown}; choose from {ALL_SUITES}")
    report = run_suite(quick=args.quick, suites=suites, out_dir=out_dir)
    validate_schema(report)
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    failed = [name for name, ok in report["checks"].items() if not ok]
    print(f"[bench_perf] wrote {args.out}")
    if "core" in suites:
        print(f"[bench_perf] verify speedup (blocked vs loop): "
              f"{report['speedups']['verify_blocked_vs_loop']:.1f}x sparse, "
              f"{report['speedups']['verify_overlap_blocked_vs_loop']:.1f}x overlapped")
    if "hash_batch_vs_generic" in suites:
        summary = ", ".join(
            f"{name} {report['speedups'][f'hash_batch_vs_generic_{name}']:.1f}x"
            for name in ("hyperplane", "crosspolytope", "e2lsh"))
        print(f"[bench_perf] hash batch vs generic: {summary}")
    if "sketch_batch_vs_loop" in suites:
        print(f"[bench_perf] sketch join blocked vs loop: "
              f"{report['speedups']['sketch_join_blocked_vs_loop']:.1f}x "
              f"(query_batch {report['speedups']['sketch_query_batch_vs_loop']:.1f}x)")
    if "planner_dispatch" in suites:
        picks = ", ".join(f"{k}={v}"
                          for k, v in report["work"]["planner_picks"].items())
        print(f"[bench_perf] planner picks: {picks}")
        print(f"[bench_perf] dispatch overhead: brute "
              f"{report['work']['dispatch_overhead_brute_force'] * 100:+.1f}%, "
              f"lsh {report['work']['dispatch_overhead_lsh'] * 100:+.1f}% "
              f"(ceiling {DISPATCH_OVERHEAD_CEILING * 100:.0f}%, full mode)")
    if "obs_overhead" in suites:
        print(f"[bench_perf] obs overhead: disabled "
              f"{report['work']['obs_overhead_disabled'] * 100:+.2f}% "
              f"(ceiling {OBS_OVERHEAD_CEILING * 100:.0f}%, full mode), "
              f"traced {report['work']['obs_overhead_traced'] * 100:+.1f}% "
              f"({report['work']['obs_traced_span_count']} spans, "
              f"disabled span() "
              f"{report['timings']['obs_span_disabled_ns']:.0f} ns)")
    if "jaccard_join" in suites:
        print(f"[bench_perf] jaccard: minhash recall "
              f"{report['work']['jaccard_minhash_recall'] * 100:.1f}% "
              f"(floor {JACCARD_MINHASH_RECALL_FLOOR * 100:.0f}%), pair "
              f"reduction "
              f"{report['speedups']['jaccard_minhash_pair_reduction']:.1f}x, "
              f"wall {report['speedups']['jaccard_minhash_vs_scan']:.2f}x "
              f"vs set_scan")
    if "serving_obs" in suites:
        print(f"[bench_perf] serving telemetry overhead: disabled "
              f"{report['work']['serving_obs_overhead_disabled'] * 100:+.2f}% "
              f"(ceiling {SERVING_OBS_DISABLED_CEILING * 100:.0f}%, full "
              f"mode), sampled@"
              f"{report['meta']['serving_obs_suite']['sample_rate']:.0%} "
              f"{report['work']['serving_obs_overhead_sampled'] * 100:+.2f}% "
              f"(ceiling {SERVING_OBS_SAMPLED_CEILING * 100:.0f}%, "
              f"{report['work']['serving_sampled_traces']} traces)")
        print(f"[bench_perf] serving sink: "
              f"{report['work']['serving_sink_events']} events across "
              f"{report['work']['serving_sink_files']} files "
              f"({report['work']['serving_sink_rotations']} rotations, "
              f"{report['work']['serving_sink_spans']} spans); quantile "
              f"p99 est {report['work']['serving_quantile_p99_est']:.0f} "
              f"vs exact {report['work']['serving_quantile_p99_exact']:.0f}")
    if "hybrid_vs_single" in suites:
        print(f"[bench_perf] hybrid vs best single "
              f"({report['work']['hybrid_best_single']}): "
              f"{report['speedups']['hybrid_vs_best_single']:.2f}x, "
              f"coverage {report['work']['hybrid_coverage_vs_brute'] * 100:.1f}%, "
              f"plan dispatch overhead "
              f"{report['work']['plan_dispatch_overhead'] * 100:+.1f}% "
              f"(ceiling {PLAN_DISPATCH_OVERHEAD_CEILING * 100:.0f}%, full mode)")
    if "quantized_tier" in suites:
        picks = report["work"]["quant_planner_picks"]
        print(f"[bench_perf] quantized tier: scan "
              f"{report['speedups']['quant_scan_vs_brute']:.2f}x brute "
              f"(floor {QUANT_SCAN_SPEEDUP_FLOOR:.1f}x, full mode), e2e "
              f"{report['speedups']['quant_join_vs_brute']:.2f}x, memory "
              f"{report['speedups']['quant_memory_reduction']:.1f}x smaller")
        print(f"[bench_perf] filter plan vs brute: "
              f"{report['speedups']['quant_filter_vs_brute']:.2f}x, recall "
              f"{report['work']['quant_filter_recall'] * 100:.1f}%, verified "
              f"{report['work']['quant_filter_verified_fraction'] * 100:.2f}% "
              f"of pairs; auto picks {picks['mem_budget']} under mem budget "
              f"(base model: {picks['base_model']})")
    if "parallel_scaling" in suites:
        scaling = report["speedups"]["parallel_scaling_vs_serial"]
        per_w = ", ".join(
            f"{w}w process {scaling['process'][w]:.2f}x / "
            f"thread {scaling['thread'][w]:.2f}x"
            for w in sorted(scaling["process"]))
        print(f"[bench_perf] parallel scaling vs serial "
              f"({report['work']['parallel_cpu_count']} cores): {per_w}")
    if "streaming_session" in suites:
        print(f"[bench_perf] session reuse vs one-shot: "
              f"{report['speedups']['session_reuse_vs_oneshot']:.1f}x over "
              f"{report['work']['session_batches']} batches "
              f"(floor {SESSION_REUSE_SPEEDUP_FLOOR:.0f}x, full mode)")
        print(f"[bench_perf] open_path load RSS: mmap "
              f"{report['work']['session_rss_mmap_load_bytes'] / 1e6:.0f} MB "
              f"vs full "
              f"{report['work']['session_rss_full_load_bytes'] / 1e6:.0f} MB "
              f"({report['speedups']['session_mmap_rss_reduction']:.2f}x "
              f"smaller; ceiling {SESSION_MMAP_RSS_CEILING:.2f}x, full mode)")
    if failed:
        print(f"[bench_perf] FAILED checks: {failed}", file=sys.stderr)
        raise SystemExit(1)
    return report


if __name__ == "__main__":
    main()
