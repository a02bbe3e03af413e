"""Join algorithm comparison: exact vs LSH vs sketch over a size sweep.

Prints, per algorithm and data size, wall time, exact inner products
evaluated (the work measure), and recall against the exact join.  The
shape to reproduce: brute-force work grows quadratically in ``n`` while
the filter-based algorithms' verified-pair counts grow subquadratically —
the crossover the paper's upper bounds promise.  (Wall-clock comparisons
in pure Python flatter BLAS-backed brute force at small sizes; the work
columns carry the asymptotic point.)

A Jaccard spoke follows the inner-product table: the exact ``set_scan``
with and without its head split (the frequent elements kept as one
bitmap word per set) on Zipfian sets of growing skew and on the flat
set-valued OV gadget, where the split has nothing to take and stops
paying.
"""

import time

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.core import JoinSpec, brute_force_join
from repro.core.set_join import SetPostings, jaccard_scan_chunk
from repro.datasets import (
    adversarial_maxip,
    ov_jaccard_gadget,
    planted_jaccard_sets,
    planted_mips,
)
from repro.engine import join as engine_join
from repro.lsh import DataDepALSH
from repro.obs import (
    PlannerLog,
    format_pick_distribution,
    format_regret_table,
    use_planner_log,
)


#: The sweep grid: (n, d, s, c).  The n-sweep at the reference shape
#: carries the asymptotic crossover; the d/s/c spokes show how the
#: picture moves with dimension, threshold, and approximation factor.
CROSSOVER_GRID = (
    *((n, 24, 0.85, 0.4) for n in (256, 512, 1024, 2048, 4096)),
    *((n, 20, 0.85, 0.4) for n in (512, 2048)),
    *((n, 48, 0.85, 0.4) for n in (512, 2048)),
    *((n, 24, 0.90, 0.6) for n in (512, 2048)),
    *((n, 24, 0.75, 0.3) for n in (512, 2048)),
)

#: Adversarial Max-IP spoke: (n, d, weight).  Chen-style OV-gadget
#: instances — Hamming-sphere data, additive O(1) planted gap — where
#: every sub-quadratic backend should degrade toward brute-force work.
ADVERSARIAL_GRID = (
    (256, 64, 12),
    (512, 64, 12),
    (1024, 96, 16),
    (2048, 96, 16),
)


#: Jaccard spoke: ``(n, queries, universe, mean size)`` of the Zipfian
#: sets (the ``jaccard_scan`` bench shape), the Zipf exponents, and the
#: OV gadget's ``(n, queries, d)``.
JACCARD_SHAPE = (4000, 512, 2048, 32)
JACCARD_EXPONENTS = (0.6, 0.8, 1.1, 1.4)
JACCARD_GADGET = (4000, 512, 16)
JACCARD_BLOCK = 64


def _scan_ms(postings, Q, cs):
    """Best of three timed passes of the scan kernel over 64-query
    blocks, after one untimed warm-up pass."""
    times = []
    for _ in range(4):
        start = time.perf_counter()
        answers = []
        for lo in range(0, len(Q), JACCARD_BLOCK):
            answers += jaccard_scan_chunk(
                postings, Q[lo:lo + JACCARD_BLOCK], cs)[0]
        times.append(time.perf_counter() - start)
    return min(times[1:]) * 1e3, answers


def _jaccard_spoke_table():
    n, m, universe, size = JACCARD_SHAPE
    cases = [(f"zipf {ex:g}", *planted_jaccard_sets(
        n, m, universe, size, threshold=0.6, exponent=ex, seed=3), 0.6)
        for ex in JACCARD_EXPONENTS]
    cases.append(("OV gadget", *ov_jaccard_gadget(*JACCARD_GADGET, seed=3),
                  0.5))
    rows = []
    for name, P, Q, s in cases:
        spec = JoinSpec(s=s, measure="jaccard")
        postings = SetPostings(P)
        # The same postings with an empty head run the plain product.
        headless = SetPostings(P)
        headless.masks = headless.words = np.empty(0, dtype=np.int64)
        split_ms, split = _scan_ms(postings, Q, spec.cs)
        plain_ms, plain = _scan_ms(headless, Q, spec.cs)
        assert split == plain
        result = engine_join(P, Q, spec, backend="set_scan",
                             block=JACCARD_BLOCK)
        rows.append([
            name, len(P), len(Q), np.count_nonzero(postings.masks),
            f"{split_ms:.1f} ms", f"{plain_ms:.1f} ms",
            f"{plain_ms / split_ms:.2f}x",
            result.inner_products_evaluated,
            f"{result.inner_products_evaluated / (len(P) * len(Q)):.4f}",
            f"{result.candidates_generated / len(Q):.0f}",
            result.matched_count,
        ])
    return format_table(
        ["sets", "n", "m", "head", "set_scan", "no split", "split gain",
         "pairs evaluated", "fraction of n*m", "postings walked / query",
         "matched"],
        rows,
    )


def test_join_crossover_table(benchmark):
    def build():
        rows = []
        for n, d, s, c in CROSSOVER_GRID:
            inst = planted_mips(n, 16, d, s=s, c=c, seed=n + d)
            spec = JoinSpec(s=inst.s, c=c)
            timings = {}

            start = time.perf_counter()
            exact = brute_force_join(inst.P, inst.Q, spec)
            timings["exact"] = time.perf_counter() - start

            family = DataDepALSH(d, sphere="hyperplane")
            start = time.perf_counter()
            approx = engine_join(inst.P, inst.Q, spec, backend="lsh",
                                 family=family, n_tables=12,
                                 hashes_per_table=7, seed=1)
            timings["lsh"] = time.perf_counter() - start

            start = time.perf_counter()
            sketched = engine_join(inst.P, inst.Q,
                                   JoinSpec(s=inst.s, signed=False),
                                   backend="sketch", kappa=3.0, copies=5,
                                   seed=2)
            timings["sketch"] = time.perf_counter() - start

            for name, result in (("exact", exact), ("lsh", approx),
                                 ("sketch", sketched)):
                rows.append([
                    n, d, f"{s:g}", f"{c:g}", name,
                    f"{timings[name] * 1e3:.1f} ms",
                    result.inner_products_evaluated,
                    f"{result.inner_products_evaluated / (n * 16):.4f}",
                    f"{result.recall_against(exact):.2f}",
                ])
        return (
            format_table(
                ["n", "d", "s", "c", "algorithm", "wall time",
                 "pairs verified", "fraction of n*m", "recall"],
                rows,
            )
            + "\n\n== Jaccard spoke: set_scan head split ==\n"
            + _jaccard_spoke_table()
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("join_crossover", text)


def test_adversarial_maxip_table(benchmark):
    """Top-1 joins on the OV-gadget hard family, per backend.

    Every row's data lives on one Hamming sphere (equal norms) and the
    planted answer beats the bulk by an additive gap of ~1 inner-product
    unit, so ``norm_pruned`` gains nothing over ``brute_force`` and the
    planner's exact tie-break is the interesting signal: the work
    columns should stay essentially quadratic for every backend, the
    crossover bench's designed-to-be-hard counterpoint.
    """
    def build():
        rows = []
        for n, d, weight in ADVERSARIAL_GRID:
            inst = adversarial_maxip(n, 16, d, weight=weight, seed=n + d)
            # Top-1 at a threshold the planted pair just clears; c = 1
            # keeps the request exact (no multiplicative gap exists).
            s = float(inst.planted_ip.min())
            spec = JoinSpec(s=s, k=1, signed=False)
            for backend in ("brute_force", "norm_pruned", "auto"):
                start = time.perf_counter()
                result = engine_join(
                    inst.P, inst.Q, spec, backend=backend, seed=1
                )
                wall = time.perf_counter() - start
                hits = sum(
                    1 for qi, lst in enumerate(result.topk or [])
                    if lst and lst[0] == int(inst.answers[qi])
                )
                rows.append([
                    n, d, weight, f"{inst.min_gap}", backend,
                    f"{wall * 1e3:.1f} ms",
                    result.inner_products_evaluated,
                    f"{result.inner_products_evaluated / (n * 16):.4f}",
                    f"{hits / len(inst.answers):.2f}",
                ])
        return format_table(
            ["n", "d", "weight", "gap", "backend", "wall time",
             "pairs verified", "fraction of n*m", "planted top-1 found"],
            rows,
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("adversarial_maxip", text)


def test_planner_pick_distribution(benchmark):
    """Run a sweep under every backend + auto; report planner regret.

    Every engine join appends to the active
    :class:`~repro.obs.planner_log.PlannerLog`; running the same
    instance under each explicit backend gives regret its measured
    denominators, and the auto rows show what the planner picked and
    what it cost relative to the measured-fastest backend.
    """
    def build():
        log = PlannerLog()
        with use_planner_log(log):
            for n, d, s, c in CROSSOVER_GRID:
                inst = planted_mips(n, 16, d, s=s, c=c, seed=n + d)
                spec = JoinSpec(s=inst.s, c=c, signed=False)
                for backend in ("brute_force", "norm_pruned", "lsh", "sketch"):
                    engine_join(inst.P, inst.Q, spec, backend=backend, seed=1)
                engine_join(inst.P, inst.Q, spec, backend="auto", seed=1)
        return (
            "== planner regret ==\n"
            + format_regret_table(log)
            + "\n\n== auto pick distribution ==\n"
            + format_pick_distribution(log)
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("planner_pick_distribution", text)


def test_exact_join_n1024(benchmark):
    inst = planted_mips(1024, 16, 24, s=0.85, c=0.4, seed=0)
    spec = JoinSpec(s=inst.s, c=0.4)
    benchmark(brute_force_join, inst.P, inst.Q, spec)


def test_lsh_join_n1024(benchmark):
    inst = planted_mips(1024, 16, 24, s=0.85, c=0.4, seed=0)
    spec = JoinSpec(s=inst.s, c=0.4)
    family = DataDepALSH(24, sphere="hyperplane")
    benchmark.pedantic(
        lambda: engine_join(inst.P, inst.Q, spec, backend="lsh", family=family,
                            n_tables=8, hashes_per_table=7, seed=1),
        rounds=3, iterations=1,
    )


def test_sketch_join_n1024(benchmark):
    inst = planted_mips(1024, 16, 24, s=0.85, c=0.4, seed=0)
    benchmark.pedantic(
        lambda: engine_join(inst.P, inst.Q, JoinSpec(s=inst.s, signed=False),
                            backend="sketch", kappa=3.0, copies=5, seed=2),
        rounds=3, iterations=1,
    )


def test_batch_lsh_join_n1024(benchmark):
    inst = planted_mips(1024, 16, 24, s=0.85, c=0.4, seed=0)
    spec = JoinSpec(s=inst.s, c=0.4)
    benchmark.pedantic(
        lambda: engine_join(inst.P, inst.Q, spec, backend="lsh",
                            family=DataDepALSH(24, sphere="hyperplane"),
                            n_tables=8, hashes_per_table=7, seed=1),
        rounds=3, iterations=1,
    )
