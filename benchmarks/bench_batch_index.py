"""Engineering ablation: native batch hashing vs the generic per-row path.

Same scheme (DATA-DEP), same (L, k), same seed: ``LSHIndex`` with the
family's native hasher hashes everything with one matrix product per
side, while the same family behind ``PerRow`` (no native hasher) makes
one Python call per (vector, table, bit).  Both fill the same fused CSR buckets, so recall is equal —
the speedup is pure engineering, not a different algorithm.  Prints
build/query wall times.
"""

import time

from benchmarks.conftest import PerRow, emit, format_table
from repro import engine
from repro.core import JoinSpec
from repro.datasets import planted_mips
from repro.lsh import DataDepALSH, LSHIndex


def _datadep_index(d, tables, bits, seed, native=True):
    family = DataDepALSH(d, sphere="hyperplane")
    return LSHIndex(
        family if native else PerRow(family),
        n_tables=tables, hashes_per_table=bits, seed=seed,
    )


def test_batch_vs_generic_index(benchmark):
    inst = planted_mips(1500, 24, 32, s=0.85, c=0.4, seed=0)
    tables, bits = 12, 8

    def build():
        rows = []
        timings = {}
        for label, native in (("generic per-row hashing", False),
                              ("native batch hashing", True)):
            start = time.perf_counter()
            index = _datadep_index(32, tables, bits, 1, native).build(inst.P)
            build_s = time.perf_counter() - start
            start = time.perf_counter()
            hits = sum(
                1 for qi in range(24)
                if engine.join(inst.P, inst.Q[qi:qi + 1], JoinSpec(s=inst.cs),
                               backend="lsh", index=index).matches[0]
                is not None
            )
            query_s = time.perf_counter() - start
            timings[native] = (build_s, query_s)
            rows.append([label, f"{build_s:.3f} s",
                         f"{query_s * 1e3:.1f} ms", f"{hits / 24:.2f}"])
        (generic_build, generic_query), (batch_build, batch_query) = (
            timings[False], timings[True])
        rows.append([
            "speedup (batch vs generic)",
            f"{generic_build / batch_build:.0f}x",
            f"{generic_query / batch_query:.0f}x", "-",
        ])
        return format_table(["LSHIndex hashing", "build", "24 queries", "recall"],
                            rows)

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("batch_vs_generic_index", text)


def test_batch_candidates_batch_api(benchmark):
    inst = planted_mips(1500, 24, 32, s=0.85, c=0.4, seed=2)
    idx = _datadep_index(32, 12, 8, 3).build(inst.P)
    benchmark(idx.candidates_batch, inst.Q)
