"""Ablation: AND/OR amplification parameters of the LSH index.

DESIGN.md calls out the (L, k) trade-off as the design choice behind all
index runs: more bits per table (k, the AND width) shrink candidate sets
but cost recall per table; more tables (L, the OR width) buy the recall
back.  The ρ theory says the achievable trade-off curve is governed by
``rho = log P1 / log P2`` *independently of k* — this bench sweeps the
grid and prints recall vs candidates so the invariance is visible.
"""

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.datasets import planted_mips
from repro.lsh import DataDepALSH, LSHIndex
from repro.lsh.amplification import amplify_gap, rho
from repro.lsh.rho import collision_prob_hyperplane


def test_and_or_sweep(benchmark):
    inst = planted_mips(2000, 32, 48, s=0.85, c=0.4, seed=0)

    def build():
        rows = []
        for bits in (6, 10, 14):
            for tables in (4, 8, 16, 32):
                idx = LSHIndex(
                    DataDepALSH(48, sphere="hyperplane"),
                    n_tables=tables, hashes_per_table=bits, seed=1
                ).build(inst.P)
                hits = 0
                cands = 0
                for qi in range(32):
                    cand = idx.candidates(inst.Q[qi])
                    cands += cand.size
                    if cand.size:
                        values = inst.P[cand] @ inst.Q[qi]
                        if values.max() >= inst.cs:
                            hits += 1
                rows.append([
                    bits, tables, f"{hits / 32:.2f}",
                    f"{cands / 32:.1f}", f"{cands / 32 / inst.n:.4f}",
                ])
        return format_table(
            ["k (AND bits)", "L (OR tables)", "recall", "cands/query", "fraction of n"],
            rows,
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("ablation_amplification", text)


def test_rho_invariance_under_and(benchmark):
    """rho(p1^k, p2^k) == rho(p1, p2): the theory behind the sweep."""

    def build():
        p1 = collision_prob_hyperplane(0.85)
        p2 = collision_prob_hyperplane(0.34)
        rows = []
        for k in (1, 2, 4, 8, 16):
            a1, a2 = amplify_gap(p1, p2, k)
            rows.append([k, f"{a1:.6f}", f"{a2:.6f}", f"{rho(a1, a2):.6f}"])
        return format_table(["k", "P1^k", "P2^k", "rho"], rows)

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("ablation_rho_invariance", text)
    # All rho values identical.
    values = {line.split()[-1] for line in text.splitlines()[2:]}
    assert len(values) == 1


def test_batch_index_build_throughput(benchmark):
    inst = planted_mips(2000, 8, 32, s=0.85, c=0.4, seed=2)
    benchmark.pedantic(
        lambda: LSHIndex(
            DataDepALSH(32, sphere="hyperplane"),
            n_tables=16, hashes_per_table=12, seed=3
        ).build(inst.P),
        rounds=3, iterations=1,
    )


def test_batch_index_query_throughput(benchmark):
    inst = planted_mips(2000, 8, 32, s=0.85, c=0.4, seed=4)
    idx = LSHIndex(
        DataDepALSH(32, sphere="hyperplane"), n_tables=16, hashes_per_table=12, seed=5
    ).build(inst.P)
    benchmark(idx.candidates, inst.Q[0])
