"""Ablation: Section 4.2's symmetric LSH vs Section 4.1's asymmetric one.

Head-to-head on one unit-ball workload: the asymmetric DATA-DEP index
and the symmetric incoherent-completion index, matched on (L, k), plus a
sweep of the symmetric scheme's ``eps`` knob — larger eps means smaller
companion dimension but looser inner-product preservation, the design
trade-off DESIGN.md calls out.
"""

import numpy as np

from benchmarks.conftest import emit, format_table
from repro.datasets import planted_mips
from repro.embeddings import SymmetricSphereCompletion
from repro.lsh import DataDepALSH, LSHIndex, SymmetricIPSHash


def test_symmetric_vs_asymmetric(benchmark):
    inst = planted_mips(800, 24, 32, s=0.85, c=0.4, seed=0)

    def build():
        rows = []
        indexes = {
            "asymmetric DATA-DEP (4.1)": LSHIndex(
                DataDepALSH(32, sphere="hyperplane"),
                n_tables=16, hashes_per_table=10, seed=1
            ),
            "symmetric incoherent (4.2)": LSHIndex(
                SymmetricIPSHash(32, eps=0.05), n_tables=16, hashes_per_table=10, seed=1
            ),
        }
        for name, idx in indexes.items():
            idx.build(inst.P)
            hits = 0
            cands = 0
            for qi in range(24):
                cand = idx.candidates(inst.Q[qi])
                cands += cand.size
                if cand.size and (inst.P[cand] @ inst.Q[qi]).max() >= inst.cs:
                    hits += 1
            rows.append([name, f"{hits / 24:.2f}", f"{cands / 24:.1f}"])
        return format_table(["index", "recall", "cands/query"], rows)

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("ablation_symmetric_vs_asymmetric", text)


def test_symmetric_eps_sweep(benchmark):
    rng = np.random.default_rng(2)
    pairs = []
    for _ in range(40):
        p = rng.normal(size=8); p *= rng.uniform(0.2, 0.95) / np.linalg.norm(p)
        q = rng.normal(size=8); q *= rng.uniform(0.2, 0.95) / np.linalg.norm(q)
        pairs.append((p, q))

    def build():
        rows = []
        for eps in (0.02, 0.05, 0.1, 0.2):
            completion = SymmetricSphereCompletion(eps=eps)
            errors = [
                abs(completion.embed(p) @ completion.embed(q) - p @ q)
                for p, q in pairs
            ]
            rows.append([
                eps, completion.registry.dimension,
                f"{np.max(errors):.4f}", f"{np.mean(errors):.4f}",
            ])
        return format_table(
            ["eps", "companion dim", "max ip error", "mean ip error"], rows
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("ablation_symmetric_eps", text)


def test_symmetric_embed_throughput(benchmark, rng):
    completion = SymmetricSphereCompletion(eps=0.05)
    x = rng.normal(size=16)
    x *= 0.8 / np.linalg.norm(x)
    benchmark(completion.embed, x)
