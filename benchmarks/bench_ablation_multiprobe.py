"""Ablation: query-directed multiprobe vs more tables.

Multiprobe trades extra bucket lookups for index memory: probing the
lowest-margin bit flips of few tables can match the recall of many
tables.  The grid prints recall and candidates per query across
(tables x probes), making the classic trade-off visible on our planted
workload.
"""

from benchmarks.conftest import emit, format_table
from repro.datasets import planted_mips
from repro.lsh import DataDepALSH, LSHIndex


def test_multiprobe_grid(benchmark):
    inst = planted_mips(2000, 32, 48, s=0.85, c=0.4, seed=0)

    def build():
        rows = []
        for tables in (2, 4, 8, 16):
            idx = LSHIndex(
                DataDepALSH(48, sphere="hyperplane"),
                n_tables=tables, hashes_per_table=12, seed=1
            ).build(inst.P)
            for probes in (0, 2, 6):
                idx.stats.reset()
                hits = 0
                cands = 0
                cand_lists = idx.candidates_batch(inst.Q, n_probes=probes)
                for qi, cand in enumerate(cand_lists):
                    cands += cand.size
                    if cand.size and (inst.P[cand] @ inst.Q[qi]).max() >= inst.cs:
                        hits += 1
                # Probe efficiency: what fraction of inspected candidates
                # the flipped-bit buckets contributed (tracked separately
                # from exact-bucket hits by QueryStats).
                rows.append([
                    tables, probes, f"{hits / 32:.2f}", f"{cands / 32:.1f}",
                    f"{idx.stats.probe_fraction:.2f}",
                    f"{idx.stats.probed_buckets / idx.stats.queries:.1f}",
                ])
        return format_table(
            ["tables", "probes/table", "recall", "cands/query",
             "probe frac", "hit probes/query"], rows
        )

    text = benchmark.pedantic(build, rounds=1, iterations=1)
    emit("ablation_multiprobe", text)


def test_multiprobe_query_throughput(benchmark):
    inst = planted_mips(2000, 8, 48, s=0.85, c=0.4, seed=2)
    idx = LSHIndex(
        DataDepALSH(48, sphere="hyperplane"), n_tables=4, hashes_per_table=12, seed=3
    ).build(inst.P)
    benchmark(idx.candidates, inst.Q[0], 6)
