"""Planning an LSH index from the theory, then verifying it delivers.

The full practitioner workflow: start from the workload parameters
``(n, s, c)``, let the ρ theory choose the index shape ``(k, L)``, build
the vectorized DATA-DEP index, and measure that the planned recall and
candidate volume actually materialize — then show multiprobe buying the
same recall from fewer tables.

Run:  python examples/index_planning.py
"""

import numpy as np

from repro.datasets import planted_mips
from repro.lsh import DataDepALSH, LSHIndex, plan_datadep


def measure(idx, inst, n_probes=0):
    hits = 0
    cands = 0
    for qi in range(inst.Q.shape[0]):
        cand = idx.candidates(inst.Q[qi], n_probes=n_probes)
        cands += cand.size
        if cand.size and (inst.P[cand] @ inst.Q[qi]).max() >= inst.cs:
            hits += 1
    m = inst.Q.shape[0]
    return hits / m, cands / m


def main():
    n, m, d = 4000, 32, 48
    inst = planted_mips(n, m, d, s=0.85, c=0.4, seed=0)
    print(f"workload: n = {n}, threshold s = {inst.s}, approximation c = 0.4")

    config = plan_datadep(n=n, s=inst.s, c=0.4, delta=0.1)
    print(f"\nplanned from the rho theory (rho = {config.rho:.3f}):")
    print(f"  k = {config.k} bits/table, L = {config.n_tables} tables")
    print(f"  predicted success prob >= {config.success_probability:.3f}, "
          f"expected false candidates <= {config.expected_false_candidates:.1f}/query")

    idx = LSHIndex(
        DataDepALSH(d, sphere="hyperplane"),
        n_tables=config.n_tables, hashes_per_table=config.k, seed=1
    ).build(inst.P)
    recall, cands = measure(idx, inst)
    print(f"\nmeasured: recall {recall:.2f}, {cands:.1f} candidates/query "
          f"(vs {n} for the scan)")

    # Multiprobe: a quarter of the tables plus probing reaches similar recall.
    small = LSHIndex(
        DataDepALSH(d, sphere="hyperplane"),
        n_tables=max(1, config.n_tables // 4), hashes_per_table=config.k, seed=2
    ).build(inst.P)
    r0, c0 = measure(small, inst, n_probes=0)
    r6, c6 = measure(small, inst, n_probes=6)
    print(f"\nquarter-size index ({small.n_tables} tables):")
    print(f"  without probes: recall {r0:.2f}, {c0:.1f} cands/query")
    print(f"  with 6 probes/table: recall {r6:.2f}, {c6:.1f} cands/query")
    print("\nmultiprobe trades bucket lookups for memory: fewer tables, "
          "same hashes,\nrecall recovered by peeking at the lowest-margin "
          "neighboring buckets.")


if __name__ == "__main__":
    main()
