"""Quickstart: exact vs approximate inner product similarity joins.

Builds a planted MIPS workload, runs the exact quadratic join, the
LSH-based (cs, s) join of Section 4.1, and the sketch-based unsigned join
of Section 4.3, and prints their agreement and work counts.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import JoinSpec, engine
from repro.datasets import planted_mips
from repro.lsh import DataDepALSH


def main():
    # A workload with one planted partner of inner product >= 0.85 per
    # query; everything else stays below 0.34.
    inst = planted_mips(n=2000, m=32, d=48, s=0.85, c=0.4, seed=0)
    print(f"data: {inst.n} vectors, {inst.d} dims; queries: 32; "
          f"threshold s = {inst.s}, gap cs = {inst.cs}")

    exact = engine.join(inst.P, inst.Q, JoinSpec(s=inst.s),
                        backend="brute_force")
    print(f"\nexact join:   {exact.matched_count}/32 matched, "
          f"{exact.inner_products_evaluated} inner products")

    family = DataDepALSH(inst.d, sphere="hyperplane")
    approx = engine.join(
        inst.P, inst.Q, JoinSpec(s=inst.s, c=0.4),
        backend="lsh", family=family, seed=1,
        n_tables=14, hashes_per_table=7,
    )
    print(f"LSH join:     {approx.matched_count}/32 matched, "
          f"{approx.inner_products_evaluated} inner products "
          f"({approx.inner_products_evaluated / exact.inner_products_evaluated:.1%} "
          f"of exact), recall {approx.recall_against(exact):.2f}")

    sketched = engine.join(inst.P, inst.Q, JoinSpec(s=inst.s, signed=False),
                           backend="sketch", kappa=3.0, seed=2)
    print(f"sketch join:  {sketched.matched_count}/32 matched "
          f"(own approximation c = {sketched.spec.c:.3f}), "
          f"recall {sketched.recall_against(exact):.2f}")

    # Verify one match end to end.
    qi = next(i for i, match in enumerate(approx.matches) if match is not None)
    pi = approx.matches[qi]
    print(f"\nspot check: query {qi} matched data vector {pi} with "
          f"inner product {float(inst.P[pi] @ inst.Q[qi]):.3f} >= cs = {inst.cs}")


if __name__ == "__main__":
    main()
