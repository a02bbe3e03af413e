"""Binary-domain joins on realistic set data with minwise hashing.

The {0,1}^d domain "occurs often in practice, for example when the
vectors represent sets" (paper, Section 1.1), and for binary data inner
product = intersection size, so signed and unsigned joins coincide.
This example joins Zipfian-distributed sets (documents/baskets style)
using the MH-ALSH family [46] — the paper's Figure 2 competitor — inside
our generic LSH index, against the exact join.

Run:  python examples/set_similarity.py
"""

import numpy as np

from repro import engine
from repro.core import JoinSpec, brute_force_join
from repro.datasets import zipfian_sets
from repro.lsh import AsymmetricMinHash


def main():
    rng = np.random.default_rng(0)
    universe, n, m = 300, 500, 40
    P = zipfian_sets(n, universe, mean_size=25, seed=1)
    Q = zipfian_sets(m, universe, mean_size=25, seed=2)

    # Plant near-duplicates: a query that shares most of a data set.
    for qi, pi in ((0, 10), (7, 250), (31, 499)):
        Q[qi] = P[pi].copy()
        drop = rng.choice(np.flatnonzero(Q[qi]), size=3, replace=False)
        Q[qi][drop] = 0

    max_weight = int(P.sum(axis=1).max())
    print(f"sets over a universe of {universe}; data weights up to {max_weight}")

    spec = JoinSpec(s=15.0, c=0.6, signed=True)
    exact = brute_force_join(P, Q, spec)
    print(f"\nexact join at intersection >= {spec.cs:g}: "
          f"{exact.matched_count}/{m} queries matched "
          f"({exact.inner_products_evaluated} pair evaluations)")

    family = AsymmetricMinHash(universe, max_norm=max_weight)
    approx = engine.join(P, Q, spec, backend="lsh", family=family,
                         n_tables=24, hashes_per_table=2, seed=3)
    print(f"MH-ALSH join: {approx.matched_count}/{m} matched, "
          f"recall {approx.recall_against(exact):.2f}, "
          f"{approx.inner_products_evaluated} pair evaluations "
          f"({approx.inner_products_evaluated / exact.inner_products_evaluated:.1%} "
          f"of exact)")

    for qi, pi in ((0, 10), (7, 250), (31, 499)):
        match = approx.matches[qi]
        overlap = int(P[match] @ Q[qi]) if match is not None else 0
        print(f"  planted near-duplicate query {qi:>2}: matched data {match} "
              f"with intersection {overlap}")

    # The MH-ALSH collision law in action: probability a/(M + |q| - a).
    a = int(P[10] @ Q[0])
    p_collide = AsymmetricMinHash.collision_probability(a, int(Q[0].sum()), max_weight)
    print(f"\nper-hash collision probability of the strongest pair: "
          f"{p_collide:.3f} = a/(M + |q| - a) with a = {a}, M = {max_weight}")


if __name__ == "__main__":
    main()
