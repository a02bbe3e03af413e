"""Outlier correlation mining with unsigned joins.

The Valiant / Karppa-et-al. motivation: among many weakly correlated ±1
signals, find the few pairs with unusually strong (positive *or*
negative) correlation — an unsigned IPS join, since a large negative
correlation is just as interesting.  Compares the exact join, the
unsigned-via-signed reduction, and the embed-and-multiply baseline on a
workload with planted correlated and anti-correlated pairs.

Run:  python examples/correlation_mining.py
"""

import numpy as np

from repro.core import JoinSpec, brute_force_join, chebyshev_expand_join
from repro.core.join import unsigned_via_signed
from repro.datasets import random_sign


def plant_correlations(P, Q, pairs, strength, rng):
    """Overwrite chosen query rows with noisy (anti-)copies of data rows."""
    d = P.shape[1]
    for qi, pi, sign in pairs:
        noise = rng.random(d) < (1.0 - strength) / 2.0
        row = sign * P[pi].copy()
        row[noise] *= -1
        Q[qi] = row


def main():
    rng = np.random.default_rng(0)
    n, m, d = 400, 60, 64
    P = random_sign(n, d, seed=1)
    Q = random_sign(m, d, seed=2)
    planted = [(3, 17, +1), (25, 200, -1), (48, 399, +1)]
    plant_correlations(P, Q, planted, strength=0.9, rng=rng)

    # Background correlations concentrate around sqrt(d) ~ 8; planted
    # pairs sit near strength * d ~ 57.  Join at s = 40 with c = 0.75.
    spec = JoinSpec(s=40.0, c=0.75, signed=False)
    exact = brute_force_join(P, Q, spec)
    found = [(qi, match) for qi, match in enumerate(exact.matches) if match is not None]
    print(f"exact unsigned join at |ip| >= {spec.cs}: {len(found)} matches")
    for qi, pi in found:
        value = int(P[pi] @ Q[qi])
        print(f"  query {qi:>2} ~ data {pi:>3}  correlation {value:+d} "
              f"({'anti' if value < 0 else 'pos'})")

    via = unsigned_via_signed(P, Q, spec, backend="brute_force")
    print(f"\nunsigned-via-signed reduction: recall "
          f"{via.recall_against(exact):.2f} (joins P with Q and -Q)")

    algebraic = chebyshev_expand_join(P, Q, spec, degree=2)
    print(f"embed-and-multiply (degree-2 tensor, one matmul): recall "
          f"{algebraic.recall_against(exact):.2f}")
    amplified_gap = (spec.s / d) ** 2 / (spec.cs / d) ** 2
    print(f"  gap amplified from {spec.s / spec.cs:.2f}x to {amplified_gap:.2f}x "
          f"by squaring normalized correlations")

    for qi, pi, sign in planted:
        assert exact.matches[qi] == pi, "planted pair missed!"
    print("\nall planted (anti-)correlations recovered.")


if __name__ == "__main__":
    main()
