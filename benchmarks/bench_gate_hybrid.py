"""Speed gates of the Plan IR on a norm-skewed workload.

* ``hybrid_beats_best_single``: on :func:`_norm_skewed_workload`
  (n = 30,000, d = 32, 20,000 queries), the ``norm_pruned+lsh`` hybrid
  must beat the fastest of ``brute_force``, ``norm_pruned`` and ``lsh``.
* ``plan_dispatch_overhead_within_ceiling``: a one-stage ``Plan`` may
  cost at most ``PLAN_DISPATCH_OVERHEAD_CEILING`` (5%) more than the
  same backend named by string (interleaved, median per-round ratio).
"""

import numpy as np
import pytest

from benchmarks.conftest import best_of, paired
from repro import engine
from repro.core import JoinSpec
from repro.engine import Plan, norm_prefix_lsh_plan

HYBRID_FULL = dict(n=30_000, d=32, n_queries=20_000, hub_fraction=0.02,
                   hub_query_fraction=0.85, s=0.8, c=0.5, n_tables=16,
                   hashes_per_table=10, block=256, repeats=2,
                   dispatch_n=4_000, dispatch_queries=512,
                   dispatch_repeats=15, seed=2016)
PLAN_DISPATCH_OVERHEAD_CEILING = 0.05


def _norm_skewed_workload(n: int, m: int, d: int, hub_fraction: float,
                          hub_query_fraction: float, seed: int):
    """Hubs plus an orthogonal tail: the regime two-stage plans exist for.

    A ``hub_fraction`` of the points are norm-2.0 hubs in the first
    ``d // 4`` dimensions; the rest are norm-0.5 tail points in the
    complementary subspace, so the two groups have zero inner product.
    Hub queries align with a planted hub (inner product ~2), tail queries
    plant a tail match at ``0.5 * 0.9 = 0.45``.  With ``cs = 0.4`` the
    norm-prefix stage answers every hub query from the hubs alone, while
    ``norm_pruned`` can never stop early on a tail query
    (``0.5 * 1 > cs``) and scans all of ``P`` for it.
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
    return P, Q


@pytest.fixture(scope="module")
def workload():
    cfg = HYBRID_FULL
    P, Q = _norm_skewed_workload(cfg["n"], cfg["n_queries"], cfg["d"],
                                 cfg["hub_fraction"],
                                 cfg["hub_query_fraction"], cfg["seed"])
    lsh_options = dict(n_tables=cfg["n_tables"],
                       hashes_per_table=cfg["hashes_per_table"])
    return P, Q, JoinSpec(s=cfg["s"], c=cfg["c"]), lsh_options


def test_hybrid_beats_best_single(workload):
    P, Q, spec, lsh_options = workload
    cfg = HYBRID_FULL
    common = dict(block=cfg["block"], seed=cfg["seed"] + 3)
    singles = {
        name: best_of(lambda name=name: engine.join(
            P, Q, spec, backend=name, **common, **options),
            repeats=cfg["repeats"])[0]
        for name, options in (("brute_force", {}), ("norm_pruned", {}),
                              ("lsh", lsh_options))
    }
    plan = norm_prefix_lsh_plan(prefix_fraction=cfg["hub_fraction"],
                                tail_options=lsh_options)
    hybrid_s, _ = best_of(
        lambda: engine.join(P, Q, spec, backend=plan, **common),
        repeats=cfg["repeats"])
    best = min(singles, key=singles.get)
    speedup = singles[best] / hybrid_s
    print(f"norm_pruned+lsh {speedup:.2f}x the best single backend ({best})")
    assert speedup > 1.0, f"{speedup:.2f}x vs {best}"


def test_plan_dispatch_overhead_within_ceiling(workload):
    P, Q, spec, lsh_options = workload
    cfg = HYBRID_FULL
    Pd, Qd = P[:cfg["dispatch_n"]], Q[:cfg["dispatch_queries"]]
    common = dict(block=cfg["block"], seed=cfg["seed"] + 4)
    one_stage = Plan.single("lsh", lsh_options)
    overhead, _, _ = paired(
        lambda _: engine.join(Pd, Qd, spec, backend="lsh", **common,
                              **lsh_options),
        lambda _: engine.join(Pd, Qd, spec, backend=one_stage, **common),
        repeats=cfg["dispatch_repeats"])
    print(f"one-stage Plan dispatch overhead {overhead:+.2%}")
    assert overhead <= PLAN_DISPATCH_OVERHEAD_CEILING, f"{overhead:+.2%}"
