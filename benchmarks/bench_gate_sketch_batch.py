"""Speed gate: the blocked ``sketch`` join vs a per-query descent loop.

The Section 4.3 sketch join over a shared ``SketchCMIPS`` structure
(n = 20,000, d = 64, 400 queries): the blocked backend (batched c-MIPS
descents) must run at least ``SKETCH_JOIN_SPEEDUP_FLOOR`` times faster
than one ``SketchCMIPS.query`` per query followed by the same exact
verification.
"""

import numpy as np

from benchmarks.conftest import best_of
from repro import engine
from repro.core import JoinSpec
from repro.core.verify import verify_candidates
from repro.sketches import SketchCMIPS

SKETCH_FULL = dict(n=20_000, d=64, n_queries=400, kappa=4.0, copies=5,
                   leaf_size=16, s=4.0, block=512, seed=2016)
#: The blocked join runs 5-8x the per-query loop, but the *loop* side
#: swings with BLAS/allocator state (recorded runs: 8.4x, 5.2x, 4.5x
#: with an identical blocked wall), so the floor sits below that band.
SKETCH_JOIN_SPEEDUP_FLOOR = 4.0


def _sketch_loop_join(P, Q, cs: float, structure: SketchCMIPS, block: int):
    """The per-query reference: one descent per query, then verify."""
    empty = np.empty(0, dtype=np.int64)
    proposals = []
    for q in Q:
        index = structure.query(q).index
        proposals.append(np.array([index], dtype=np.int64)
                         if index >= 0 else empty)
    matches, _ = verify_candidates(P, Q, proposals, threshold=cs,
                                   signed=False, block=block)
    return matches


def test_sketch_join_speedup_floor():
    cfg = SKETCH_FULL
    rng = np.random.default_rng(cfg["seed"])
    P = rng.normal(size=(cfg["n"], cfg["d"]))
    Q = rng.normal(size=(cfg["n_queries"], cfg["d"]))
    structure = SketchCMIPS(P, kappa=cfg["kappa"], copies=cfg["copies"],
                            leaf_size=cfg["leaf_size"], seed=cfg["seed"] + 2)
    spec = JoinSpec(s=cfg["s"], c=structure.approximation_factor,
                    signed=False)
    loop_s, _ = best_of(
        lambda: _sketch_loop_join(P, Q, spec.cs, structure, cfg["block"]))
    blocked_s, _ = best_of(
        lambda: engine.join(P, Q, JoinSpec(s=cfg["s"], signed=False),
                            backend="sketch", structure=structure,
                            block=cfg["block"]), repeats=2)
    speedup = loop_s / blocked_s
    print(f"sketch join: blocked {speedup:.1f}x the per-query loop")
    assert speedup >= SKETCH_JOIN_SPEEDUP_FLOOR, f"{speedup:.2f}x"
