"""Speed gate of the norm-pruned walk on the paper's hard instance.

On Chen's OV gadget every row has the same norm, so no norm prefix
prunes and no exact algorithm beats a scan by more than constants
(Theorems 1-2; Chen, arXiv:1802.02325).  ``norm_pruned`` must at least
not lose to the scan there:

* ``norm_pruned_top1_within_ceiling``: on the first 256 queries of
  ``adversarial_maxip(n=20000, m=1024, d=64, weight=16, seed=1)`` at
  ``JoinSpec(s=1, c=1, k=1)``, where almost every pair clears the
  threshold, a one-shot ``norm_pruned`` join may take at most
  ``NORM_PRUNED_TOP1_CEILING`` (1.5x) the wall of ``brute_force``
  (interleaved, median per-round ratio).

The same ratio at s = 10 and s = 11, where fewer pairs clear, is
printed ungated.
"""

from benchmarks.conftest import paired
from repro import engine
from repro.core import JoinSpec
from repro.datasets import adversarial_maxip

NORM_PRUNED_FULL = dict(n=20_000, m=1_024, d=64, weight=16, seed=1,
                        n_queries=256, gated_s=1.0, ungated_s=(10.0, 11.0),
                        repeats=7)
NORM_PRUNED_TOP1_CEILING = 1.5


def test_norm_pruned_top1_within_ceiling():
    cfg = NORM_PRUNED_FULL
    inst = adversarial_maxip(n=cfg["n"], m=cfg["m"], d=cfg["d"],
                             weight=cfg["weight"], seed=cfg["seed"])
    P, Q = inst.P, inst.Q[:cfg["n_queries"]]
    ratios = {}
    for s in (cfg["gated_s"], *cfg["ungated_s"]):
        spec = JoinSpec(s=s, c=1.0, k=1)
        overhead, _, _ = paired(
            lambda _: engine.join(P, Q, spec, backend="brute_force"),
            lambda _: engine.join(P, Q, spec, backend="norm_pruned"),
            repeats=cfg["repeats"])
        ratios[s] = 1.0 + overhead
        gate = "gated" if s == cfg["gated_s"] else "ungated"
        print(f"norm_pruned top-1 at s = {s:g}: {ratios[s]:.2f}x "
              f"brute_force ({gate})")
    ratio = ratios[cfg["gated_s"]]
    assert ratio <= NORM_PRUNED_TOP1_CEILING, f"{ratio:.2f}x"
