"""Work gate of the Jaccard measure at full size.

On the planted Jaccard workload (n = 20,000 sets, 2,000 queries,
universe 8,192, mean size 32, J >= 0.6), ``minhash_lsh`` must evaluate
fewer pairs than the exact head-split ``set_scan``.
"""

from repro import engine
from repro.core import JoinSpec
from repro.datasets import planted_jaccard_sets

JACCARD_FULL = dict(n=20_000, n_queries=2_000, universe=8_192, mean_size=32,
                    threshold=0.6, block=256, seed=2016)


def test_jaccard_minhash_prunes_pairs():
    cfg = JACCARD_FULL
    P, Q = planted_jaccard_sets(cfg["n"], cfg["n_queries"],
                                universe=cfg["universe"],
                                mean_size=cfg["mean_size"],
                                threshold=cfg["threshold"], seed=cfg["seed"])
    spec = JoinSpec(s=cfg["threshold"], measure="jaccard")
    scan = engine.join(P, Q, spec, backend="set_scan", block=cfg["block"])
    approx = engine.join(P, Q, spec, backend="minhash_lsh", seed=cfg["seed"],
                         block=cfg["block"])
    print(f"pairs evaluated: set_scan {scan.inner_products_evaluated}, "
          f"minhash_lsh {approx.inner_products_evaluated}")
    assert approx.inner_products_evaluated < scan.inner_products_evaluated
