"""Speed gate: an LSH index build costs about its sign GEMM.

Building a ``HyperplaneLSH`` index of 16 tables x 12 bits is one
``n x d x 192`` GEMM, then the sign, the Horner pack and one bucket sort
per table, which should together cost less than the GEMM.

* ``lsh_build_within_gemm_ceiling``: on ``planted_unit(24_000, 32, ...)``
  (the size of ``ip_oneshot_auto``'s LSH tail) and
  ``planted_unit(100_000, 64, ...)`` (``ip_point_lsh``'s index),
  ``LSHIndex.build`` may take at most ``LSH_BUILD_CEILING`` (3.0x) the
  wall of the bare ``P @ projections.T`` (interleaved, median per-round
  ratio over 9 rounds).

A ratio to the build's own GEMM does not depend on host speed.
"""

import pytest

from benchmarks.conftest import paired, planted_unit
from repro.lsh import HyperplaneLSH, LSHIndex

LSH_BUILD_INPUTS = {"tail": dict(n=24_000, d=32), "point": dict(n=100_000, d=64)}
LSH_BUILD_FULL = dict(n_tables=16, hashes_per_table=12, n_queries=16,
                      seed=2016, repeats=9)
LSH_BUILD_CEILING = 3.0


@pytest.mark.parametrize("name", sorted(LSH_BUILD_INPUTS))
def test_lsh_build_within_gemm_ceiling(name):
    cfg, size = LSH_BUILD_FULL, LSH_BUILD_INPUTS[name]
    P, _ = planted_unit(size["n"], size["d"], cfg["n_queries"], seed=cfg["seed"])
    index = LSHIndex(HyperplaneLSH(size["d"]), n_tables=cfg["n_tables"],
                     hashes_per_table=cfg["hashes_per_table"], seed=cfg["seed"])
    projections = index._hasher._projections
    overhead, _, _ = paired(lambda _: P @ projections.T,
                            lambda _: index.build(P), repeats=cfg["repeats"])
    ratio = 1.0 + overhead
    print(f"{name} ({size['n']:,} x {size['d']}): build {ratio:.2f}x its GEMM")
    assert ratio <= LSH_BUILD_CEILING, f"{ratio:.2f}x"
