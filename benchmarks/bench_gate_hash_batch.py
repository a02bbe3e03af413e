"""Speed gate: family-native batch hashing vs the generic per-row path.

Hashing the data side of a full-size index (n = 20,000, d = 64, L = 8
tables of k = 4 hashes) through the family's native ``hash_matrix``
must beat the generic per-row closure path (the same family behind
:class:`~benchmarks.conftest.PerRow`) by ``HASH_SPEEDUP_FLOORS``.
"""

import pytest

from benchmarks.conftest import PerRow, best_of
from repro.datasets import random_unit
from repro.lsh import CrossPolytopeLSH, E2LSH, LSHIndex

HASH_FULL = dict(n=20_000, d=64, n_tables=8, hashes_per_table=4, seed=2016)
HASH_SPEEDUP_FLOORS = {"crosspolytope": 10.0, "e2lsh": 10.0}
FAMILIES = {"crosspolytope": CrossPolytopeLSH,
            "e2lsh": lambda d: E2LSH(d, w=2.0)}


@pytest.mark.parametrize("name", sorted(HASH_SPEEDUP_FLOORS))
def test_hash_speedup_floor(name):
    cfg = HASH_FULL
    P = random_unit(cfg["n"], cfg["d"], seed=cfg["seed"]) * 0.95
    family = FAMILIES[name](cfg["d"])
    shape = dict(n_tables=cfg["n_tables"],
                 hashes_per_table=cfg["hashes_per_table"], seed=cfg["seed"] + 2)
    native = LSHIndex(family, **shape)._hasher
    generic = LSHIndex(PerRow(family), **shape)._hasher
    native_s, _ = best_of(lambda: native.hash_matrix(P, side="data"), repeats=3)
    generic_s, _ = best_of(lambda: generic.hash_matrix(P, side="data"))
    speedup = generic_s / native_s
    print(f"{name}: batch hashing {speedup:.1f}x the per-row path")
    assert speedup >= HASH_SPEEDUP_FLOORS[name], f"{speedup:.2f}x"
