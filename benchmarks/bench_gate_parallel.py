"""Speed gate: the zero-copy executor scales to 4 workers.

On a planted n = 40,000, d = 64 ``lsh`` join with 2,048 queries, the
faster of the process and thread pools at 4 workers must run at least
``PARALLEL_4W_SPEEDUP_FLOOR`` times faster than the serial join.  The
gate needs at least 4 cores; on a smaller host it is not measurable and
skips.
"""

import os

import pytest

from benchmarks.conftest import best_of, hyperplane_recipe, planted_unit
from repro import engine
from repro.core import JoinSpec, close_pools

PARALLEL_FULL = dict(n=40_000, d=64, n_queries=2_048, n_tables=10,
                     bits_per_table=12, block=256, workers=4, repeats=2,
                     seed=2016)
PARALLEL_4W_SPEEDUP_FLOOR = 2.0


def test_parallel_4w_speedup_floor():
    cfg = PARALLEL_FULL
    cores = os.cpu_count() or 1
    if cores < cfg["workers"]:
        pytest.skip(f"not measurable: {cores} cores < {cfg['workers']}")
    P, Q = planted_unit(cfg["n"], cfg["d"], cfg["n_queries"], cfg["seed"])
    spec = JoinSpec(s=0.75, c=0.8)
    recipe = hyperplane_recipe(cfg["d"], cfg, cfg["seed"] + 2)

    def join_on(n_workers, pool="process"):
        return engine.join(P, Q, spec, backend="lsh", **recipe,
                           n_workers=n_workers, pool=pool, block=cfg["block"])

    try:
        serial_s, _ = best_of(lambda: join_on(1), repeats=cfg["repeats"])
        parallel_s = min(
            best_of(lambda pool=pool: join_on(cfg["workers"], pool),
                    repeats=cfg["repeats"])[0]
            for pool in ("process", "thread"))
    finally:
        close_pools()
    speedup = serial_s / parallel_s
    print(f"{cfg['workers']} workers: {speedup:.2f}x serial")
    assert speedup >= PARALLEL_4W_SPEEDUP_FLOOR, f"{speedup:.2f}x"
