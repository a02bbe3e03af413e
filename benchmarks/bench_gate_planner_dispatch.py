"""Speed gates: ``repro.engine.join`` dispatch vs the bare kernels.

On a planted n = 20,000, d = 64 join with 1,000 queries, the engine's
planning, validation and result assembly may add at most
``DISPATCH_OVERHEAD_CEILING`` (5%) to the wall of calling the kernel it
dispatches to, for ``brute_force`` and for ``lsh`` over a prebuilt
index.  Both sides run interleaved (:func:`~benchmarks.conftest.paired`)
and the gated figure is the median per-round ratio.
"""

import pytest

from benchmarks.conftest import hyperplane_index, paired, planted_unit
from repro import engine
from repro.core import JoinSpec
from repro.core.brute_force import brute_force_join
from repro.core.lsh_join import lsh_candidates, pipeline_chunk

PLANNER_FULL = dict(n=20_000, d=64, n_queries=1_000, s=0.75, c=0.8,
                    n_tables=8, bits_per_table=10, block=256, repeats=21,
                    seed=2016)
DISPATCH_OVERHEAD_CEILING = 0.05


@pytest.fixture(scope="module")
def workload():
    cfg = PLANNER_FULL
    P, Q = planted_unit(cfg["n"], cfg["d"], cfg["n_queries"], cfg["seed"])
    return P, Q, JoinSpec(s=cfg["s"], c=cfg["c"])


def _gate(kernel, dispatched, label):
    overhead, _, _ = paired(lambda _: kernel(), lambda _: dispatched(),
                            repeats=PLANNER_FULL["repeats"])
    print(f"{label}: engine dispatch overhead {overhead:+.2%}")
    assert overhead <= DISPATCH_OVERHEAD_CEILING, f"{overhead:+.2%}"


def test_dispatch_overhead_brute_within_ceiling(workload):
    P, Q, spec = workload
    block = PLANNER_FULL["block"]
    _gate(lambda: brute_force_join(P, Q, spec, block=block),
          lambda: engine.join(P, Q, spec, backend="brute_force", block=block),
          "brute_force")


def test_dispatch_overhead_lsh_within_ceiling(workload):
    P, Q, spec = workload
    cfg = PLANNER_FULL
    index = hyperplane_index(P, cfg, cfg["seed"] + 2)
    _gate(lambda: pipeline_chunk(lsh_candidates(index, Q), P, Q, spec,
                                 cfg["block"]),
          lambda: engine.join(P, Q, spec, backend="lsh", index=index,
                              block=cfg["block"]),
          "lsh")
