"""Approximate unsigned MIPS through the Section 4.3 sketch structure: a
point query is ``SketchCMIPS.query``, and a batch runs as the ``sketch``
join, which bills the descent's cost a query."""

from repro import engine
from repro.core import JoinSpec
from repro.core.brute_force import brute_force_mips
from repro.datasets import planted_mips
from repro.sketches import SketchCMIPS


class TestSketchMIPS:
    def test_within_factor(self):
        inst = planted_mips(256, 8, 24, s=0.9, c=0.3, seed=11)
        structure = SketchCMIPS(inst.P, kappa=4.0, copies=9, seed=12)
        for qi in range(8):
            opt = abs(brute_force_mips(inst.P, inst.Q[qi]).value)
            got = structure.query(inst.Q[qi]).value
            assert got >= structure.approximation_factor * opt / 4.0

    def test_work_reported(self):
        inst = planted_mips(256, 8, 24, s=0.9, c=0.3, seed=13)
        structure = SketchCMIPS(inst.P, kappa=3.0, copies=5, seed=14)
        per_query = structure.recovery.query_cost() // inst.P.shape[1]
        assert per_query > 0
        result = engine.join(
            inst.P, inst.Q, JoinSpec(s=inst.s, signed=False),
            backend="sketch", structure=structure,
        )
        assert result.inner_products_evaluated == per_query * inst.Q.shape[0]
        assert result.candidates_generated == inst.Q.shape[0]
