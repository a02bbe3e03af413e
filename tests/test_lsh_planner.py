import math

import numpy as np
import pytest

from repro.datasets import planted_mips
from repro.errors import ParameterError
from repro.lsh import DataDepALSH, LSHIndex, plan, plan_datadep
from repro.lsh.rho import collision_prob_hyperplane


class TestPlan:
    def test_k_controls_false_candidates(self):
        config = plan(n=10000, p1=0.9, p2=0.5, delta=0.1)
        # n * P2^k <= 1 by the choice of k.
        assert 10000 * config.p2 ** config.k <= 1.0 + 1e-9

    def test_success_probability_meets_delta(self):
        config = plan(n=10000, p1=0.9, p2=0.5, delta=0.1)
        assert config.success_probability >= 0.9 - 1e-9

    def test_rho_matches_definition(self):
        config = plan(n=1000, p1=0.8, p2=0.4, delta=0.2)
        assert abs(config.rho - math.log(0.8) / math.log(0.4)) < 1e-12

    def test_tables_scale_like_n_to_rho(self):
        small = plan(n=10 ** 3, p1=0.9, p2=0.5)
        large = plan(n=10 ** 6, p1=0.9, p2=0.5)
        ratio = large.n_tables / small.n_tables
        predicted = (10 ** 6 / 10 ** 3) ** small.rho
        assert 0.2 * predicted <= ratio <= 5 * predicted

    def test_expected_false_candidates_bounded(self):
        config = plan(n=10 ** 4, p1=0.9, p2=0.5)
        assert config.expected_false_candidates <= config.n_tables + 1e-9

    def test_no_gap_rejected(self):
        with pytest.raises(ParameterError):
            plan(n=100, p1=0.5, p2=0.5)
        with pytest.raises(ParameterError):
            plan(n=100, p1=0.4, p2=0.5)

    def test_guards(self):
        with pytest.raises(ParameterError, match="max_k"):
            plan(n=10 ** 9, p1=0.9999, p2=0.999, max_k=10)
        with pytest.raises(ParameterError, match="max_tables"):
            plan(n=10 ** 6, p1=0.51, p2=0.5, max_tables=4)


class TestPlanDataDep:
    def test_uses_hyperplane_form(self):
        config = plan_datadep(n=1000, s=0.8, c=0.5)
        assert abs(config.p1 - collision_prob_hyperplane(0.8)) < 1e-12
        assert abs(config.p2 - collision_prob_hyperplane(0.4)) < 1e-12

    def test_query_radius_scales_similarities(self):
        a = plan_datadep(n=1000, s=0.8, c=0.5, query_radius=1.0)
        b = plan_datadep(n=1000, s=1.6, c=0.5, query_radius=2.0)
        assert a.k == b.k and a.n_tables == b.n_tables

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            plan_datadep(n=100, s=2.0, c=0.5)       # s/U > 1
        with pytest.raises(ParameterError):
            plan_datadep(n=100, s=0.5, c=1.5)

    def test_planned_index_achieves_recall(self):
        # End-to-end: build the planned index and check the recall target.
        inst = planted_mips(800, 24, 32, s=0.85, c=0.4, seed=0)
        config = plan_datadep(n=inst.n, s=inst.s, c=0.4, delta=0.2)
        idx = LSHIndex(
            DataDepALSH(32, sphere="hyperplane"),
            n_tables=config.n_tables, hashes_per_table=min(config.k, 62), seed=1
        ).build(inst.P)
        hits = 0
        for qi in range(24):
            cand = idx.candidates(inst.Q[qi])
            if cand.size and (inst.P[cand] @ inst.Q[qi]).max() >= inst.cs:
                hits += 1
        assert hits / 24 >= 1.0 - 0.2 - 0.15  # delta plus sampling slack
