"""Engine integration tests for the compact tier.

What must hold once ``quantized`` and ``ip_filter`` enter the engine:

* ``quantized`` is bit-identical to ``brute_force`` on every variant it
  answers — the int8 scan is a lossless *filter*, not an approximation;
* the execution knobs compose: ``n_workers`` (both pool kinds),
  ``sharded_join``, explicit Plans, and the shared arena all treat the
  new structures like any other backend's;
* the filter-stage Plan IR is validated (a filter cannot be last, must
  feed an all-queries backend stage, cannot answer a join alone) and the
  ``ip_filter -> quantized`` plan achieves near-perfect recall while
  verifying a fraction of the pair space;
* the planner prices the compact tier: ``ip_filter`` alone is
  infeasible, the hybrid appears for gapped specs, and a memory budget
  steers ``backend="auto"`` to ``quantized``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import JoinSpec
from repro.core.arena import SharedArena, freeze, thaw
from repro.engine import (
    Plan,
    Stage,
    get_backend,
    join,
    plan_join,
    quantized_filter_plan,
    sharded_join,
)
from repro.engine.planner import default_model
from repro.errors import ParameterError

TEST_WORKERS = 2


@pytest.fixture(scope="module")
def instance():
    """Normalized rows with a few awkward ones (zero, tiny, huge norms)."""
    rng = np.random.default_rng(23)
    P = rng.standard_normal((300, 24))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    Q = rng.standard_normal((60, 24))
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    P[0] = 0.0
    P[1] *= 1e-9
    P[2] *= 1e6
    Q[0] = 0.0
    Q[1] *= 1e-9
    return P, Q


@pytest.fixture(scope="module")
def planted():
    """High-d instance with planted near-duplicates in the (cs, s) gap."""
    rng = np.random.default_rng(5)
    d, n, m, k, rho = 128, 800, 120, 30, 0.92
    P = rng.standard_normal((n, d))
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    Q = rng.standard_normal((m, d))
    Q /= np.linalg.norm(Q, axis=1, keepdims=True)
    idx = rng.choice(n, size=k, replace=False)
    noise = rng.standard_normal((k, d))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    Q[:k] = rho * P[idx] + math.sqrt(1 - rho * rho) * noise
    Q[:k] /= np.linalg.norm(Q[:k], axis=1, keepdims=True)
    return P, Q


class TestQuantizedExactness:
    @pytest.mark.parametrize("signed", [True, False])
    @pytest.mark.parametrize("k", [None, 3])
    def test_bit_identical_to_brute(self, instance, signed, k):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=signed, k=k)
        brute = join(P, Q, spec, backend="brute_force")
        quant = join(P, Q, spec, backend="quantized")
        assert brute.matched_count > 0
        assert quant.matches == brute.matches
        assert quant.topk == brute.topk
        assert quant.backend == "quantized"
        assert quant.error_bound is not None and quant.error_bound >= 0.0

    def test_scan_prunes_the_pair_space(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.6, c=0.9, signed=True)
        brute = join(P, Q, spec, backend="brute_force")
        quant = join(P, Q, spec, backend="quantized")
        # Verification touches survivors only; brute touches every pair.
        assert quant.inner_products_evaluated < (
            brute.inner_products_evaluated
        )

    def test_accumulate_modes_agree(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        a = join(P, Q, spec, backend="quantized", accumulate="float32")
        b = join(P, Q, spec, backend="quantized", accumulate="int32")
        assert a.matches == b.matches

    def test_float32_rejected_beyond_exact_dim(self, rng):
        from repro.quant import FLOAT32_EXACT_D

        d = FLOAT32_EXACT_D + 1
        P = rng.standard_normal((4, d))
        Q = rng.standard_normal((2, d))
        spec = JoinSpec(s=1.0, c=0.5, signed=True)
        with pytest.raises(ParameterError, match="float32"):
            join(P, Q, spec, backend="quantized", accumulate="float32")
        # auto silently falls back to int32 at this dimension
        join(P, Q, spec, backend="quantized")

    def test_option_validation(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        with pytest.raises(ParameterError, match="accumulate"):
            join(P, Q, spec, backend="quantized", accumulate="int64")
        with pytest.raises(ParameterError, match="scan_block"):
            join(P, Q, spec, backend="quantized", scan_block=0)
        with pytest.raises(ParameterError, match="quantized takes only"):
            join(P, Q, spec, backend="quantized", kappa=2)
        with pytest.raises(ParameterError, match="variant"):
            spec_self = JoinSpec(s=0.5, c=0.8, self_join=True)
            join(P, None, spec_self, backend="quantized")


class TestCompactTierComposition:
    @pytest.mark.parametrize("pool", ["process", "thread"])
    def test_quantized_parallel_identical_to_serial(self, instance, pool):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        serial = join(P, Q, spec, backend="quantized", n_workers=1)
        assert serial.matched_count > 0
        par = join(
            P, Q, spec, backend="quantized",
            n_workers=TEST_WORKERS, pool=pool, block=16,
        )
        assert par.matches == serial.matches
        assert par.inner_products_evaluated == (
            serial.inner_products_evaluated
        )
        assert par.error_bound == serial.error_bound

    @pytest.mark.parametrize("pool", ["process", "thread"])
    def test_filter_plan_parallel_identical_to_serial(self, planted, pool):
        P, Q = planted
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        the_plan = quantized_filter_plan()
        serial = join(P, Q, spec, backend=the_plan, seed=7, n_workers=1)
        par = join(
            P, Q, spec, backend=the_plan, seed=7,
            n_workers=TEST_WORKERS, pool=pool, block=16,
        )
        assert par.matches == serial.matches
        assert par.candidates_generated == serial.candidates_generated
        assert par.error_bound == serial.error_bound

    def test_sharded_join_composes(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        brute = sharded_join(P, Q, spec, 3, backend="brute_force")
        quant = sharded_join(P, Q, spec, 3, backend="quantized")
        assert quant.matches == brute.matches
        assert quant.backend == "quantized@3shards"

    def test_structure_freezes_through_arena(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        impl = get_backend("quantized")
        payload, final_spec = impl.prepare(P, spec, block=64, n_workers=1)
        structure = payload.build(P)
        direct = impl.run_chunk(structure, P, Q, 0)
        with SharedArena() as arena:
            blob = freeze(structure, arena)
            thawed = thaw(blob)
            assert np.array_equal(thawed.data.codes, structure.data.codes)
            assert np.array_equal(thawed.data.scales, structure.data.scales)
            roundtrip = impl.run_chunk(thawed, P, Q, 0)
            assert roundtrip.matches == direct.matches


class TestFilterPlan:
    def test_recall_and_selectivity(self, planted):
        P, Q = planted
        n, m = P.shape[0], Q.shape[0]
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        brute = join(P, Q, spec, backend="brute_force")
        filt = join(
            P, Q, spec,
            backend=quantized_filter_plan(filter_options={"n_dims": 64}),
            seed=7,
        )
        assert filt.backend == "ip_filter+quantized"
        assert filt.error_bound is not None and filt.error_bound > 0.0
        truth = {q for q, p in enumerate(brute.matches) if p is not None}
        got = {q for q, p in enumerate(filt.matches) if p is not None}
        assert truth, "planted instance must have matches"
        recall = len(truth & got) / len(truth)
        assert recall >= 0.99
        # Every answered query's partner clears cs (exact verification).
        for q, p in enumerate(filt.matches):
            if p is not None:
                assert float(P[p] @ Q[q]) >= spec.cs - 1e-9
        # The exact GEMM ran on survivors only, not the full pair space.
        assert filt.inner_products_evaluated < 0.25 * n * m

    def test_filter_options_forwarded(self, planted):
        P, Q = planted
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        result = join(
            P, Q, spec,
            backend=quantized_filter_plan(
                filter_options={"n_dims": 64, "bits": 1, "z": 4.0},
                verify_options={"accumulate": "auto"},
            ),
            seed=3,
        )
        assert result.backend == "ip_filter+quantized"

    def test_filter_cannot_answer_alone(self, planted):
        P, Q = planted
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        with pytest.raises(ParameterError, match="cannot answer"):
            join(P, Q, spec, backend="ip_filter")

    def test_plan_validation(self):
        with pytest.raises(ParameterError, match="cannot be last"):
            Plan(stages=(Stage(backend="ip_filter", kind="filter"),))
        with pytest.raises(ParameterError, match="consumes its proposals"):
            Plan(stages=(
                Stage(backend="ip_filter", kind="filter"),
                Stage(backend="quantized", queries="unanswered"),
            ))
        with pytest.raises(ParameterError, match="kind"):
            Stage(backend="ip_filter", kind="sieve")
        with pytest.raises(ParameterError, match="queries='all'"):
            Stage(backend="ip_filter", kind="filter", queries="unanswered")
        with pytest.raises(ParameterError, match="kind"):
            # a filter backend inside a kind="backend" stage of a
            # multi-stage plan is a mismatch the engine must reject
            join(
                np.eye(4), np.eye(4),
                JoinSpec(s=0.5, c=0.8, signed=True),
                backend=Plan(stages=(
                    Stage(backend="ip_filter"),
                    Stage(backend="quantized", queries="unanswered"),
                )),
            )

    def test_filter_option_validation(self, planted):
        P, Q = planted
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        for bad in (
            {"filter_options": {"n_dims": 0}},
            {"filter_options": {"bits": 4}},
            {"filter_options": {"z": 0.0}},
        ):
            with pytest.raises(ParameterError):
                join(
                    P, Q, spec, backend=quantized_filter_plan(**bad), seed=0
                )

    def test_direct_proposals_option(self, instance):
        P, Q = instance
        n, m = P.shape[0], Q.shape[0]
        spec = JoinSpec(s=0.5, c=0.8, signed=True)
        brute = join(P, Q, spec, backend="brute_force")
        # Full candidate lists: verify-only mode must reproduce brute.
        full = [np.arange(n)] * m
        result = join(P, Q, spec, backend="quantized", proposals=full)
        assert result.matches == brute.matches
        assert result.inner_products_evaluated == n * m
        with pytest.raises(ParameterError, match=">= n"):
            join(
                P, Q, spec, backend="quantized",
                proposals=[np.array([n])] * m,
            )
        with pytest.raises(ParameterError, match="negative"):
            join(
                P, Q, spec, backend="quantized",
                proposals=[np.array([-1])] * m,
            )
        with pytest.raises(ParameterError, match="one candidate list"):
            join(
                P, Q, spec, backend="quantized",
                proposals=[np.arange(n)] * (m - 1),
            )


class TestPlannerCompactTier:
    def test_ip_filter_standalone_infeasible(self):
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        ranked = plan_join(10000, 1000, 64, spec)
        by_name = {e.backend: e for e in ranked.estimates}
        assert not by_name["ip_filter"].feasible
        assert "Plan" in by_name["ip_filter"].reason

    def test_hybrid_candidate_for_gap_specs(self):
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        ranked = plan_join(10000, 1000, 64, spec)
        hybrids = [
            p for p in ranked.plans if p.backend == "ip_filter+quantized"
        ]
        assert len(hybrids) == 1 and hybrids[0].feasible
        assert len(hybrids[0].stage_estimates) == 2

    def test_no_hybrid_for_exact_specs(self):
        spec = JoinSpec(s=0.85, c=1.0, signed=True)
        ranked = plan_join(10000, 1000, 64, spec)
        assert not any(
            p.backend == "ip_filter+quantized" for p in ranked.plans
        )

    def test_memory_budget_steers_auto_to_quantized(self):
        n, m, d = 200000, 2000, 64
        spec = JoinSpec(s=0.85, c=1.0, signed=True)
        base = default_model()
        assert plan_join(n, m, d, spec, base).best_plan.backend != "quantized"
        tight = replace(base, mem_budget_bytes=float(n * d * 4))
        ranked = plan_join(n, m, d, spec, tight)
        assert ranked.best_plan.backend == "quantized"

    def test_memory_factor(self):
        model = default_model()
        assert model.memory_factor(512.0, 1000) == 1.0  # budget off
        tight = replace(
            model, mem_budget_bytes=1e6, mem_over_budget_penalty=8.0
        )
        assert tight.memory_factor(512.0, 1000) == 1.0  # fits
        assert tight.memory_factor(512.0, 100000) == 8.0  # over

    def test_auto_runs_quantized_end_to_end(self, instance):
        P, Q = instance
        spec = JoinSpec(s=0.5, c=1.0, signed=True)
        tight = replace(
            default_model(),
            mem_budget_bytes=float(P.shape[0] * P.shape[1] * 4),
        )
        brute = join(P, Q, spec, backend="brute_force")
        auto = join(P, Q, spec, backend="auto", model=tight)
        assert brute.matched_count > 0
        assert auto.backend == "quantized"
        assert auto.matches == brute.matches
