"""Engine integration tests for the compact tier.

What must hold once ``quantized`` and ``ip_filter`` enter the engine:

* ``quantized`` is bit-identical to ``brute_force`` on every variant it
  answers — the int8 scan is a lossless *filter*, not an approximation;
* the execution knobs compose: ``n_workers`` (both pool kinds),
  ``sharded_join``, explicit Plans, and the shared arena all treat the
  new structures like any other backend's;
* ``ip_filter`` (sketch-filter proposals, verified exactly) achieves
  near-perfect recall while verifying a fraction of the pair space;
* the planner prices the compact tier: ``ip_filter`` is feasible for
  gapped specs only, and a memory budget steers ``backend="auto"`` to
  ``quantized``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import JoinSpec
from repro.core.arena import SharedArena, freeze, thaw
from repro.engine import get_backend, join, plan_join, sharded_join
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
        serial = join(P, Q, spec, backend="ip_filter", seed=7, n_workers=1)
        par = join(
            P, Q, spec, backend="ip_filter", seed=7,
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
        filt = join(P, Q, spec, backend="ip_filter", n_dims=64, seed=7)
        assert filt.backend == "ip_filter"
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
            P, Q, spec, backend="ip_filter", n_dims=64, bits=1, z=4.0,
            seed=3,
        )
        assert result.backend == "ip_filter"

    def test_filter_option_validation(self, planted):
        P, Q = planted
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        # A negative scan_block walked no sketch tile: no survivors, so
        # the 1-bit filter answered nothing without an error.
        for bad in ({"n_dims": 0}, {"bits": 4}, {"z": 0.0},
                    {"scan_block": 0}, {"bits": 1, "scan_block": -1}):
            with pytest.raises(ParameterError):
                join(P, Q, spec, backend="ip_filter", seed=0, **bad)

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
    def test_ip_filter_feasible_for_gap_specs(self):
        spec = JoinSpec(s=0.85, c=0.7, signed=True)
        ranked = plan_join(10000, 1000, 64, spec)
        entries = [p for p in ranked.plans if p.backend == "ip_filter"]
        assert len(entries) == 1 and entries[0].feasible
        assert len(entries[0].stage_estimates) == 1

    def test_ip_filter_infeasible_for_exact_specs(self):
        spec = JoinSpec(s=0.85, c=1.0, signed=True)
        ranked = plan_join(10000, 1000, 64, spec)
        by_name = {p.backend: p for p in ranked.plans}
        assert not by_name["ip_filter"].feasible
        assert "gap" in by_name["ip_filter"].reason

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
