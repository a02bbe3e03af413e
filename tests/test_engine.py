"""The unified join engine: backends, planner, dispatch, and stats.

Two contracts are enforced here.  *Equivalence*: ``repro.engine.join``
with an explicit backend is bit-identical to calling its kernel
directly, and ``backend="auto"`` returns a valid exact answer matching brute force on
small inputs (where the planner's fixed build charges always select an
exact backend).  *Stats*: :class:`QueryStats` merging is a single
field-wise monoid, and engine-level stats are identical serial vs
parallel.
"""

import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec, QueryStats, brute_force_join
from repro.datasets import planted_mips
from repro.engine import (
    CostEstimate,
    CostModel,
    available_backends,
    get_backend,
    plan_join,
    register,
)
from repro.errors import ParameterError
from repro.lsh import DataDepALSH, LSHIndex


@pytest.fixture(scope="module")
def instance():
    return planted_mips(600, 24, 32, s=0.85, c=0.5, seed=7)


@pytest.fixture(scope="module")
def spec():
    return JoinSpec(s=0.85, c=0.5, signed=True)


class TestBackendEquivalence:
    """engine.join(backend=...) == the direct kernel call, bit for bit."""

    def test_brute_force_signed(self, instance, spec):
        legacy = brute_force_join(instance.P, instance.Q, spec)
        assert legacy.matched_count > 0
        result = engine.join(instance.P, instance.Q, spec, backend="brute_force")
        assert result.matches == legacy.matches
        assert result.inner_products_evaluated == legacy.inner_products_evaluated
        assert result.candidates_generated == legacy.candidates_generated
        assert result.backend == "brute_force"

    def test_brute_force_unsigned(self, instance):
        uspec = JoinSpec(s=0.85, c=0.5, signed=False)
        legacy = brute_force_join(instance.P, instance.Q, uspec)
        result = engine.join(instance.P, instance.Q, uspec, backend="brute_force")
        assert result.matches == legacy.matches

    def test_norm_pruned(self, instance, spec):
        reference = brute_force_join(instance.P, instance.Q, spec)
        assert reference.matched_count > 0
        result = engine.join(instance.P, instance.Q, spec, backend="norm_pruned")
        # Norm pruning is exact: it must reproduce brute force.
        assert result.matches == reference.matches

    def test_lsh_matches_direct_index_construction(self, instance, spec):
        """Same seed ⇒ the engine builds the same LSHIndex as a direct
        construction, and runs the same chunk kernel over it."""
        family = DataDepALSH(32)
        index = LSHIndex(
            family, n_tables=10, hashes_per_table=5, seed=11
        ).build(instance.P)
        from repro.core.lsh_join import lsh_candidates, pipeline_chunk

        matches, evaluated = pipeline_chunk(
            lsh_candidates(index, instance.Q), instance.P, instance.Q,
            spec, 1024,
        )
        assert any(m is not None for m in matches)
        for options in (dict(family=family, n_tables=10, hashes_per_table=5,
                             seed=11), dict(index=index)):
            result = engine.join(
                instance.P, instance.Q, spec, backend="lsh", **options
            )
            assert result.matches == matches
            assert result.inner_products_evaluated == evaluated


class TestAutoDispatch:
    """backend="auto": valid results, exact on small inputs."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("signed", [True, False])
    def test_auto_matches_brute_force_on_small_inputs(self, seed, signed):
        rng = np.random.default_rng(seed)
        P = rng.standard_normal((200, 16))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        Q = rng.standard_normal((50, 16))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        jspec = JoinSpec(s=0.6, c=0.7, signed=signed)
        reference = brute_force_join(P, Q, jspec)
        result = engine.join(P, Q, jspec, backend="auto")
        # On instances this small the planner's fixed build charges make
        # probabilistic backends uncompetitive: the winner is exact.
        assert result.backend in ("brute_force", "norm_pruned")
        assert result.matches == reference.matches

    def test_auto_self_join_small(self):
        rng = np.random.default_rng(3)
        P = rng.standard_normal((120, 12))
        reference = engine.join(
            P, None, JoinSpec(s=0.5, c=0.8), backend="brute_force", block=512
        )
        assert reference.matched_count > 0
        result = engine.join(
            P, None, JoinSpec(s=0.5, c=0.8, self_join=True), backend="auto"
        )
        assert result.matches == reference.matches

    def test_auto_result_is_valid(self, instance, spec):
        """Every reported match really clears cs (Definition 1)."""
        result = engine.join(instance.P, instance.Q, spec, backend="auto")
        for i, match in enumerate(result.matches):
            if match is not None:
                assert float(instance.P[match] @ instance.Q[i]) >= spec.cs


class TestPlanner:
    def test_small_instances_prefer_exact(self):
        for n, m, d in ((100, 20, 16), (200, 100, 32)):
            plan = plan_join(n, m, d, JoinSpec(s=0.8, c=0.5))
            assert plan.backend in ("brute_force", "norm_pruned")

    def test_large_gap_instances_prefer_lsh(self):
        plan = plan_join(2_000_000, 2_000_000, 32, JoinSpec(s=0.9, c=0.3))
        assert plan.backend == "lsh"
        unsigned = JoinSpec(s=0.9, c=0.3, signed=False)
        assert plan_join(2_000_000, 2_000_000, 32, unsigned).backend in (
            "lsh", "sketch")

    def test_sketch_feasible_only_unsigned(self):
        ranked = {
            e.backend: e
            for e in plan_join(1000, 100, 16, JoinSpec(s=0.8, c=0.5)).estimates
        }
        assert not ranked["sketch"].feasible
        ranked_u = {
            e.backend: e
            for e in plan_join(
                1000, 100, 16, JoinSpec(s=0.8, c=0.5, signed=False)
            ).estimates
        }
        assert ranked_u["sketch"].feasible

    def test_exact_demand_rules_out_probabilistic(self):
        ranked = {
            e.backend: e
            for e in plan_join(1000, 100, 16, JoinSpec(s=0.8, c=1.0)).estimates
        }
        assert not ranked["lsh"].feasible
        assert not ranked["sketch"].feasible
        assert ranked["brute_force"].feasible
        plan = plan_join(50_000, 50_000, 64, JoinSpec(s=0.8, c=1.0))
        assert plan.backend in ("brute_force", "norm_pruned")

    def test_topk_variant_feasibility(self):
        ranked = {
            e.backend: e
            for e in plan_join(
                1000, 100, 16, JoinSpec(s=0.8, c=0.5, k=3)
            ).estimates
        }
        assert ranked["brute_force"].feasible
        assert ranked["norm_pruned"].feasible
        assert not ranked["sketch"].feasible

    def test_estimates_sorted_feasible_then_cheapest(self):
        plan = plan_join(5000, 500, 32, JoinSpec(s=0.8, c=0.5, signed=False))
        feasible = [e for e in plan.estimates if e.feasible]
        assert feasible == sorted(feasible, key=lambda e: e.total_ops)
        assert plan.estimates[: len(feasible)] == feasible

    def test_engine_plan_entry_point(self, instance, spec):
        plan = engine.plan(instance.P, instance.Q, spec)
        assert plan.n == 600 and plan.m == 24 and plan.d == 32
        assert plan.backend == engine.join(
            instance.P, instance.Q, spec, backend="auto"
        ).backend


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert available_backends()[:4] == [
            "brute_force", "norm_pruned", "lsh", "sketch",
        ]

    def test_unknown_backend_is_loud(self, instance, spec):
        with pytest.raises(ParameterError, match="unknown backend"):
            engine.join(instance.P, instance.Q, spec, backend="quantum")

    def test_duplicate_registration_is_loud(self):
        with pytest.raises(ParameterError, match="already registered"):
            register(get_backend("brute_force"))
        # Explicit replacement is allowed (and restores the original).
        register(get_backend("brute_force"), replace=True)

    def test_unnamed_backend_rejected(self):
        class Nameless(type(get_backend("brute_force"))):
            name = ""

        with pytest.raises(ParameterError, match="non-empty name"):
            register(Nameless())


class TestOptionValidation:
    def test_unknown_options_rejected(self, instance, spec):
        with pytest.raises(ParameterError, match="no extra options"):
            engine.join(
                instance.P, instance.Q, spec,
                backend="brute_force", warp_speed=True,
            )

    def test_sketch_rejects_signed(self, instance, spec):
        with pytest.raises(ParameterError, match="unsigned-only"):
            engine.join(instance.P, instance.Q, spec, backend="sketch")

    def test_norm_pruned_rejects_self(self, instance):
        with pytest.raises(ParameterError, match="does not answer"):
            engine.join(
                instance.P, None, JoinSpec(s=0.8, c=0.5),
                backend="norm_pruned",
            )

    def test_norm_pruned_topk_matches_brute(self, instance):
        spec = JoinSpec(s=0.8, c=0.5, k=2)
        exact = engine.join(instance.P, instance.Q, spec, backend="brute_force")
        pruned = engine.join(instance.P, instance.Q, spec, backend="norm_pruned")
        assert pruned.topk == exact.topk
        assert pruned.matches == exact.matches
        assert pruned.inner_products_evaluated <= exact.inner_products_evaluated

    def test_self_spec_requires_q_none(self, instance):
        with pytest.raises(ParameterError, match="pass Q=None"):
            engine.join(
                instance.P, instance.Q,
                JoinSpec(s=0.8, c=0.5, self_join=True),
            )

    @pytest.mark.parametrize("pool", ["process", "thread"])
    @pytest.mark.parametrize("backend", ["lsh", "sketch"])
    def test_parallel_generator_seed_matches_serial(
        self, instance, backend, pool
    ):
        """Structures are built once, before any worker runs, so a
        Generator seed is as reproducible in parallel as serially."""
        if backend == "lsh":
            spec = JoinSpec(s=0.85, c=0.5)
            options = dict(family=DataDepALSH(32), n_tables=16,
                           hashes_per_table=2)
        else:
            spec = JoinSpec(s=0.85, signed=False)
            options = {}
        serial = engine.join(
            instance.P, instance.Q, spec, backend=backend,
            seed=np.random.default_rng(5), **options,
        )
        parallel = engine.join(
            instance.P, instance.Q, spec, backend=backend,
            seed=np.random.default_rng(5), n_workers=2, pool=pool, **options,
        )
        assert serial.matched_count > 0
        assert parallel.matches == serial.matches
        assert parallel.stats == serial.stats
        assert parallel.candidates_generated == serial.candidates_generated


class TestQueryStatsMerge:
    def test_merge_is_fieldwise_sum(self):
        a = QueryStats(queries=2, candidates=10, unique_candidates=7,
                       probe_candidates=3, probed_buckets=1)
        b = QueryStats(queries=5, candidates=1, unique_candidates=1)
        merged = a.merge(b)
        assert merged == QueryStats(
            queries=7, candidates=11, unique_candidates=8,
            probe_candidates=3, probed_buckets=1,
        )
        # Monoid laws: commutative, identity.
        assert b.merge(a) == merged
        assert a.merge(QueryStats()) == a
        # Operands unchanged.
        assert a.queries == 2 and b.queries == 5

    def test_merge_all_skips_none(self):
        parts = [QueryStats(queries=1), None, QueryStats(candidates=4)]
        assert QueryStats.merge_all(parts) == QueryStats(queries=1, candidates=4)

    def test_diff_inverts_merge(self):
        a = QueryStats(queries=2, candidates=10)
        b = QueryStats(queries=5, candidates=3, probed_buckets=2)
        assert a.merge(b).diff(a) == b

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_engine_stats_identical_serial_vs_parallel(self, instance, spec, n_workers):
        recipe = dict(
            family=DataDepALSH(32, sphere="hyperplane"),
            n_tables=10, hashes_per_table=8, seed=3,
        )
        serial = engine.join(
            instance.P, instance.Q, spec, backend="lsh",
            **recipe, n_workers=1,
        )
        parallel = engine.join(
            instance.P, instance.Q, spec, backend="lsh",
            **recipe, n_workers=n_workers,
        )
        assert parallel.matches == serial.matches
        assert parallel.stats == serial.stats
        assert parallel.inner_products_evaluated == serial.inner_products_evaluated
        assert parallel.candidates_generated == serial.candidates_generated

    def test_brute_force_stats_identical_serial_vs_parallel(self, instance, spec):
        serial = engine.join(
            instance.P, instance.Q, spec, backend="brute_force", n_workers=1
        )
        parallel = engine.join(
            instance.P, instance.Q, spec, backend="brute_force", n_workers=3
        )
        assert parallel.matches == serial.matches
        assert parallel.stats == serial.stats

    def test_sketch_stats_identical_serial_vs_parallel(self, instance):
        uspec = JoinSpec(s=0.85, signed=False)
        serial = engine.join(
            instance.P, instance.Q, uspec, backend="sketch",
            seed=9, n_workers=1,
        )
        parallel = engine.join(
            instance.P, instance.Q, uspec, backend="sketch",
            seed=9, n_workers=2,
        )
        assert parallel.matches == serial.matches
        assert parallel.stats == serial.stats


class TestMIPSEngineJoins:
    def test_sketch_structure_join_carries_its_c(self, instance):
        from repro.mips.sketch_engine import SketchMIPS

        mips = SketchMIPS(instance.P, kappa=3.0, copies=5, seed=5)
        result = engine.join(
            instance.P, instance.Q, JoinSpec(s=0.85, signed=False),
            backend="sketch", structure=mips.structure,
        )
        assert result.backend == "sketch"
        assert result.spec.c == pytest.approx(mips.approximation_factor)


class TestPlanIR:
    """Plan construction, one-stage equality, and hybrid execution."""

    def test_stage_validation(self):
        from repro.engine import Plan, Stage

        with pytest.raises(ParameterError, match="query rule"):
            Stage(backend="lsh", queries="leftover")
        with pytest.raises(ParameterError, match="point rule"):
            Stage(backend="lsh", points="low_norm")
        with pytest.raises(ParameterError, match="fraction"):
            Stage(backend="lsh", points="norm_top")
        with pytest.raises(ParameterError, match="fraction only applies"):
            Stage(backend="lsh", fraction=0.5)
        with pytest.raises(ParameterError, match="at least one stage"):
            Plan(stages=())

    def test_norm_partition_is_deterministic_and_sorted(self):
        from repro.engine.plan import norm_partition, norm_split_size

        rng = np.random.default_rng(3)
        P = rng.normal(size=(50, 8))
        top, tail = norm_partition(P, 0.2)
        assert top.size == norm_split_size(50, 0.2) == 10
        assert np.all(np.diff(top) > 0) and np.all(np.diff(tail) > 0)
        norms = np.linalg.norm(P, axis=1)
        assert norms[top].min() >= norms[tail].max()
        top2, tail2 = norm_partition(P, 0.2)
        assert np.array_equal(top, top2) and np.array_equal(tail, tail2)

    def test_one_stage_plan_bit_equality(self, instance, spec):
        from repro.engine import Plan

        for backend, options in (("norm_pruned", {}),
                                 ("lsh", dict(n_tables=8, hashes_per_table=6))):
            by_name = engine.join(instance.P, instance.Q, spec,
                                  backend=backend, seed=4, **options)
            by_plan = engine.join(instance.P, instance.Q, spec, seed=4,
                                  backend=Plan.single(backend, options))
            assert by_name.matched_count > 0
            assert by_plan.matches == by_name.matches
            assert by_plan.backend == by_name.backend == backend
            assert (by_plan.inner_products_evaluated
                    == by_name.inner_products_evaluated)
            assert by_plan.stats == by_name.stats
            assert by_plan.spec == by_name.spec

    def test_norm_prefix_lsh_hybrid_properties(self, instance, spec):
        from repro.engine import norm_prefix_lsh_plan
        from repro.engine.plan import norm_partition

        plan = norm_prefix_lsh_plan(prefix_fraction=0.25)
        result = engine.join(instance.P, instance.Q, spec, backend=plan, seed=9)
        assert result.backend == "norm_pruned+lsh"
        assert result.spec == spec
        cs = spec.cs
        for qi, mi in enumerate(result.matches):
            if mi is not None:
                assert float(instance.P[mi] @ instance.Q[qi]) >= cs - 1e-9
        # Stage 1 is exact over the high-norm prefix: any query answerable
        # from the prefix must be answered.
        top, _ = norm_partition(instance.P, 0.25)
        prefix_best = (instance.Q @ instance.P[top].T).max(axis=1)
        for qi in np.flatnonzero(prefix_best >= cs):
            assert result.matches[qi] is not None
        # The LSH tail is approximate, but it may lose little: the hybrid
        # answers at least 95% of the queries brute force answers.
        exact = engine.join(instance.P, instance.Q, spec, backend="brute_force")
        assert exact.matched_count > 0
        assert result.matched_count >= 0.95 * exact.matched_count

    def test_norm_prefix_lsh_hybrid_parallel_stitching(self, instance, spec):
        from repro.engine import norm_prefix_lsh_plan

        plan = norm_prefix_lsh_plan(prefix_fraction=0.25)
        serial = engine.join(
            instance.P, instance.Q, spec, backend=plan, seed=9, block=32
        )
        assert serial.matched_count > 0
        for workers in (2, 3):
            parallel = engine.join(
                instance.P, instance.Q, spec, backend=plan, seed=9,
                block=32, n_workers=workers,
            )
            assert parallel.matches == serial.matches
            assert (
                parallel.inner_products_evaluated
                == serial.inner_products_evaluated
            )
            assert parallel.stats == serial.stats

    def test_sketch_fallback_hybrid_matches_brute_matched_set(self, instance):
        from repro.engine import sketch_fallback_plan

        spec = JoinSpec(s=0.85, c=0.5, signed=False)
        plan = sketch_fallback_plan(sketch_options={"kappa": 3.0})
        hybrid = engine.join(instance.P, instance.Q, spec, backend=plan, seed=3)
        exact = engine.join(instance.P, instance.Q, spec, backend="brute_force")
        assert hybrid.backend == "sketch+brute_force"
        mine = {i for i, v in enumerate(hybrid.matches) if v is not None}
        ref = {i for i, v in enumerate(exact.matches) if v is not None}
        # The exact fallback re-answers every query the (re-verified)
        # sketch stage missed, so the matched-query sets coincide.
        assert mine == ref
        for qi, mi in enumerate(hybrid.matches):
            if mi is not None:
                assert abs(float(instance.P[mi] @ instance.Q[qi])) >= spec.cs - 1e-9

    def test_sketch_fallback_hybrid_parallel_stitching(self, instance):
        from repro.engine import sketch_fallback_plan

        spec = JoinSpec(s=0.85, c=0.5, signed=False)
        plan = sketch_fallback_plan(sketch_options={"kappa": 3.0})
        serial = engine.join(
            instance.P, instance.Q, spec, backend=plan, seed=3, block=32
        )
        for workers in (2, 3):
            parallel = engine.join(
                instance.P, instance.Q, spec, backend=plan, seed=3,
                block=32, n_workers=workers,
            )
            assert parallel.matches == serial.matches
            assert (
                parallel.inner_products_evaluated
                == serial.inner_products_evaluated
            )

    def test_topk_hybrid_entries_clear_threshold(self, instance):
        from repro.engine import norm_prefix_lsh_plan

        spec = JoinSpec(s=0.85, c=0.5, k=2)
        plan = norm_prefix_lsh_plan(prefix_fraction=0.25)
        result = engine.join(instance.P, instance.Q, spec, backend=plan, seed=9)
        assert result.backend == "norm_pruned+lsh"
        for qi, lst in enumerate(result.topk):
            for mi in lst:
                assert float(instance.P[mi] @ instance.Q[qi]) >= spec.cs - 1e-9
            assert result.matches[qi] == (lst[0] if lst else None)

    def test_multi_stage_rejects_self_variant(self, instance):
        from repro.engine import sketch_fallback_plan

        with pytest.raises(ParameterError, match="multi-stage plans answer"):
            engine.join(
                instance.P, None, JoinSpec(s=0.85, c=0.5, signed=False),
                backend=sketch_fallback_plan(),
            )

    def test_plan_rejects_engine_level_options(self, instance, spec):
        from repro.engine import norm_prefix_lsh_plan

        with pytest.raises(ParameterError, match="per-stage options"):
            engine.join(
                instance.P, instance.Q, spec,
                backend=norm_prefix_lsh_plan(), scan_block=64,
            )


class TestAutoHybrids:
    """backend="auto" can pick — and correctly execute — hybrid plans."""

    def test_auto_picks_and_runs_norm_lsh_hybrid(self):
        model = CostModel(
            hybrid_prefix_fraction=0.1, hybrid_tail_query_fraction=0.1
        )
        spec = JoinSpec(s=0.9, c=0.7)
        ranked = plan_join(4000, 1000, 32, spec, model=model)
        assert ranked.backend == "norm_pruned+lsh"
        assert ranked.best_plan.plan.is_multi_stage
        rng = np.random.default_rng(1)
        P, Q = rng.normal(size=(4000, 32)), rng.normal(size=(1000, 32))
        result = engine.join(P, Q, spec, backend="auto", model=model, seed=5)
        assert result.backend == "norm_pruned+lsh"
        for qi, mi in enumerate(result.matches):
            if mi is not None:
                assert float(P[mi] @ Q[qi]) >= spec.cs - 1e-9

    def test_auto_picks_and_runs_sketch_fallback_hybrid(self):
        model = CostModel(
            max_kappa=2.5, sketch_fixed_build=0.0, lsh_fixed_build=1e9,
            norm_prefix_fraction=0.9, sketch_fallback_query_fraction=0.3,
        )
        spec = JoinSpec(s=0.8, c=0.5, signed=False)
        ranked = plan_join(2000, 400, 16, spec, model=model)
        assert ranked.backend == "sketch+brute_force"
        rng = np.random.default_rng(2)
        P, Q = rng.normal(size=(2000, 16)), rng.normal(size=(400, 16))
        result = engine.join(P, Q, spec, backend="auto", model=model, seed=5)
        assert result.backend == "sketch+brute_force"
        exact = engine.join(P, Q, spec, backend="brute_force")
        mine = {i for i, v in enumerate(result.matches) if v is not None}
        ref = {i for i, v in enumerate(exact.matches) if v is not None}
        assert mine == ref

    def test_auto_with_options_stays_single_stage(self):
        model = CostModel(
            hybrid_prefix_fraction=0.1, hybrid_tail_query_fraction=0.1
        )
        spec = JoinSpec(s=0.9, c=0.7)
        rng = np.random.default_rng(1)
        P, Q = rng.normal(size=(4000, 32)), rng.normal(size=(1000, 32))
        ranked = plan_join(4000, 1000, 32, spec, model=model,
                           include_hybrids=False)
        assert all(not pe.plan.is_multi_stage for pe in ranked.plans)
        result = engine.join(
            P, Q, spec, backend="auto", model=model, seed=5, n_tables=8
        )
        # Engine-level options bind to one backend's prepare, so hybrids
        # are excluded from the ranking and a plain single backend runs.
        assert "+" not in result.backend

    def test_hybrid_auto_parallel_identical(self):
        model = CostModel(
            hybrid_prefix_fraction=0.1, hybrid_tail_query_fraction=0.1
        )
        spec = JoinSpec(s=0.9, c=0.7)
        rng = np.random.default_rng(1)
        P, Q = rng.normal(size=(2000, 24)), rng.normal(size=(500, 24))
        # Which plan ``auto`` picks depends on the parallel pricing (and
        # so on the core count); the contract is serial == parallel for
        # one fixed plan, so resolve ``auto`` once and run that plan.
        plan = engine.plan(P, Q, spec, model=model, n_workers=2).best_plan.plan
        serial = engine.join(P, Q, spec, backend=plan, seed=5)
        parallel = engine.join(P, Q, spec, backend=plan, seed=5, n_workers=2)
        assert serial.matched_count > 0
        assert serial.backend == parallel.backend
        assert serial.matches == parallel.matches

    def test_no_feasible_plan_error_lists_every_reason(self):
        from repro.engine.planner import JoinPlan

        ranked = JoinPlan(
            n=10, m=10, d=4, spec=JoinSpec(s=0.8, c=0.5, signed=False),
            estimates=[
                CostEstimate(backend="lsh", feasible=False, reason="no gap"),
                CostEstimate(
                    backend="sketch", feasible=False, reason="unsigned only"
                ),
            ],
        )
        with pytest.raises(ParameterError) as err:
            ranked.best_plan
        message = str(err.value)
        assert "lsh: no gap" in message
        assert "sketch: unsigned only" in message
        assert "n=10" in message


class TestSketchSelfJoin:
    """The sketch backend's self variant: identity masked in the descent."""

    def test_self_never_matches_identity(self, instance):
        spec = JoinSpec(s=0.85, c=0.4, signed=False)
        result = engine.join(instance.P, None, spec, backend="sketch", seed=3)
        assert result.backend == "sketch"
        for qi, mi in enumerate(result.matches):
            assert mi != qi
            if mi is not None:
                assert abs(float(instance.P[mi] @ instance.P[qi])) >= \
                    result.spec.cs - 1e-9

    def test_self_parallel_identical(self, instance):
        spec = JoinSpec(s=0.85, c=0.4, signed=False)
        serial = engine.join(
            instance.P, None, spec, backend="sketch", seed=3, block=64
        )
        parallel = engine.join(
            instance.P, None, spec, backend="sketch", seed=3, block=64,
            n_workers=2,
        )
        assert serial.matches == parallel.matches

    def test_self_rejects_duplicate_exclusion(self, instance):
        spec = JoinSpec(
            s=0.85, c=0.4, signed=False, self_join=True, match_duplicates=False
        )
        with pytest.raises(ParameterError, match="match_duplicates"):
            engine.join(instance.P, None, spec, backend="sketch", seed=3)

    def test_exclude_none_descent_unchanged(self, instance):
        from repro.sketches.recovery import PrefixRecoveryIndex

        index = PrefixRecoveryIndex(instance.P, kappa=3.0, seed=11)
        plain = index.query_batch(instance.Q)
        with_kw = index.query_batch(instance.Q, exclude=None)
        assert np.array_equal(plain[0], with_kw[0])
        assert np.array_equal(plain[1], with_kw[1])

    def test_exclude_masks_identity_in_descent(self, instance):
        from repro.sketches.recovery import PrefixRecoveryIndex

        index = PrefixRecoveryIndex(instance.P, kappa=3.0, seed=11)
        n = instance.P.shape[0]
        exclude = np.arange(n, dtype=np.int64)
        indices, values = index.query_batch(instance.P, exclude=exclude)
        assert np.all(indices != exclude)
        # returned values are the exact |ip| of the returned index
        valid = indices >= 0
        picked = np.einsum(
            "ij,ij->i", instance.P[indices[valid]], instance.P[valid]
        )
        assert np.allclose(np.abs(picked), values[valid])
