"""End-to-end integration of the Section 4 upper bounds on one workload.

One planted instance; all three upper-bound structures answer it and
are scored against brute force (soundness, recall, verified pairs); the
symmetric family also goes through the Lemma 4 mass accounting — every
layer of the library in one test file.
"""

import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec, brute_force_join
from repro.datasets import planted_mips
from repro.lsh import (
    DataDepALSH,
    LSHIndex,
    SymmetricIPSHash,
    plan_datadep,
)
from repro.lsh.collision_curves import measure_collision_curve
from repro.lsh.hyperplane import HyperplaneLSH
from repro.lsh.rho import collision_prob_hyperplane


@pytest.fixture(scope="module")
def instance():
    return planted_mips(600, 24, 32, s=0.85, c=0.4, seed=0)


class TestAllUpperBoundsOnOneWorkload:
    def test_three_structures_through_evaluation_harness(self, instance):
        spec = JoinSpec(s=instance.s, c=0.4)
        reference = brute_force_join(instance.P, instance.Q, spec)
        assert reference.matched_count > 0
        config = plan_datadep(n=instance.n, s=instance.s, c=0.4, delta=0.15)

        def datadep(P, Q, spec_):
            idx = LSHIndex(
                DataDepALSH(32, sphere="hyperplane"), n_tables=config.n_tables,
                hashes_per_table=config.k, seed=1,
            ).build(P)
            return engine.join(P, Q, spec_, backend="lsh", index=idx)

        def symmetric(P, Q, spec_):
            idx = LSHIndex(
                SymmetricIPSHash(32, eps=0.05), n_tables=config.n_tables,
                hashes_per_table=config.k, seed=2,
            ).build(P)
            return engine.join(P, Q, spec_, backend="lsh", index=idx)

        def sketch(P, Q, spec_):
            return engine.join(
                P, Q, JoinSpec(s=spec_.s, signed=False), backend="sketch",
                kappa=3.0, seed=3,
            )

        results = {
            name: algorithm(instance.P, instance.Q, spec)
            for name, algorithm in [("DATA-DEP (4.1)", datadep),
                                    ("symmetric (4.2)", symmetric),
                                    ("sketch (4.3)", sketch)]
        }
        # All structures sound: every reported match verifies under the
        # spec its result declares (the sketch answers its own c).
        for name, result in results.items():
            assert len(result.matches) == instance.Q.shape[0], name
            for i, j in enumerate(result.matches):
                if j is not None:
                    value = float(instance.P[j] @ instance.Q[i])
                    assert result.spec.satisfied(value), (name, i, j)
        # Approximate ones reach the planned recall.
        recall = {
            name: result.recall_against(reference)
            for name, result in results.items()
        }
        assert recall["DATA-DEP (4.1)"] >= 0.7
        assert recall["symmetric (4.2)"] >= 0.7
        assert recall["sketch (4.3)"] >= 0.9
        # Filter-based structures verify far fewer pairs than the scan.
        scan_pairs = instance.n * instance.Q.shape[0]
        assert (results["DATA-DEP (4.1)"].inner_products_evaluated
                < scan_pairs / 4)

    def test_symmetric_family_through_mass_accounting(self):
        # The 4.2 family, audited by the Lemma 4 machinery end to end.
        from repro.lowerbounds import FiniteHashFamily, MassAccounting, geometric_sequences
        seqs = geometric_sequences(s=0.005, c=0.7, U=4.0, d=2)
        n = 7  # 2^3 - 1 grid
        # Scale data/queries into the unit ball for the symmetric family.
        P = seqs.P[:n]
        Q = seqs.Q[:n] / seqs.U
        rng = np.random.default_rng(0)
        family = SymmetricIPSHash(2, eps=0.05)
        pairs = [family.sample(rng) for _ in range(40)]
        finite = FiniteHashFamily.from_hash_pairs(pairs, Q, P)
        report = MassAccounting(finite).verify()
        assert report["gap_within_bound"]
        assert report["total_proper_mass"] <= 2 * n


class TestCollisionCurves:
    def test_hyperplane_curve_matches_closed_form(self):
        curve = measure_collision_curve(
            HyperplaneLSH(32),
            similarities=[-0.5, 0.0, 0.4, 0.8],
            d=32, trials=1200, pairs=4,
            closed_form=collision_prob_hyperplane,
            seed=1,
        )
        assert curve.max_deviation < 0.05
        assert curve.is_monotone_increasing(slack=0.03)

    def test_standard_errors_positive(self):
        curve = measure_collision_curve(
            HyperplaneLSH(8), similarities=[0.2, 0.6], trials=200, pairs=2,
            d=8, seed=2,
        )
        assert (curve.standard_errors > 0).all()

    def test_no_reference_gives_nan_deviation(self):
        curve = measure_collision_curve(
            HyperplaneLSH(8), similarities=[0.5], trials=100, pairs=2, d=8, seed=3,
        )
        assert np.isnan(curve.max_deviation)

    def test_empty_grid_rejected(self):
        from repro.errors import ParameterError
        with pytest.raises(ParameterError):
            measure_collision_curve(HyperplaneLSH(8), similarities=[])
