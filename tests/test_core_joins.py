"""Tests for the LSH, sketch and algebraic joins and the unsigned reduction."""

import numpy as np
import pytest

from repro import engine
from repro.core import (
    JoinSpec,
    brute_force_join,
    chebyshev_expand_join,
    unsigned_via_signed,
)
from repro.datasets import planted_mips, random_sign
from repro.errors import CapacityError, DomainError, ParameterError
from repro.lsh import DataDepALSH


@pytest.fixture(scope="module")
def instance():
    return planted_mips(300, 16, 24, s=0.85, c=0.4, seed=0)


@pytest.fixture(scope="module")
def family():
    return DataDepALSH(24, sphere="hyperplane")


class TestLSHJoin:
    def test_recall_against_exact(self, instance, family):
        spec = JoinSpec(s=instance.s, c=0.4)
        exact = brute_force_join(instance.P, instance.Q, spec)
        assert exact.matched_count > 0
        approx = engine.join(
            instance.P, instance.Q, spec, backend="lsh", family=family,
            n_tables=16, hashes_per_table=6, seed=1,
        )
        assert approx.recall_against(exact) >= 0.8

    def test_matches_verified(self, instance, family):
        spec = JoinSpec(s=instance.s, c=0.4)
        result = engine.join(
            instance.P, instance.Q, spec, backend="lsh", family=family, seed=2
        )
        for qi, match in enumerate(result.matches):
            if match is not None:
                assert float(instance.P[match] @ instance.Q[qi]) >= spec.cs

    def test_subquadratic_work(self, instance, family):
        spec = JoinSpec(s=instance.s, c=0.4)
        result = engine.join(
            instance.P, instance.Q, spec, backend="lsh", family=family,
            n_tables=12, hashes_per_table=6, seed=3,
        )
        assert result.inner_products_evaluated < instance.n * 16

    def test_prebuilt_index_reused(self, instance, family):
        from repro.lsh import LSHIndex
        index = LSHIndex(family, n_tables=8, hashes_per_table=5, seed=4).build(instance.P)
        spec = JoinSpec(s=instance.s, c=0.4)
        result = engine.join(
            instance.P, instance.Q, spec, backend="lsh", index=index
        )
        assert len(result.matches) == 16


def _sketch_join(P, Q, s, **options):
    return engine.join(
        P, Q, JoinSpec(s=s, signed=False), backend="sketch", **options
    )


class TestSketchJoin:
    def test_planted_matches_found(self, instance):
        result = _sketch_join(instance.P, instance.Q, instance.s,
                              kappa=4.0, seed=5)
        assert result.matched_count >= 14
        assert result.spec.c == pytest.approx(instance.n ** -0.25)

    def test_matches_clear_relaxed_threshold(self, instance):
        result = _sketch_join(instance.P, instance.Q, instance.s,
                              kappa=3.0, seed=6)
        for qi, match in enumerate(result.matches):
            if match is not None:
                value = abs(float(instance.P[match] @ instance.Q[qi]))
                assert value >= result.spec.cs - 1e-12

    def test_bad_s(self, instance):
        with pytest.raises(ParameterError):
            _sketch_join(instance.P, instance.Q, -1.0)


class TestAlgebraicJoin:
    def test_planted_correlation_found(self):
        P = random_sign(50, 16, seed=7)
        Q = random_sign(30, 16, seed=8)
        Q[3] = P[11]
        result = chebyshev_expand_join(P, Q, JoinSpec(s=16.0, c=0.5, signed=False), degree=3)
        assert result.matches[3] == 11

    def test_matches_verified_against_raw_products(self):
        P = random_sign(40, 12, seed=9)
        Q = random_sign(20, 12, seed=10)
        spec = JoinSpec(s=12.0, c=0.9, signed=False)
        result = chebyshev_expand_join(P, Q, spec, degree=2)
        for qi, match in enumerate(result.matches):
            if match is not None:
                assert abs(int(P[match] @ Q[qi])) >= spec.cs

    def test_capacity_guard(self):
        P = random_sign(4, 50, seed=11)
        with pytest.raises(CapacityError):
            chebyshev_expand_join(P, P, JoinSpec(s=10.0, signed=False), degree=4)

    def test_requires_sign_vectors(self):
        with pytest.raises(DomainError):
            chebyshev_expand_join(
                np.zeros((2, 4)), np.zeros((2, 4)), JoinSpec(s=1.0), degree=2
            )

    def test_degree_validated(self):
        P = random_sign(4, 4, seed=12)
        with pytest.raises(ParameterError):
            chebyshev_expand_join(P, P, JoinSpec(s=1.0), degree=0)


class TestDispatch:
    def test_signed_exact(self, instance):
        result = engine.join(
            instance.P, instance.Q, JoinSpec(s=instance.s),
            backend="brute_force",
        )
        assert result.matched_count == 16

    def test_signed_lsh(self, instance, family):
        result = engine.join(
            instance.P, instance.Q, JoinSpec(s=instance.s, c=0.4),
            backend="lsh", family=family, seed=13,
        )
        assert result.matched_count >= 12

    def test_unknown_backend(self, instance):
        with pytest.raises(ParameterError, match="unknown backend"):
            engine.join(instance.P, instance.Q, JoinSpec(s=1.0), backend="magic")

    def test_unsigned_exact(self, instance):
        result = engine.join(
            instance.P, instance.Q, JoinSpec(s=instance.s, signed=False),
            backend="brute_force",
        )
        assert result.matched_count == 16

    def test_unsigned_sketch(self, instance):
        result = _sketch_join(instance.P, instance.Q, instance.s,
                              kappa=4.0, seed=14)
        assert result.matched_count >= 14

    def test_unsigned_via_signed_exact(self, instance):
        spec = JoinSpec(s=instance.s, c=0.9, signed=False)
        direct = engine.join(instance.P, instance.Q, spec, backend="brute_force")
        assert direct.matched_count > 0
        via = unsigned_via_signed(
            instance.P, instance.Q, spec, backend="brute_force"
        )
        assert via.recall_against(direct) == 1.0

    def test_via_signed_catches_negative_matches(self):
        cases = (
            # A pair visible only through -q.
            ([[-0.9, 0.0], [0.0, 0.1]], [[0.9, 0.0]], 0.5, 0.9),
            # -q's match (row 0) ties q's (row 1) at |1|: like every
            # backend, the reduction answers the lowest index.
            ([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.5]], [[1.0, 0.0]], 0.9, 1.0),
        )
        for P, Q, s, c in cases:
            P, Q = np.array(P), np.array(Q)
            spec = JoinSpec(s=s, c=c, signed=False)
            result = unsigned_via_signed(P, Q, spec, backend="brute_force")
            direct = engine.join(P, Q, spec, backend="brute_force")
            assert result.matches == direct.matches == [0]

    def test_via_signed_with_lsh(self, instance, family):
        result = unsigned_via_signed(
            instance.P, instance.Q, JoinSpec(s=instance.s, c=0.4, signed=False),
            backend="lsh", family=family, seed=15,
        )
        assert result.matched_count >= 10
