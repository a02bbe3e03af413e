"""Property-based tests: join result invariants on arbitrary instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import engine
from repro.core import JoinSpec, brute_force_join

finite = st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)


def matrix(rows, cols):
    return arrays(np.float64, (rows, cols), elements=finite)


class TestJoinInvariants:
    @given(P=matrix(8, 4), Q=matrix(5, 4), s=st.floats(0.1, 5.0), c=st.floats(0.1, 0.9))
    @settings(max_examples=40, deadline=None)
    def test_matches_clear_relaxed_threshold(self, P, Q, s, c):
        spec = JoinSpec(s=s, c=c)
        result = brute_force_join(P, Q, spec)
        for qi, match in enumerate(result.matches):
            if match is not None:
                assert float(P[match] @ Q[qi]) >= spec.cs - 1e-9

    @given(P=matrix(8, 4), Q=matrix(5, 4), s=st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_unsigned_matches_at_least_signed(self, P, Q, s):
        signed = brute_force_join(P, Q, JoinSpec(s=s, signed=True))
        unsigned = brute_force_join(P, Q, JoinSpec(s=s, signed=False))
        assert unsigned.matched_count >= signed.matched_count

    @given(P=matrix(8, 4), Q=matrix(5, 4), s=st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_recall_against_self_is_one(self, P, Q, s):
        result = brute_force_join(P, Q, JoinSpec(s=s))
        assert result.recall_against(result) == 1.0

    @given(
        P=matrix(8, 4), Q=matrix(5, 4),
        s=st.floats(0.1, 5.0), c=st.floats(0.1, 0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_norm_pruned_agrees_with_brute_force(self, P, Q, s, c):
        spec = JoinSpec(s=s, c=c, signed=False)
        a = engine.join(P, Q, spec, backend="norm_pruned")
        b = brute_force_join(P, Q, spec)
        for qi in range(Q.shape[0]):
            x, y = a.matches[qi], b.matches[qi]
            assert (x is None) == (y is None)
            if x is not None:
                assert abs(abs(P[x] @ Q[qi]) - abs(P[y] @ Q[qi])) < 1e-9

    @given(P=matrix(6, 3), s=st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_self_join_never_matches_self(self, P, s):
        result = engine.join(
            P, None, JoinSpec(s=s, signed=False), backend="brute_force", block=512
        )
        for i, match in enumerate(result.matches):
            assert match != i

    @given(P=matrix(8, 4), Q=matrix(5, 4), s=st.floats(0.1, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_lower_threshold_matches_superset(self, P, Q, s):
        low = brute_force_join(P, Q, JoinSpec(s=s * 0.5))
        high = brute_force_join(P, Q, JoinSpec(s=s))
        for lo, hi in zip(low.matches, high.matches):
            if hi is not None:
                assert lo is not None
