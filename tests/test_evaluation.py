import numpy as np
import pytest

from repro import engine
from repro.core import JoinSpec, brute_force_join
from repro.datasets import planted_mips
from repro.errors import ParameterError
from repro.evaluation import EvaluationRecord, evaluate_joins, evaluation_table


@pytest.fixture(scope="module")
def instance():
    return planted_mips(200, 12, 24, s=0.85, c=0.4, seed=0)


class TestEvaluateJoins:
    def test_exact_algorithms_score_perfectly(self, instance):
        spec = JoinSpec(s=instance.s, c=0.4)
        records = evaluate_joins(
            instance.P, instance.Q, spec,
            {
                "brute force": brute_force_join,
                "norm pruned": lambda P, Q, spec_: engine.join(
                    P, Q, spec_, backend="norm_pruned"
                ),
            },
        )
        assert records[0].matched > 0
        for record in records:
            assert record.recall == 1.0
            assert record.sound
            assert record.wall_seconds >= 0

    def test_false_matches_flagged(self, instance):
        spec = JoinSpec(s=instance.s, c=0.4)

        def broken(P, Q, spec_):
            # Claims index 0 for every query regardless of the values.
            from repro.core.problems import JoinResult
            return JoinResult(matches=[0] * Q.shape[0], spec=spec_)

        records = evaluate_joins(instance.P, instance.Q, spec, {"broken": broken})
        assert not records[0].sound
        assert records[0].false_matches > 0

    def test_wrong_answer_count_rejected(self, instance):
        spec = JoinSpec(s=instance.s)

        def truncated(P, Q, spec_):
            from repro.core.problems import JoinResult
            return JoinResult(matches=[None], spec=spec_)

        with pytest.raises(ParameterError, match="answered"):
            evaluate_joins(instance.P, instance.Q, spec, {"bad": truncated})

    def test_empty_algorithms_rejected(self, instance):
        with pytest.raises(ParameterError):
            evaluate_joins(instance.P, instance.Q, JoinSpec(s=1.0), {})

    def test_explicit_reference_used(self, instance):
        spec = JoinSpec(s=instance.s, c=0.4)
        reference = brute_force_join(instance.P, instance.Q, spec)
        records = evaluate_joins(
            instance.P, instance.Q, spec,
            {"exact": brute_force_join},
            reference=reference,
        )
        assert records[0].recall == 1.0

    def test_table_rendering(self, instance):
        spec = JoinSpec(s=instance.s, c=0.4)
        records = evaluate_joins(
            instance.P, instance.Q, spec, {"exact": brute_force_join}
        )
        text = evaluation_table(records)
        assert "exact" in text and "recall" in text


class TestNaNRejection:
    def test_join_rejects_nan_data(self, instance):
        P = instance.P.copy()
        P[0, 0] = np.nan
        with pytest.raises(Exception, match="NaN|finite"):
            brute_force_join(P, instance.Q, JoinSpec(s=1.0))

    def test_join_rejects_inf_query(self, instance):
        Q = instance.Q.copy()
        Q[0, 0] = np.inf
        with pytest.raises(Exception, match="NaN|finite"):
            brute_force_join(instance.P, Q, JoinSpec(s=1.0))

    def test_vector_check_rejects_nan(self):
        from repro.errors import ValidationError
        from repro.utils.validation import check_vector
        with pytest.raises(ValidationError, match="NaN"):
            check_vector([1.0, np.nan])

    def test_integer_matrices_unaffected(self):
        from repro.utils.validation import check_matrix
        out = check_matrix(np.ones((2, 2), dtype=np.int64), dtype=np.int64)
        assert out.dtype == np.int64
