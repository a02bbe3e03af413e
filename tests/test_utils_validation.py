import numpy as np
import pytest

from repro.core import JoinSpec, brute_force_join
from repro.datasets import planted_mips
from repro.errors import DomainError, ParameterError, ValidationError
from repro.utils.validation import (
    check_approximation_factor,
    check_binary,
    check_matrix,
    check_positive,
    check_sign,
    check_threshold,
    check_unit_ball,
    check_vector,
    require,
)


class TestCheckVector:
    def test_accepts_list(self):
        out = check_vector([1.0, 2.0])
        assert out.dtype == np.float64 and out.shape == (2,)

    def test_rejects_matrix(self):
        with pytest.raises(ValidationError):
            check_vector(np.zeros((2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            check_vector([])

    def test_error_names_argument(self):
        with pytest.raises(ValidationError, match="myvec"):
            check_vector([], name="myvec")


class TestCheckMatrix:
    def test_promotes_vector_to_row(self):
        assert check_matrix([1.0, 2.0]).shape == (1, 2)

    def test_rejects_3d(self):
        with pytest.raises(ValidationError):
            check_matrix(np.zeros((2, 2, 2)))

    def test_rejects_empty_by_default(self):
        with pytest.raises(ValidationError):
            check_matrix(np.zeros((0, 3)))

    def test_allow_empty(self):
        assert check_matrix(np.zeros((0, 3)), allow_empty=True).shape == (0, 3)


class TestDomainChecks:
    def test_binary_ok(self):
        out = check_binary([0, 1, 1, 0])
        assert out.dtype == np.int64

    def test_binary_rejects_two(self):
        with pytest.raises(DomainError):
            check_binary([0, 1, 2])

    def test_binary_rejects_fraction(self):
        with pytest.raises(DomainError):
            check_binary([0.5])

    def test_sign_ok(self):
        assert check_sign([-1, 1]).tolist() == [-1, 1]

    def test_sign_rejects_zero(self):
        with pytest.raises(DomainError):
            check_sign([0, 1])


class TestScalarChecks:
    def test_positive(self):
        assert check_positive(0.5, "x") == 0.5

    def test_positive_rejects_zero(self):
        with pytest.raises(ParameterError):
            check_positive(0.0, "x")

    def test_threshold(self):
        assert check_threshold(3.0) == 3.0

    @pytest.mark.parametrize("c", [0.0, 1.0, -0.1, 1.5])
    def test_approximation_rejects_boundary(self, c):
        with pytest.raises(ParameterError):
            check_approximation_factor(c)

    def test_approximation_accepts_interior(self):
        assert check_approximation_factor(0.5) == 0.5


class TestUnitBall:
    def test_accepts_interior(self):
        check_unit_ball(np.array([[0.3, 0.4]]))

    def test_rejects_outside(self):
        with pytest.raises(DomainError):
            check_unit_ball(np.array([[1.0, 1.0]]))

    def test_custom_radius(self):
        check_unit_ball(np.array([[1.5, 0.0]]), radius=2.0)


class TestRequire:
    def test_pass(self):
        require(True, "never")

    def test_fail(self):
        with pytest.raises(ValidationError, match="boom"):
            require(False, "boom")


@pytest.fixture(scope="module")
def instance():
    return planted_mips(200, 12, 24, s=0.85, c=0.4, seed=0)


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
