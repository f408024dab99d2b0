"""Tests for the linear-arithmetic theory solver."""



from repro.linexpr.expr import var
from repro.smt.lra import LraSolver
from repro.smt.theory import check_conjunction

x, y = var("x"), var("y")


class TestSatisfiable:
    def test_simple(self):
        result = check_conjunction([x >= 0, x <= 5])
        assert result.satisfiable
        assert 0 <= result.model["x"] <= 5

    def test_strict_rational(self):
        result = check_conjunction([x > 0, x < 1])
        assert result.satisfiable
        assert 0 < result.model["x"] < 1

    def test_strict_integer_tightened(self):
        result = check_conjunction([x > 0, x < 2], integer_variables={"x"})
        assert result.satisfiable
        assert result.model["x"] == 1

    def test_integer_model_integral(self):
        result = check_conjunction(
            [2 * x >= 1, 2 * x <= 5], integer_variables={"x"}
        )
        assert result.satisfiable
        assert result.model["x"].denominator == 1

    def test_model_satisfies_all(self):
        constraints = [x + y <= 4, x - y >= 1, y >= 0]
        result = check_conjunction(constraints)
        assert result.satisfiable
        for constraint in constraints:
            assert constraint.satisfied_by(result.model)


class TestUnsatisfiable:
    def test_simple_conflict(self):
        result = check_conjunction([x >= 1, x <= 0])
        assert not result.satisfiable

    def test_strict_boundary(self):
        result = check_conjunction([x > 0, x < 0])
        assert not result.satisfiable

    def test_strict_rational_gap(self):
        # 0 < x < 1 has no integer solution.
        result = check_conjunction([x > 0, x < 1], integer_variables={"x"})
        assert not result.satisfiable

    def test_trivially_false(self):
        result = check_conjunction([x * 0 >= 1])
        assert not result.satisfiable
        assert result.core == [0]

    def test_core_is_unsat_and_minimal(self):
        # Conflict cores come from the incremental solver's explanations.
        constraints = [x >= 0, y >= 0, x <= 5, x >= 10]
        core = LraSolver().check(constraints)
        assert core == [2, 3]
        assert not check_conjunction([constraints[i] for i in core]).satisfiable

    def test_core_without_minimisation_covers_conflict(self):
        constraints = [x >= 10, x <= 5]
        result = check_conjunction(constraints)
        subset = [constraints[i] for i in result.core]
        assert not check_conjunction(subset).satisfiable
