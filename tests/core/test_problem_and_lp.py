"""Tests for the problem encoding and the LP of Definition 11."""

from fractions import Fraction

import pytest

from repro.api import Analysis
from repro.core.lp_instance import LpStatistics, RankingLp
from repro.core.problem import ONE_COORDINATE, TerminationProblem
from repro.linalg.vector import Vector


@pytest.fixture
def example1_problem(example1_automaton):
    return Analysis(example1_automaton).problem()


class TestProblemEncoding:
    def test_space_includes_one_coordinate(self, example1_problem):
        assert ONE_COORDINATE in example1_problem.space_variables
        assert example1_problem.stacked_dimension == len(
            example1_problem.cutset
        ) * (example1_problem.num_variables + 1)

    def test_difference_variables_order(self, example1_problem):
        names = example1_problem.difference_variables()
        assert len(names) == example1_problem.stacked_dimension
        assert names[0].startswith("u[")

    def test_invariant_rows_are_homogeneous(self, example1_problem):
        for row in example1_problem.invariant_rows():
            # Every row is a·x + b·@one with no free constant term.
            assert row.normal.constant_term == 0

    def test_one_row_present_per_cutpoint(self, example1_problem):
        one_rows = [
            row
            for row in example1_problem.invariant_rows()
            if row.normal.variables() == frozenset({ONE_COORDINATE})
        ]
        assert len(one_rows) >= len(example1_problem.cutset)

    def test_transition_formula_satisfiable(self, example1_problem):
        from repro.smt.solver import SmtSolver

        solver = SmtSolver()
        solver.assert_formula(example1_problem.transition_formula())
        assert solver.check().is_sat

    def test_objective_uses_offsets(self, example1_problem):
        ranking = example1_problem.zero_ranking()
        ranking.offsets[example1_problem.cutset[0]] = Fraction(3)
        objective = example1_problem.objective(ranking)
        one_names = [
            example1_problem.difference_variable(location, ONE_COORDINATE)
            for location in example1_problem.cutset
        ]
        assert any(objective.coefficient(name) == 3 for name in one_names)

    def test_statistics(self, example1_problem):
        stats = example1_problem.statistics()
        assert stats["cut_points"] == 1
        assert stats["blocks"] == 1
        assert stats["paths_summarised"] == 2

    def test_reserved_variable_name_rejected(self, example1_automaton):
        from repro.invariants.invariant_map import InvariantMap

        with pytest.raises(ValueError):
            TerminationProblem(
                [ONE_COORDINATE],
                ["k0"],
                InvariantMap.universal([ONE_COORDINATE], ["k0"]),
                [],
            )

    def test_empty_cutset_rejected(self, example1_automaton):
        from repro.invariants.invariant_map import InvariantMap

        with pytest.raises(ValueError):
            TerminationProblem(
                ["x"], [], InvariantMap.universal(["x"], []), []
            )


class TestRankingLp:
    def test_always_feasible(self, example1_problem):
        lp = RankingLp(example1_problem)
        lp.add_counterexample(Vector([1] * example1_problem.stacked_dimension))
        solution = lp.solve()
        assert solution.deltas[0] in (0, 1)

    def test_decreasing_counterexample_gets_delta_one(self, example1_problem):
        # u with y-component 1 corresponds to a step where y decreases by 1;
        # the invariant provides y + 1 ≥ 0, so δ must reach 1.
        names = example1_problem.difference_variables()
        u = Vector(
            [1 if name == "u[k0][y]" else 0 for name in names]
        )
        lp = RankingLp(example1_problem)
        lp.add_counterexample(u)
        solution = lp.solve()
        assert solution.deltas[0] == 1
        component = solution.ranking
        assert component.coefficients["k0"][
            example1_problem.variables.index("y")
        ] > 0

    def test_dimension_mismatch_rejected(self, example1_problem):
        lp = RankingLp(example1_problem)
        with pytest.raises(ValueError):
            lp.add_counterexample(Vector([1, 2]))

    def test_statistics_recorded(self, example1_problem):
        statistics = LpStatistics()
        lp = RankingLp(example1_problem, statistics)
        lp.add_counterexample(Vector([0] * example1_problem.stacked_dimension))
        lp.solve()
        assert statistics.instances == 1
        assert statistics.max_rows == 1

    def test_statistics_merge(self):
        a, b = LpStatistics(), LpStatistics()
        a.record(2, 3)
        b.record(4, 1)
        a.merge(b)
        assert a.instances == 2
        assert a.max_rows == 4
        assert a.average_cols == 2.0
