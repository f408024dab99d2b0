"""Tests for the warm-startable persistent simplex (:class:`SimplexState`).

The invariant under test throughout: a warm-started re-solve must agree
*exactly* (Fraction equality, no tolerance) with a cold one-shot
:func:`solve_lp` over the same accumulated constraint system — same
status, same optimal value, and an assignment that satisfies every
constraint — while performing strictly fewer pivots than re-solving every
prefix from scratch.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.linexpr.expr import LinExpr, var
from repro.lp.problem import LpStatus, Sense
from repro.lp.simplex import SimplexState, lp_counters, solve_lp

x, y, z = var("x"), var("y"), var("z")


def assert_matches_cold(state, constraints, objective, sense):
    """The state's solution must exactly match a from-scratch solve."""
    warm = state.solve()
    cold = solve_lp(objective, constraints, sense)
    assert warm.status == cold.status
    if warm.status is LpStatus.OPTIMAL:
        assert warm.objective == cold.objective
        for constraint in constraints:
            assert constraint.satisfied_by(warm.assignment)


class TestWarmRowAddition:
    def test_single_row_reoptimises_from_previous_basis(self):
        state = SimplexState(Sense.MAXIMIZE)
        constraints = [x <= 3, y <= 4, x >= 0, y >= 0]
        state.add_constraints(constraints)
        state.set_objective(x + y)
        first = state.solve()
        assert first.status is LpStatus.OPTIMAL
        assert first.objective == 7
        assert state.cold_solves == 1 and state.warm_solves == 0

        cutting = x + y <= 5
        state.add_constraint(cutting)
        constraints.append(cutting)
        second = state.solve()
        assert second.status is LpStatus.OPTIMAL
        assert second.objective == 5
        assert state.warm_solves == 1
        # One dual pivot repairs the violated row; a cold solve pays the
        # whole two-phase bill again.
        cold = solve_lp(x + y, constraints, Sense.MAXIMIZE)
        assert second.pivots < cold.pivots

    def test_row_satisfied_by_current_optimum_is_free(self):
        state = SimplexState(Sense.MINIMIZE)
        state.add_constraints([x >= 2, x <= 10])
        state.set_objective(x)
        assert state.solve().objective == 2
        state.add_constraint(x <= 100)  # slack at the optimum
        result = state.solve()
        assert result.objective == 2
        assert result.pivots == 0

    def test_equality_added_warm(self):
        state = SimplexState(Sense.MINIMIZE)
        constraints = [x >= 2, y >= 3]
        state.add_constraints(constraints)
        state.set_objective(x)
        assert state.solve().objective == 2
        equality = (x + y).eq(10)
        state.add_constraint(equality)
        constraints.append(equality)
        assert_matches_cold(state, constraints, x, Sense.MINIMIZE)
        assert state.warm_solves == 1

    def test_infeasibility_detected_and_final(self):
        state = SimplexState(Sense.MAXIMIZE)
        state.add_constraints([x <= 5, x >= 0])
        state.set_objective(x)
        assert state.solve().objective == 5
        state.add_constraint(x >= 7)
        assert state.solve().status is LpStatus.INFEASIBLE
        # Constraints only accumulate, so the verdict is permanent.
        state.add_constraint(y <= 1)
        assert state.solve().status is LpStatus.INFEASIBLE


class TestWarmColumnsAndObjective:
    def test_new_variable_and_rows(self):
        state = SimplexState(Sense.MAXIMIZE)
        constraints = [x <= 3, x >= 0]
        state.add_constraints(constraints)
        state.set_objective(x)
        assert state.solve().objective == 3

        state.declare("z", nonnegative=True)
        new = [z <= 2]
        state.add_constraints(new)
        constraints.extend(new)
        state.set_objective(x + z)
        assert_matches_cold(state, constraints + [z >= 0], x + z, Sense.MAXIMIZE)
        assert state.solve().objective == 5

    def test_objective_change_only_repriced(self):
        state = SimplexState(Sense.MAXIMIZE)
        state.add_constraints([x <= 3, y <= 4, x >= 0, y >= 0])
        state.set_objective(x)
        assert state.solve().objective == 3
        state.set_objective(y)
        result = state.solve()
        assert result.objective == 4
        assert state.warm_solves == 1

    def test_unchanged_problem_returns_cached_result(self):
        state = SimplexState(Sense.MINIMIZE)
        state.add_constraints([x >= 1])
        state.set_objective(x)
        first = state.solve()
        second = state.solve()
        assert second is first
        assert state.cold_solves == 1 and state.warm_solves == 0

    def test_unbounded_then_cold_recovery(self):
        state = SimplexState(Sense.MINIMIZE)
        state.add_constraint(x <= 5)
        state.set_objective(x)
        result = state.solve()
        assert result.status is LpStatus.UNBOUNDED
        assert result.ray["x"] < 0
        # No optimal basis to warm-start from: the next solve is cold.
        state.add_constraint(x >= -7)
        result = state.solve()
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == -7
        assert state.cold_solves == 2


class TestValidation:
    def test_strict_inequality_rejected(self):
        state = SimplexState()
        with pytest.raises(ValueError):
            state.add_constraint(x < 1)

    def test_cannot_tighten_free_variable_to_nonnegative(self):
        state = SimplexState()
        state.add_constraint(x <= 1)  # auto-declares x as free
        with pytest.raises(ValueError):
            state.declare("x", nonnegative=True)

    def test_cannot_loosen_nonnegative_variable_to_free(self):
        state = SimplexState()
        state.declare("x", nonnegative=True)
        with pytest.raises(ValueError):
            state.declare("x")

    def test_same_bound_redeclaration_is_idempotent(self):
        state = SimplexState()
        state.declare("x", nonnegative=True)
        state.declare("x", nonnegative=True)
        state.set_objective(x)
        state.add_constraint(x <= 1)
        assert state.solve().status is LpStatus.OPTIMAL


@settings(max_examples=40, deadline=None)
@given(
    bounds=st.lists(
        st.tuples(
            st.sampled_from(["x", "y", "z"]),
            st.integers(min_value=-6, max_value=6),
            st.integers(min_value=-3, max_value=8),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_incremental_prefixes_match_one_shot_solves(bounds):
    """Adding rows one at a time tracks the one-shot solver exactly.

    Each (v, low, high) pair contributes ``low ≤ c·v`` and ``v ≤ high``
    rows; after every addition the warm solution must match a cold solve
    of the accumulated system in status and optimal value.
    """
    objective = var("x") + 2 * var("y") - var("z")
    state = SimplexState(Sense.MAXIMIZE)
    state.set_objective(objective)
    accumulated = []
    for name, low, high in bounds:
        for constraint in (var(name) >= low, var(name) <= low + abs(high)):
            state.add_constraint(constraint)
            accumulated.append(constraint)
        warm = state.solve()
        cold = solve_lp(objective, accumulated, Sense.MAXIMIZE)
        assert warm.status == cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == cold.objective
            for constraint in accumulated:
                assert constraint.satisfied_by(warm.assignment)
        elif warm.status is LpStatus.UNBOUNDED:
            assert warm.ray


def test_pivot_accounting_totals():
    state = SimplexState(Sense.MAXIMIZE)
    state.add_constraints([x <= 3, y <= 4, x >= 0, y >= 0])
    state.set_objective(x + y)
    total = state.solve().pivots
    state.add_constraint(x + y <= 5)
    total += state.solve().pivots
    assert state.total_pivots == total
    assert state.last_solve_warm
    assert state.last_solve_pivots <= total


def test_fraction_exactness_preserved():
    state = SimplexState(Sense.MINIMIZE)
    state.add_constraints([2 * x >= 1, 3 * x <= 2])
    state.set_objective(x)
    assert state.solve().objective == Fraction(1, 2)
    state.add_constraint(5 * x >= 3)
    assert state.solve().objective == Fraction(3, 5)


def test_constant_objective_term():
    state = SimplexState(Sense.MAXIMIZE)
    state.add_constraints([x <= 3, x >= 0])
    state.set_objective(x + LinExpr.constant(10))
    assert state.solve().objective == 13
    state.add_constraint(x <= 1)
    assert state.solve().objective == 11


class TestBatchedRepair:
    """k appended rows -> one dual repair pass, not k."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 8])
    def test_one_repair_pass_per_batch(self, batch):
        state = SimplexState(Sense.MAXIMIZE)
        state.add_constraints([x <= 50, y <= 50, x >= 0, y >= 0])
        state.set_objective(x + y)
        assert state.solve().status is LpStatus.OPTIMAL
        assert state.dual_repair_passes == 0
        # Append `batch` violated cutting rows, then one solve.
        for k in range(batch):
            state.add_constraint(x + y <= 40 - k)
        result = state.solve()
        assert result.status is LpStatus.OPTIMAL
        assert result.objective == 40 - (batch - 1)
        assert state.warm_solves == 1
        assert state.dual_repair_passes == 1
        assert state.last_repair_passes == 1

    def test_repair_passes_accumulate_per_solve_not_per_row(self):
        state = SimplexState(Sense.MAXIMIZE)
        state.add_constraints([x <= 100, x >= 0])
        state.set_objective(x)
        state.solve()
        for bound in (90, 80, 70):
            state.add_constraint(x <= bound)
        state.solve()
        for bound in (60, 50):
            state.add_constraint(x <= bound)
        state.solve()
        assert state.warm_solves == 2
        assert state.dual_repair_passes == 2  # one pass per batch

    def test_incremental_repricing_on_nonbasic_objective_change(self):
        state = SimplexState(Sense.MAXIMIZE)
        state.add_constraints([x <= 5, y <= 7, x >= 0, y >= 0])
        state.set_objective(x)
        assert state.solve().objective == 5
        before = state.incremental_repricings
        # y never entered the basis under the pure-x objective; adding a
        # y term patches the cost row in O(1) instead of re-eliminating.
        state.set_objective(x + y)
        result = state.solve()
        assert result.objective == 12
        assert state.incremental_repricings > before

    def test_constant_only_objective_change_is_free(self):
        state = SimplexState(Sense.MAXIMIZE)
        state.add_constraints([x <= 5, x >= 0])
        state.set_objective(x)
        assert state.solve().objective == 5
        before = state.incremental_repricings
        state.set_objective(x + 3)
        result = state.solve()
        assert result.objective == 8
        assert state.incremental_repricings > before


class TestLpCounters:
    """``lp_counters`` feeds ``LpStatistics.resolved_exact``/``row_pivots``."""

    def test_one_shot_solve_is_one_setup_and_its_pivots(self):
        before = lp_counters()
        result = solve_lp(x + y, [x <= 3, y <= 4, x + y >= 1], Sense.MAXIMIZE)
        setups, pivots = lp_counters()
        assert result.pivots > 0
        assert (setups - before[0], pivots - before[1]) == (1, result.pivots)

    def test_warm_solves_count_pivots_but_no_setup(self):
        state = SimplexState(Sense.MAXIMIZE)
        state.add_constraints([x <= 3, y <= 4, x >= 0, y >= 0])
        state.set_objective(x + y)
        before = lp_counters()
        state.solve()
        state.add_constraint(x + y <= 5)
        state.solve()
        setups, pivots = lp_counters()
        assert state.cold_solves == 1 and state.warm_solves == 1
        assert setups - before[0] == 1
        assert pivots - before[1] == state.total_pivots
