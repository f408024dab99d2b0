"""The incremental simplex against the cold theory check."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.counters import recording
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var
from repro.linexpr.formula import And, Or
from repro.smt.lra import LraSolver, TheoryMismatch
from repro.smt.solver import SmtSolver
from repro.smt.theory import check_conjunction

x, y, z = var("x"), var("y"), var("z")
NAMES = ("x", "y", "z")
RELATIONS = (Relation.LE, Relation.LT, Relation.EQ)


def _feasible(constraints, integers=()):
    return check_conjunction(list(constraints), set(integers)).satisfiable


@st.composite
def forms(draw):
    """A linear form over x, y, z; all-zero forms give constant atoms."""
    coefficients = draw(
        st.lists(st.integers(-3, 3), min_size=len(NAMES), max_size=len(NAMES))
    )
    return dict(zip(NAMES, coefficients))


@st.composite
def conjunctions(draw):
    """Random atoms, some scaled copies or complements of earlier ones."""
    atoms = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(("fresh", "scaled", "negated")))
        if atoms and kind == "negated":
            # The exact complement of an earlier atom: a boundary clash
            # that only the strictness of one side decides.
            base = draw(st.sampled_from(atoms))
            if not base.is_equality():
                atoms.append(base.negate())
                continue
        if atoms and kind == "scaled":
            # Same linear form, scaled (possibly negated), new constant.
            base = draw(st.sampled_from(atoms)).expr.terms
            scale = draw(st.sampled_from((2, -1, -2, Fraction(1, 3))))
            terms = {name: value * scale for name, value in base.items()}
        else:
            terms = draw(forms())
        expr = LinExpr(terms, draw(st.integers(-4, 4)))
        atoms.append(Constraint(expr, draw(st.sampled_from(RELATIONS))))
    return atoms


def _assert_agrees(solver, constraints, integers=()):
    core = solver.check(constraints)
    if core is None:
        assert _feasible(constraints), constraints
        return None
    assert core == sorted(set(core))
    assert set(core) <= set(range(len(constraints)))
    subset = [constraints[index] for index in core]
    assert not _feasible(subset, integers), subset
    return subset


class TestDifferential:
    @given(st.lists(conjunctions(), min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_sequences_agree_with_the_cold_check(self, sequence):
        # One instance for the whole sequence: warm values, the basis and
        # the slack rows carry over, only the bounds are reset.
        solver = LraSolver()
        for constraints in sequence:
            subset = _assert_agrees(solver, constraints)
            if subset is None:
                continue
            assert _feasible(constraints) is False
            # Irreducible: dropping any one literal makes it feasible.
            for dropped in range(len(subset)):
                rest = subset[:dropped] + subset[dropped + 1:]
                assert _feasible(rest), (subset, dropped)

    @given(st.lists(conjunctions(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_integer_cores_are_infeasible_cold(self, sequence):
        # Over integers the incremental check decides the tightened
        # relaxation: its cores must still be infeasible, and a cold
        # feasible conjunction is never refuted.
        solver = LraSolver(NAMES)
        for constraints in sequence:
            core = solver.check(constraints)
            if core is None:
                continue
            subset = [constraints[index] for index in core]
            assert not _feasible(subset, NAMES)
            assert not _feasible(constraints, NAMES)


class TestExplanations:
    def test_row_explanation(self):
        constraints = [x >= 0, y >= 0, x + y <= 5, z <= 1, x + y >= 6]
        assert LraSolver().check(constraints) == [2, 4]

    def test_farkas_row_spans_several_bounds(self):
        constraints = [z <= 3, x >= 2, y >= 2, x + y <= 3]
        assert LraSolver().check(constraints) == [1, 2, 3]

    def test_clashing_bounds_of_one_variable(self):
        assert LraSolver().check([x <= 5, y >= 0, x >= 10]) == [0, 2]

    def test_trivially_false_atom(self):
        constraints = [x >= 0, LinExpr.constant(1) <= 0]
        assert LraSolver().check(constraints) == [1]

    def test_trivially_true_atom_is_ignored(self):
        assert LraSolver().check([LinExpr.constant(-1) <= 0, x >= 0]) is None

    def test_strict_bounds_are_delta_rationals(self):
        solver = LraSolver()
        assert solver.check([x > 0, x < 1]) is None
        assert solver.check([x > 0, x < 0]) == [0, 1]
        assert solver.check([x + y > 0, x + y <= 0]) == [0, 1]

    def test_scaled_forms_share_one_slack(self):
        solver = LraSolver()
        constraints = [2 * x + 2 * y <= 4, x + y < 1, -3 * x - 3 * y <= -3]
        assert solver.check(constraints) == [1, 2]
        assert len(solver._slacks) == 1

    def test_integer_tightening(self):
        # 0 < x < 1 is rationally consistent but has no integer point.
        assert LraSolver().check([x > 0, x < 1]) is None
        assert LraSolver(["x"]).check([x > 0, x < 1]) == [0, 1]

    def test_bounds_reset_between_checks(self):
        solver = LraSolver()
        assert solver.check([x + y >= 10, x <= 1, y <= 1]) == [0, 1, 2]
        assert solver.check([x + y >= 10, x <= 100]) is None
        assert solver.pivots > 0


class TestSmtSolverTheory:
    FORMULA = And([x >= 3, Or([x + y <= 1, x <= 2, x <= 10]), y >= 0])

    def test_counters(self):
        solver = SmtSolver()
        solver.assert_formula(self.FORMULA)
        with recording() as stats:
            model = solver.check().model
        assert 3 <= model["x"] <= 10
        assert {name for name in stats if name.startswith("smt.")} <= {
            "smt.sat_calls",
            "smt.theory_calls",
            "smt.theory_conflicts",
            "smt.core_literals",
            "smt.theory_pivots",
        }
        assert stats["smt.theory_calls"] == stats["smt.sat_calls"]
        assert stats["smt.theory_conflicts"] == stats["smt.theory_calls"] - 1
        assert stats["smt.core_literals"] >= 2 * stats["smt.theory_conflicts"]

    def test_audit_accepts_sound_cores(self):
        solver = SmtSolver(lp_mode="audit")
        solver.assert_formula(self.FORMULA)
        assert solver.check().is_sat

    def test_audit_rejects_a_feasible_core(self):
        solver = SmtSolver(lp_mode="audit")
        solver.assert_formula(self.FORMULA)
        solver._theory.check = lambda constraints: [0]
        with pytest.raises(TheoryMismatch):
            solver.check()

    def test_cold_refutation_of_an_accepted_rational_conjunction_raises(self):
        solver = SmtSolver()
        solver.assert_formula(And([x >= 1, x <= 0]))
        solver._theory.check = lambda constraints: None
        with pytest.raises(TheoryMismatch):
            solver.check()

    def test_integer_gap_blocks_the_whole_assignment(self):
        solver = SmtSolver(integer_variables=["x"])
        solver.assert_formula(And([3 * x >= 1, 3 * x <= 2]))
        with recording() as stats:
            assert solver.check().is_unsat
        assert stats["smt.theory_conflicts"] == 1
        assert stats["smt.core_literals"] == 2
