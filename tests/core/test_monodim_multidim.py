"""Tests for Algorithms 1–3 at the engine level (below the prover driver)."""


import pytest

from repro.api import Analysis
from repro.linalg.vector import Vector
from repro.smt.solver import SmtSolver
from repro.synthesis.engine import CegisEngine, MaxIterationsExceeded
from repro.synthesis.oracles import avoid_space, make_oracle
from repro.synthesis.strategies import make_strategy
from repro.synthesis.templates import LexicographicTemplate, LinearTemplate


def build_problem(automaton):
    return Analysis(automaton).problem()


def synthesize_component(problem, max_iterations=200):
    """Algorithm 1/3 with the paper's pieces: smt oracle, extremal strategy."""
    engine = CegisEngine(
        make_oracle("smt"), make_strategy("extremal"), max_iterations=max_iterations
    )
    return engine.synthesize_component(LinearTemplate(problem))


def synthesize_lexicographic(problem, max_dimension=None):
    """Algorithm 2 with the paper's pieces."""
    engine = CegisEngine(make_oracle("smt"), make_strategy("extremal"))
    return engine.synthesize_lexicographic(
        LexicographicTemplate(problem, max_dimension=max_dimension)
    )


class TestMonodim:
    def test_example1_strict_component(self, example1_automaton):
        problem = build_problem(example1_automaton)
        result = synthesize_component(problem)
        assert result.strict
        assert not result.is_trivial
        assert result.statistics.counterexamples >= 1

    def test_stutter_gives_non_strict(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        result = synthesize_component(problem)
        assert not result.strict

    def test_lexicographic_needs_more_than_one_dimension(
        self, lexicographic_automaton
    ):
        problem = build_problem(lexicographic_automaton)
        result = synthesize_component(problem)
        # A single component cannot strictly decrease both transitions unless
        # it cleverly combines them; either way it must be a quasi component.
        assert result.ranking is not None

    def test_iteration_budget_enforced(self, example1_automaton):
        problem = build_problem(example1_automaton)
        with pytest.raises(MaxIterationsExceeded):
            synthesize_component(problem, max_iterations=0)


class TestAvoidSpace:
    def test_empty_basis_excludes_zero(self, example1_automaton):
        problem = build_problem(example1_automaton)
        formula = avoid_space(problem, [])
        solver = SmtSolver()
        solver.assert_formula(formula)
        for name in problem.difference_variables():
            solver.assert_formula(
                __import__("repro.linexpr.expr", fromlist=["var"]).var(name).eq(0)
            )
        assert solver.check().is_unsat

    def test_basis_direction_excluded(self, example1_automaton):
        problem = build_problem(example1_automaton)
        names = problem.difference_variables()
        basis = [Vector([1 if i == 0 else 0 for i in range(len(names))])]
        formula = avoid_space(problem, basis)
        solver = SmtSolver()
        solver.assert_formula(formula)
        from repro.linexpr.expr import var

        # Force u to be exactly the basis vector: must be unsatisfiable.
        for index, name in enumerate(names):
            solver.assert_formula(var(name).eq(1 if index == 0 else 0))
        assert solver.check().is_unsat

    def test_off_basis_direction_allowed(self, example1_automaton):
        problem = build_problem(example1_automaton)
        names = problem.difference_variables()
        basis = [Vector([1 if i == 0 else 0 for i in range(len(names))])]
        formula = avoid_space(problem, basis)
        solver = SmtSolver()
        solver.assert_formula(formula)
        from repro.linexpr.expr import var

        for index, name in enumerate(names):
            solver.assert_formula(var(name).eq(1 if index == 1 else 0))
        assert solver.check().is_sat


class TestMultidim:
    def test_example1_dimension_one(self, example1_automaton):
        problem = build_problem(example1_automaton)
        outcome = synthesize_lexicographic(problem)
        assert outcome.success
        assert outcome.dimension == 1

    def test_lexicographic_success(self, lexicographic_automaton):
        problem = build_problem(lexicographic_automaton)
        outcome = synthesize_lexicographic(problem)
        assert outcome.success
        assert 1 <= outcome.dimension <= 2

    def test_failure_reported(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        outcome = synthesize_lexicographic(problem)
        assert not outcome.success
        assert outcome.ranking is None

    def test_max_dimension_cap(self, lexicographic_automaton):
        problem = build_problem(lexicographic_automaton)
        outcome = synthesize_lexicographic(problem, max_dimension=1)
        # With the cap at 1 the synthesis either finds a 1-D witness or fails.
        assert outcome.dimension <= 1
