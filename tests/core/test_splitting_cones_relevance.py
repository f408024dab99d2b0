"""Tests for control-point splitting, cone helpers and invariant restriction."""

import pytest

from repro.api import analyze
from repro.core.cones import (
    in_constraint_cone,
    in_orthogonal_cone,
    is_quasi_ranking_direction,
    pi_set,
)
from repro.core.relevance import restrict_to_guarded_states
from repro.core.splitting import split_location
from repro.invariants.analyzer import compute_invariants
from repro.linalg.vector import Vector
from repro.linexpr.expr import var
from repro.program.builder import AutomatonBuilder
from repro.program.cutset import compute_cutset

x, d, n = var("x"), var("d"), var("n")


class TestCones:
    def test_constraint_cone_membership(self):
        generators = [Vector([1, 0]), Vector([0, 1])]
        assert in_constraint_cone(Vector([2, 3]), generators)
        assert not in_constraint_cone(Vector([-1, 0]), generators)
        assert in_constraint_cone(Vector([0, 0]), [])

    def test_orthogonal_cone(self):
        generators = [Vector([1, 0]), Vector([1, 1])]
        assert in_orthogonal_cone(Vector([1, 0]), generators)
        assert not in_orthogonal_cone(Vector([-1, 0]), generators)

    def test_pi_set(self):
        generators = [Vector([1, 0]), Vector([0, 1]), Vector([-1, 0])]
        assert pi_set(Vector([1, 0]), generators) == [0]

    def test_quasi_ranking_direction(self):
        invariant_normals = [Vector([0, 1])]          # y ≥ 0
        differences = [Vector([0, 1])]                # y decreases by 1
        assert is_quasi_ranking_direction(Vector([0, 2]), invariant_normals, differences)
        assert not is_quasi_ranking_direction(Vector([1, 0]), invariant_normals, differences)


class TestSplitting:
    def phases_automaton(self):
        builder = AutomatonBuilder(
            ["x", "d", "n"],
            initial="start",
            initial_condition=[n > 0, n <= 100],
        )
        builder.transition("start", "k", updates={"d": 1, "x": 0})
        builder.transition(
            "k", "k", guard=[x >= 0, x <= n, x < n], updates={"x": x + d}, name="go"
        )
        builder.transition(
            "k", "k", guard=[x.eq(n)], updates={"x": x + d, "d": -1}, name="turn"
        )
        return builder.build()

    def test_split_creates_copies(self):
        automaton = self.phases_automaton()
        split = split_location(automaton, "k", [[d.eq(1)], [d.eq(-1)]])
        assert "k#case0" in split.locations
        assert "k#case1" in split.locations
        assert "k" not in split.locations

    def test_split_preserves_variables(self):
        automaton = self.phases_automaton()
        split = split_location(automaton, "k", [[d.eq(1)], [d.eq(-1)]])
        assert split.variables == automaton.variables

    def test_split_validates_input(self):
        automaton = self.phases_automaton()
        with pytest.raises(ValueError):
            split_location(automaton, "missing", [[d.eq(1)]])
        with pytest.raises(ValueError):
            split_location(automaton, "k", [])

    def test_phases_example_provable_after_split(self):
        """The §8 phases loop needs the disjunctive-invariant split."""
        automaton = self.phases_automaton()
        split = split_location(automaton, "k", [[d.eq(1)], [d.eq(-1)]])
        result = analyze(split, tool="termite")
        assert result.proved


class TestRelevance:
    def test_guard_restricts_universe_invariant(self):
        builder = AutomatonBuilder(["x"], initial="k")
        builder.transition("k", "k", guard=[x > 0], updates={"x": x - 1})
        automaton = builder.build()
        cutset = compute_cutset(automaton)
        invariants = compute_invariants(automaton)
        restricted = restrict_to_guarded_states(automaton, cutset, invariants)
        assert restricted.get(cutset[0]).entails_constraint(x >= 1)

    def test_exit_only_edges_ignored(self):
        builder = AutomatonBuilder(["x"], initial="k")
        builder.transition("k", "k", guard=[x > 0], updates={"x": x - 1})
        builder.transition("k", "done", guard=[x <= 0])
        automaton = builder.build()
        cutset = compute_cutset(automaton)
        invariants = compute_invariants(automaton)
        restricted = restrict_to_guarded_states(automaton, cutset, invariants)
        # The edge to "done" never reaches the cut-set again, so it must not
        # weaken the restriction.
        assert restricted.get(cutset[0]).entails_constraint(x >= 1)
