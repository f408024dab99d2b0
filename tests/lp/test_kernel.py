"""The packed int64 kernel through the simplex: bit-identical to exact.

``kernel="packed"`` must be a pure performance change: same status, same
optimal value, same assignment, and the *same pivot sequence* (asserted
through the pivot count) as ``kernel="exact"`` on every instance.  The
warm-start path additionally gets the batched-repair guarantees under
test here: k rows appended between solves pay **one** dual repair pass, and an objective change touching only nonbasic columns
is repriced incrementally instead of re-eliminating the cost row.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.linalg.packed import numpy_available
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr, var
from repro.lp.problem import LpStatus, Sense
from repro.lp.simplex import SimplexState, solve_lp

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="packed kernel requires numpy"
)

x, y, z = var("x"), var("y"), var("z")


def _random_lp(seed, variables=30, rows=18):
    """A seeded random LP wide enough for ``auto`` to pick packed."""
    rng = random.Random(seed)
    names = ["v%d" % i for i in range(variables)]
    constraints = []
    for name in names:
        constraints.append(Constraint(LinExpr({name: Fraction(-1)}), Relation.LE))
        constraints.append(
            Constraint(
                LinExpr({name: Fraction(1)}, Fraction(-rng.randint(3, 25))),
                Relation.LE,
            )
        )
    for _ in range(rows):
        terms = {
            name: Fraction(rng.randint(-6, 6))
            for name in rng.sample(names, rng.randint(3, 8))
        }
        constraints.append(
            Constraint(
                LinExpr(terms, Fraction(-rng.randint(0, 40))), Relation.LE
            )
        )
    objective = LinExpr(
        {name: Fraction(rng.randint(-4, 4)) for name in rng.sample(names, 10)}
    )
    return objective, constraints


@needs_numpy
class TestPackedSolveIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_packed_matches_exact_bit_for_bit(self, seed):
        objective, constraints = _random_lp(seed)
        for sense in (Sense.MAXIMIZE, Sense.MINIMIZE):
            packed = solve_lp(objective, constraints, sense, kernel="packed")
            exact = solve_lp(objective, constraints, sense, kernel="exact")
            assert packed.status == exact.status
            assert packed.objective == exact.objective
            assert packed.assignment == exact.assignment
            # Same pivot count == same pivot sequence (Bland + identical
            # ratio tests are deterministic given the sequence).
            assert packed.pivots == exact.pivots

    def test_infeasible_and_unbounded_agree(self):
        infeasible = [x <= 1, x >= 2]
        for kernel in ("packed", "exact"):
            outcome = solve_lp(x, infeasible, Sense.MAXIMIZE, kernel=kernel)
            assert outcome.status is LpStatus.INFEASIBLE
        unbounded = [x >= 0]
        for kernel in ("packed", "exact"):
            outcome = solve_lp(x, unbounded, Sense.MAXIMIZE, kernel=kernel)
            assert outcome.status is LpStatus.UNBOUNDED


@needs_numpy
class TestPackedWarmState:
    @pytest.mark.parametrize("seed", range(4))
    def test_warm_runs_agree_across_kernels(self, seed):
        objective, constraints = _random_lp(seed, variables=26, rows=10)
        states = {
            kernel: SimplexState(Sense.MAXIMIZE, kernel=kernel)
            for kernel in ("packed", "exact")
        }
        for state in states.values():
            state.add_constraints(constraints[: len(constraints) - 6])
            state.set_objective(objective)
        first = {k: s.solve() for k, s in states.items()}
        assert first["packed"].status == first["exact"].status
        assert first["packed"].objective == first["exact"].objective
        for extra in constraints[len(constraints) - 6 :]:
            for state in states.values():
                state.add_constraint(extra)
            results = {k: s.solve() for k, s in states.items()}
            assert results["packed"].status == results["exact"].status
            assert results["packed"].objective == results["exact"].objective
            assert results["packed"].pivots == results["exact"].pivots


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
