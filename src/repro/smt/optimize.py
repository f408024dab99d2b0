"""Optimisation modulo theory (OMT).

The synthesis loop of the paper asks the SMT solver to *minimise* ``λ·u``
over the models of ``I ∧ τ ∧ AvoidSpace(u, B)`` so that the returned
counterexample is extremal — a vertex of (one disjunct of) the convex hull
of one-step differences, or a ray when the objective is unbounded
(section 4.2 of the paper).

Two search modes are provided:

* ``"local"`` (default): take the first theory-consistent disjunct found by
  the lazy solver and minimise inside it.  The witness is a generator of
  that disjunct's polyhedron, which is all the termination argument of the
  paper needs, and it is what keeps the query cheap.
* ``"global"``: enumerate every theory-consistent boolean assignment and
  return the overall optimum.  This matches the letter of
  "optimization modulo theory" and is used by the ablation benchmark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import Formula, atom
from repro.lp.branch_bound import BranchAndBoundLimit, solve_ilp
from repro.lp.problem import LpResult, LpStatus, Sense
from repro.lp.simplex import solve_lp
from repro.smt.solver import SMT_COUNTERS, SmtSolver, SmtStatus


class SearchMode(enum.Enum):
    LOCAL = "local"
    GLOBAL = "global"


@dataclass
class OptimizationResult:
    """Result of minimising an objective over the models of a formula."""

    status: SmtStatus
    model: Dict[str, Fraction] = field(default_factory=dict)
    objective_value: Optional[Fraction] = None
    unbounded: bool = False
    ray: Dict[str, Fraction] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is SmtStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SmtStatus.UNSAT


class OptimizingSmtSolver:
    """Minimise a linear objective over the models of asserted formulas."""

    def __init__(
        self,
        integer_variables: Optional[Iterable[str]] = None,
        mode: str | SearchMode = SearchMode.LOCAL,
        lp_mode: str = "incremental",
    ):
        self._formulas: List[Formula] = []
        self._integer_variables: Set[str] = set(integer_variables or ())
        self._mode = SearchMode(mode) if isinstance(mode, str) else mode
        self._lp_mode = lp_mode
        #: Own counters plus the :data:`SMT_COUNTERS` summed over every
        #: lazy solver a query builds.
        self.statistics: Dict[str, int] = {
            "queries": 0,
            "assignments_explored": 0,
            **dict.fromkeys(SMT_COUNTERS, 0),
        }

    # -- construction ------------------------------------------------------------

    def assert_formula(self, formula) -> None:
        """Conjoin *formula* (a Formula or a bare Constraint) to the assertions."""
        self._formulas.append(atom(formula))

    def add_integer_variables(self, names: Iterable[str]) -> None:
        self._integer_variables |= set(names)

    # -- queries --------------------------------------------------------------------

    def check(self) -> OptimizationResult:
        """Plain satisfiability of the asserted conjunction."""
        solver = self._fresh_solver()
        try:
            result = solver.check()
        finally:
            self._absorb(solver)
        return OptimizationResult(result.status, model=result.model)

    def minimize(self, objective: LinExpr) -> OptimizationResult:
        """Minimise *objective*; extremal model or ray per the search mode."""
        self.statistics["queries"] += 1
        solver = self._fresh_solver()
        best: Optional[OptimizationResult] = None
        try:
            for constraints, model in solver.enumerate_assignments():
                self.statistics["assignments_explored"] += 1
                candidate = self._minimize_in_disjunct(
                    objective, constraints, model
                )
                if candidate.unbounded:
                    return candidate
                if best is None or self._improves(candidate, best):
                    best = candidate
                if self._mode is SearchMode.LOCAL:
                    break
        finally:
            self._absorb(solver)
        if best is None:
            return OptimizationResult(SmtStatus.UNSAT)
        return best

    # -- internals ---------------------------------------------------------------------

    def _fresh_solver(self) -> SmtSolver:
        solver = SmtSolver(
            integer_variables=self._integer_variables,
            lp_mode=self._lp_mode,
        )
        for formula in self._formulas:
            solver.assert_formula(formula)
        return solver

    def _absorb(self, solver: SmtSolver) -> None:
        for key in SMT_COUNTERS:
            self.statistics[key] += solver.statistics[key]

    @staticmethod
    def _improves(
        candidate: OptimizationResult, incumbent: OptimizationResult
    ) -> bool:
        if candidate.objective_value is None:
            return False
        if incumbent.objective_value is None:
            return True
        return candidate.objective_value < incumbent.objective_value

    def _minimize_in_disjunct(
        self,
        objective: LinExpr,
        constraints: Sequence[Constraint],
        fallback_model: Dict[str, Fraction],
    ) -> OptimizationResult:
        """Minimise the objective inside one theory-consistent conjunction."""
        closure = [constraint.weaken() for constraint in constraints]
        names = sorted(
            set(fallback_model)
            | {n for c in closure for n in c.variables()}
            | set(objective.variables())
        )
        outcome = self._solve(objective, closure, names)

        if outcome.status is LpStatus.UNBOUNDED:
            ray = {
                name: value
                for name, value in outcome.ray.items()
                if value != 0
            }
            model = self._complete(outcome.assignment or fallback_model, names)
            if not self._satisfies(constraints, model):
                model = self._complete(fallback_model, names)
            value = objective.evaluate(model)
            return OptimizationResult(
                SmtStatus.SAT,
                model=model,
                objective_value=value,
                unbounded=True,
                ray=ray,
            )

        if outcome.status is LpStatus.OPTIMAL:
            model = self._complete(outcome.assignment, names)
            if self._satisfies(constraints, model):
                return OptimizationResult(
                    SmtStatus.SAT,
                    model=model,
                    objective_value=outcome.objective,
                )
        # The optimum of the closure violates a strict constraint (it can
        # only come from an AvoidSpace atom); fall back to the theory model,
        # which satisfies every literal of the assignment.
        model = self._complete(fallback_model, names)
        value = objective.evaluate(model)
        return OptimizationResult(
            SmtStatus.SAT, model=model, objective_value=value
        )

    def _solve(
        self,
        objective: LinExpr,
        closure: Sequence[Constraint],
        names: Sequence[str],
    ) -> LpResult:
        integers = [name for name in names if name in self._integer_variables]
        if integers:
            try:
                return solve_ilp(
                    objective,
                    list(closure),
                    integers,
                    Sense.MINIMIZE,
                    names,
                )
            except BranchAndBoundLimit:
                return solve_lp(objective, list(closure), Sense.MINIMIZE, names)
        return solve_lp(objective, list(closure), Sense.MINIMIZE, names)

    @staticmethod
    def _satisfies(
        constraints: Sequence[Constraint], model: Dict[str, Fraction]
    ) -> bool:
        try:
            return all(c.satisfied_by(model) for c in constraints)
        except KeyError:
            return False

    @staticmethod
    def _complete(
        model: Dict[str, Fraction], names: Sequence[str]
    ) -> Dict[str, Fraction]:
        completed = dict(model)
        for name in names:
            completed.setdefault(name, Fraction(0))
        return completed
