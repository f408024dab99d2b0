"""Model objects for linear programs.

A :class:`LinearProgram` is a set of non-strict linear constraints over
named rational variables together with an affine objective.  Variables are
*free* (unbounded in both directions) unless a constraint says otherwise —
nonnegativity must be stated explicitly, exactly as in Definition 11 of the
paper where the ``γ_i`` carry explicit ``γ_i ≥ 0`` constraints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr


class Sense(enum.Enum):
    """Optimisation direction."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


class LpStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    """Result of solving a linear program.

    ``assignment`` is a total map over the program's variables when the
    status is OPTIMAL (and a feasible starting point when UNBOUNDED);
    ``ray`` is a direction of unbounded improvement when UNBOUNDED.
    ``pivots`` counts the simplex pivots the solve performed — the cost
    metric the warm-start machinery of :mod:`repro.lp.simplex` reduces.
    """

    status: LpStatus
    assignment: Dict[str, Fraction] = field(default_factory=dict)
    objective: Optional[Fraction] = None
    ray: Dict[str, Fraction] = field(default_factory=dict)
    pivots: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status is LpStatus.OPTIMAL

    @property
    def is_infeasible(self) -> bool:
        return self.status is LpStatus.INFEASIBLE

    @property
    def is_unbounded(self) -> bool:
        return self.status is LpStatus.UNBOUNDED


class LinearProgram:
    """A linear program under construction."""

    def __init__(
        self,
        sense: Sense = Sense.MINIMIZE,
        objective: Optional[LinExpr] = None,
    ):
        self.sense = sense
        self.objective = objective if objective is not None else LinExpr()
        self.constraints: List[Constraint] = []
        self._declared: List[str] = []

    # -- construction --------------------------------------------------------

    def declare(self, *names: str) -> None:
        """Declare variables so they appear in the solution even if unused."""
        for name in names:
            if name not in self._declared:
                self._declared.append(name)

    def add_constraint(self, constraint: Constraint) -> None:
        """Add a non-strict constraint.

        Strict inequalities are rejected: linear programming optimises over
        closed sets.  Callers that need strictness (the SMT theory solver)
        use the epsilon encoding in :mod:`repro.smt.theory`.
        """
        if constraint.relation is Relation.LT:
            raise ValueError(
                "strict inequality %s cannot be added to an LP" % constraint
            )
        self.constraints.append(constraint)

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    # -- inspection ----------------------------------------------------------

    def variables(self) -> List[str]:
        """All variables, declared ones first, then in order of appearance."""
        ordered: List[str] = list(self._declared)
        seen = set(ordered)
        for constraint in self.constraints:
            for name in sorted(constraint.variables()):
                if name not in seen:
                    seen.add(name)
                    ordered.append(name)
        for name in sorted(self.objective.variables()):
            if name not in seen:
                seen.add(name)
                ordered.append(name)
        return ordered

    @property
    def num_rows(self) -> int:
        """Number of constraints — the "lines" statistic of Table 1."""
        return len(self.constraints)

    @property
    def num_cols(self) -> int:
        """Number of variables — the "columns" statistic of Table 1."""
        return len(self.variables())

    def solve(self) -> LpResult:
        """Solve with the exact simplex (convenience wrapper)."""
        from repro.lp.simplex import solve_lp

        return solve_lp(
            self.objective,
            self.constraints,
            sense=self.sense,
            variables=self.variables(),
        )
