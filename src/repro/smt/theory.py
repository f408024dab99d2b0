"""Theory solver for conjunctions of linear arithmetic constraints.

Given a conjunction of (possibly strict) linear constraints over rational
or integer variables, the solver decides satisfiability and produces a
model.  It solves one cold LP (or ILP) per call; the lazy SMT loop uses it
once per theory-consistent assignment, for the model, and takes its
conflict cores from the incremental :class:`repro.smt.lra.LraSolver`.

Strict inequalities are handled exactly with the standard trick: every
``e < 0`` is replaced by ``e + δ ≤ 0`` for a shared fresh variable ``δ``
and we maximise ``δ`` under ``0 ≤ δ ≤ 1``; the conjunction is satisfiable
with strict inequalities iff the maximum is positive.  Constraints whose
variables are all integers are instead tightened to ``e ≤ -1`` which keeps
the branch-and-bound integer search exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.branch_bound import BranchAndBoundLimit, solve_ilp
from repro.lp.problem import LpStatus, Sense
from repro.lp.simplex import solve_lp

_DELTA = "__delta__"


@dataclass
class TheoryResult:
    """Outcome of a conjunction feasibility check."""

    satisfiable: bool
    model: Dict[str, Fraction] = field(default_factory=dict)
    core: List[int] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience only
        return self.satisfiable


def _prepare(
    constraints: Sequence[Constraint], integer_variables: Set[str]
) -> Tuple[List[Constraint], bool]:
    """Rewrite strict inequalities; returns (rows, uses_delta)."""
    rows: List[Constraint] = []
    uses_delta = False
    for constraint in constraints:
        if constraint.relation is Relation.LT:
            integral = constraint.variables() <= integer_variables
            tightened = constraint.tighten_for_integers() if integral else None
            if tightened is not None and tightened.relation is Relation.LE:
                rows.append(tightened)
            else:
                rows.append(
                    Constraint(
                        constraint.expr + LinExpr.variable(_DELTA),
                        Relation.LE,
                    )
                )
                uses_delta = True
        else:
            rows.append(constraint)
    return rows, uses_delta


def check_conjunction(
    constraints: Sequence[Constraint],
    integer_variables: Optional[Set[str]] = None,
    kernel: str = "exact",
) -> TheoryResult:
    """Decide satisfiability of a conjunction of linear constraints.

    An unsatisfiable result carries the trivial core: the one constant
    false constraint if there is one, otherwise every index.
    """
    integer_variables = integer_variables or set()

    trivially_false = [
        index
        for index, constraint in enumerate(constraints)
        if constraint.is_trivially_false()
    ]
    if trivially_false:
        return TheoryResult(False, core=[trivially_false[0]])

    rows, uses_delta = _prepare(constraints, integer_variables)

    all_variables: List[str] = sorted(
        {name for row in rows for name in row.variables()}
    )

    if uses_delta:
        objective = LinExpr.variable(_DELTA)
        bounds = [
            LinExpr.variable(_DELTA) >= 0,
            LinExpr.variable(_DELTA) <= 1,
        ]
        outcome = _solve(
            objective,
            rows + bounds,
            Sense.MAXIMIZE,
            all_variables,
            integer_variables,
            kernel,
        )
        satisfiable = (
            outcome.status is LpStatus.OPTIMAL
            and outcome.objective is not None
            and outcome.objective > 0
        )
    else:
        outcome = _solve(
            LinExpr(),
            rows,
            Sense.MINIMIZE,
            all_variables,
            integer_variables,
            kernel,
        )
        satisfiable = outcome.status is not LpStatus.INFEASIBLE

    if satisfiable:
        model = {
            name: value
            for name, value in outcome.assignment.items()
            if name != _DELTA
        }
        return TheoryResult(True, model=model)

    return TheoryResult(False, core=list(range(len(constraints))))


def _solve(
    objective: LinExpr,
    rows: Sequence[Constraint],
    sense: Sense,
    variables: Sequence[str],
    integer_variables: Set[str],
    kernel: str = "exact",
):
    names = sorted(
        set(variables)
        | set(objective.variables())
        | {name for row in rows for name in row.variables()}
    )
    relevant_integers = [name for name in names if name in integer_variables]
    if relevant_integers:
        try:
            return solve_ilp(
                objective,
                list(rows),
                relevant_integers,
                sense,
                names,
                kernel=kernel,
            )
        except BranchAndBoundLimit:
            # Fall back to the rational relaxation: for the synthesis loop a
            # rational witness is still a sound counterexample direction.
            return solve_lp(objective, list(rows), sense, names, kernel=kernel)
    return solve_lp(objective, list(rows), sense, names, kernel=kernel)
