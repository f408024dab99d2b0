"""Branch-and-bound for (mixed) integer linear programs.

The SMT theory layer uses this to produce *integer* models of conjunctions
of linear constraints, which is how the paper handles integer program
variables ("by specifying them as integers in the SMT-solving call") —
no Gomory–Chvátal cut machinery is needed on the synthesis side.

The search is a plain depth-first branch-and-bound on the exact LP
relaxation.  A node branches on the first integer variable with a
fractional relaxation value; pruning uses the incumbent objective when one
exists.  An iteration limit guards against pathological inputs (the
transition systems in the benchmark suites stay far below it).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.lp.problem import LpResult, LpStatus, Sense
from repro.lp.simplex import solve_lp


class BranchAndBoundLimit(Exception):
    """Raised when the node budget of the search is exhausted."""


def _first_fractional(
    assignment: Dict[str, Fraction], integer_variables: Sequence[str]
) -> Optional[str]:
    for name in integer_variables:
        value = assignment.get(name, Fraction(0))
        if value.denominator != 1:
            return name
    return None


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def solve_ilp(
    objective: LinExpr,
    constraints: Sequence[Constraint],
    integer_variables: Sequence[str],
    sense: Sense = Sense.MINIMIZE,
    variables: Optional[Sequence[str]] = None,
    max_nodes: int = 2000,
) -> LpResult:
    """Optimise *objective* with the listed variables restricted to integers.

    The result mirrors :func:`repro.lp.simplex.solve_lp`.  When the LP
    relaxation is unbounded the problem is reported unbounded (for the
    formulas produced by the synthesiser an unbounded relaxation direction
    is also an unbounded integer direction, because all data are rational).
    """
    integer_set: List[str] = list(integer_variables)
    nodes_explored = 0

    best: Optional[LpResult] = None

    def better(candidate: Fraction, incumbent: Fraction) -> bool:
        if sense is Sense.MINIMIZE:
            return candidate < incumbent
        return candidate > incumbent

    stack: List[List[Constraint]] = [list(constraints)]
    unbounded_result: Optional[LpResult] = None

    while stack:
        nodes_explored += 1
        if nodes_explored > max_nodes:
            raise BranchAndBoundLimit(
                "branch-and-bound exceeded %d nodes" % max_nodes
            )
        node_constraints = stack.pop()
        relaxation = solve_lp(objective, node_constraints, sense, variables)
        if relaxation.status is LpStatus.INFEASIBLE:
            continue
        if relaxation.status is LpStatus.UNBOUNDED:
            # Remember and keep searching: an integer point must also exist
            # along the ray for the overall problem to be unbounded, but the
            # caller (the SMT optimiser) treats "unbounded relaxation" as
            # "unbounded" and extracts the ray, which is sound for the
            # synthesis algorithm (rays are added as generators).
            unbounded_result = relaxation
            break
        assert relaxation.objective is not None
        if best is not None and not better(
            relaxation.objective, best.objective
        ):
            continue
        branch_variable = _first_fractional(relaxation.assignment, integer_set)
        if branch_variable is None:
            if best is None or better(relaxation.objective, best.objective):
                best = relaxation
            continue
        value = relaxation.assignment[branch_variable]
        floor_value = _floor(value)
        lower_branch = list(node_constraints)
        lower_branch.append(
            LinExpr.variable(branch_variable) <= floor_value
        )
        upper_branch = list(node_constraints)
        upper_branch.append(
            LinExpr.variable(branch_variable) >= floor_value + 1
        )
        stack.append(upper_branch)
        stack.append(lower_branch)

    if unbounded_result is not None:
        return unbounded_result
    if best is None:
        return LpResult(status=LpStatus.INFEASIBLE)
    return best


def find_integer_point(
    constraints: Sequence[Constraint],
    integer_variables: Sequence[str],
    variables: Optional[Sequence[str]] = None,
    max_nodes: int = 2000,
) -> LpResult:
    """Find any integer-feasible point of the constraint system."""
    return solve_ilp(
        LinExpr(),
        constraints,
        integer_variables,
        Sense.MINIMIZE,
        variables,
        max_nodes,
    )
