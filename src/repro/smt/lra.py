"""Incremental bound-based simplex for the DPLL(T) theory check.

This is the linear-arithmetic solver of Dutertre & de Moura, "A Fast
Linear-Arithmetic Solver for DPLL(T)" (CAV 2006), in exact rationals:

* every distinct linear form of a multi-variable atom gets one *slack*
  variable, defined once by a tableau row; a single-variable atom bounds
  its variable directly.  Asserting a literal therefore only tightens a
  bound;
* strict atoms get δ-rational bounds ``(a, b) = a + b·δ`` for an
  infinitesimal ``δ > 0``, so they are decided without the
  δ-maximisation LP of :func:`repro.smt.theory.check_conjunction`;
* :meth:`LraSolver.check` repairs out-of-bound basic variables by
  pivoting under Bland's rule.  The tableau, the basis and the variable
  values survive from one check to the next; only the bounds are reset;
* a conflict is explained either by two clashing bounds of one variable,
  or by the *Farkas row* of a basic variable that cannot be repaired: its
  violated bound plus the bounds that pin every nonbasic variable of its
  row.  Dropping any one literal of such an explanation leaves the rest
  feasible, so the core needs no deletion filter.

The solver only decides consistency.  The lazy SMT loop takes its model
from one cold ``check_conjunction`` per consistent assignment, which keeps
the δ-maximising model and decides integer variables exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.linexpr.constraint import Constraint, Relation

#: A δ-rational ``a + b·δ``; tuples compare lexicographically, which is
#: exactly the order of δ-rationals for an infinitesimal ``δ > 0``.
Bound = Tuple[Fraction, Fraction]

_ZERO: Bound = (Fraction(0), Fraction(0))
#: Atom cache markers for constant atoms.
_TRUE = "true"
_FALSE = "false"


class TheoryMismatch(RuntimeError):
    """The incremental and the cold theory check disagree on a conjunction."""


class LraSolver:
    """One simplex tableau, reused by every theory check of a solver."""

    def __init__(self, integer_variables: Iterable[str] = ()):
        self._integers: Set[str] = set(integer_variables)
        self._names: Dict[str, int] = {}
        self._slacks: Dict[Tuple[Tuple[str, Fraction], ...], int] = {}
        self._atoms: Dict[Constraint, object] = {}
        #: ``basic -> {nonbasic: coefficient}``: basic = Σ coefficient·nonbasic.
        self._rows: Dict[int, Dict[int, Fraction]] = {}
        #: ``nonbasic -> basics whose row mentions it``.
        self._cols: Dict[int, Set[int]] = {}
        self._value: List[Bound] = []
        #: ``variable -> (bound, index of the asserting literal)``.
        self._lower: Dict[int, Tuple[Bound, int]] = {}
        self._upper: Dict[int, Tuple[Bound, int]] = {}
        self.pivots = 0

    def add_integer_variables(self, names: Iterable[str]) -> None:
        self._integers |= set(names)
        self._atoms.clear()

    # -- the theory check -----------------------------------------------------------

    def check(self, constraints: Sequence[Constraint]) -> Optional[List[int]]:
        """The conflict core (indices into *constraints*), or ``None``.

        ``None`` means the conjunction is consistent over the rationals
        (after the integer tightening of strict atoms, as in the cold
        check); a core is a subset whose conjunction is infeasible.
        """
        self._lower.clear()
        self._upper.clear()
        for index, constraint in enumerate(constraints):
            atom = self._atom(constraint)
            if atom is _TRUE:
                continue
            if atom is _FALSE:
                return [index]
            variable, lower, upper = atom
            if lower is not None:
                conflict = self._assert_lower(variable, lower, index)
                if conflict is not None:
                    return conflict
            if upper is not None:
                conflict = self._assert_upper(variable, upper, index)
                if conflict is not None:
                    return conflict
        return self._repair()

    # -- atoms -----------------------------------------------------------------------

    def _atom(self, constraint: Constraint):
        """``(variable, lower, upper)`` bounds of an atom, or a constant marker."""
        cached = self._atoms.get(constraint)
        if cached is not None:
            return cached
        atom = constraint
        if atom.is_strict() and atom.variables() <= self._integers:
            tightened = atom.tighten_for_integers()
            if tightened.relation is Relation.LE:
                atom = tightened
        terms = sorted(atom.expr.terms.items())
        if not terms:
            result = _TRUE if atom.is_trivially_true() else _FALSE
        else:
            lead = terms[0][1]
            if len(terms) == 1:
                variable = self._variable(terms[0][0])
            else:
                variable = self._slack(
                    tuple((name, value / lead) for name, value in terms)
                )
            # lead·form + c ⋈ 0  ⟺  form ⋈ -c/lead (flipped when lead < 0).
            value = -atom.expr.constant_term / lead
            if atom.relation is Relation.EQ:
                bound = (value, Fraction(0))
                result = (variable, bound, bound)
            else:
                strict = Fraction(1 if atom.relation is Relation.LT else 0)
                if lead > 0:
                    result = (variable, None, (value, -strict))
                else:
                    result = (variable, (value, strict), None)
        self._atoms[constraint] = result
        return result

    def _variable(self, name: str) -> int:
        variable = self._names.get(name)
        if variable is None:
            variable = self._names[name] = len(self._value)
            self._value.append(_ZERO)
            self._cols[variable] = set()
        return variable

    def _slack(self, form: Tuple[Tuple[str, Fraction], ...]) -> int:
        """The basic variable defined as *form*, created on first use."""
        slack = self._slacks.get(form)
        if slack is not None:
            return slack
        row: Dict[int, Fraction] = {}
        for name, coefficient in form:
            variable = self._variable(name)
            definition = self._rows.get(variable)
            if definition is None:
                row[variable] = row.get(variable, 0) + coefficient
                continue
            for nonbasic, value in definition.items():
                row[nonbasic] = row.get(nonbasic, 0) + coefficient * value
        row = {variable: value for variable, value in row.items() if value}
        slack = self._slacks[form] = len(self._value)
        a = b = Fraction(0)
        for variable, coefficient in row.items():
            value = self._value[variable]
            a += coefficient * value[0]
            b += coefficient * value[1]
            self._cols[variable].add(slack)
        self._value.append((a, b))
        self._rows[slack] = row
        return slack

    # -- bounds ----------------------------------------------------------------------

    def _assert_upper(
        self, variable: int, bound: Bound, reason: int
    ) -> Optional[List[int]]:
        current = self._upper.get(variable)
        if current is not None and current[0] <= bound:
            return None
        lower = self._lower.get(variable)
        if lower is not None and bound < lower[0]:
            return sorted({lower[1], reason})
        self._upper[variable] = (bound, reason)
        if variable not in self._rows and self._value[variable] > bound:
            self._update(variable, bound)
        return None

    def _assert_lower(
        self, variable: int, bound: Bound, reason: int
    ) -> Optional[List[int]]:
        current = self._lower.get(variable)
        if current is not None and current[0] >= bound:
            return None
        upper = self._upper.get(variable)
        if upper is not None and bound > upper[0]:
            return sorted({upper[1], reason})
        self._lower[variable] = (bound, reason)
        if variable not in self._rows and self._value[variable] < bound:
            self._update(variable, bound)
        return None

    # -- simplex -----------------------------------------------------------------------

    def _repair(self) -> Optional[List[int]]:
        """Pivot until every basic variable is within its bounds (Bland's rule)."""
        rows, value = self._rows, self._value
        lower, upper = self._lower, self._upper
        bounded = sorted(set(lower) | set(upper))
        while True:
            leaving = target = None
            for variable in bounded:
                if variable not in rows:
                    continue
                bound = lower.get(variable)
                if bound is not None and value[variable] < bound[0]:
                    leaving, target, increase = variable, bound, True
                    break
                bound = upper.get(variable)
                if bound is not None and value[variable] > bound[0]:
                    leaving, target, increase = variable, bound, False
                    break
            if leaving is None:
                return None
            row = rows[leaving]
            entering = None
            explanation = {target[1]}
            for variable in sorted(row):
                # Moving the leaving variable towards its bound needs this
                # nonbasic variable to move up (or down), which its own
                # bound may forbid; the forbidding bound explains why.
                if (row[variable] > 0) == increase:
                    bound = upper.get(variable)
                    if bound is None or value[variable] < bound[0]:
                        entering = variable
                        break
                else:
                    bound = lower.get(variable)
                    if bound is None or value[variable] > bound[0]:
                        entering = variable
                        break
                explanation.add(bound[1])
            if entering is None:
                return sorted(explanation)
            self._pivot_and_update(leaving, entering, target[0])

    def _update(self, nonbasic: int, bound: Bound) -> None:
        """Move a nonbasic variable to *bound*, keeping every row satisfied."""
        value, rows = self._value, self._rows
        old = value[nonbasic]
        da, db = bound[0] - old[0], bound[1] - old[1]
        for basic in self._cols[nonbasic]:
            coefficient = rows[basic][nonbasic]
            a, b = value[basic]
            # The δ parts are mostly zero; skip their Fraction arithmetic.
            value[basic] = (a + coefficient * da, b + coefficient * db if db else b)
        value[nonbasic] = bound

    def _pivot_and_update(self, leaving: int, entering: int, bound: Bound) -> None:
        value = self._value
        coefficient = self._rows[leaving][entering]
        old = value[leaving]
        da = (bound[0] - old[0]) / coefficient
        db = (bound[1] - old[1]) / coefficient
        value[leaving] = bound
        a, b = value[entering]
        value[entering] = (a + da, b + db)
        for basic in self._cols[entering]:
            if basic != leaving:
                factor = self._rows[basic][entering]
                a, b = value[basic]
                value[basic] = (a + factor * da, b + factor * db if db else b)
        self._pivot(leaving, entering)

    def _pivot(self, leaving: int, entering: int) -> None:
        """Swap *leaving* (basic) and *entering* (nonbasic) in the tableau."""
        rows, cols = self._rows, self._cols
        row = rows.pop(leaving)
        inverse = 1 / row.pop(entering)
        # entering = inverse·leaving − Σ (c·inverse)·other
        definition = {variable: -c * inverse for variable, c in row.items()}
        definition[leaving] = inverse
        for variable in row:
            cols[variable].discard(leaving)
        users = cols.pop(entering)
        users.discard(leaving)
        cols[leaving] = set()
        for basic in users:
            target = rows[basic]
            factor = target.pop(entering)
            for variable, c in definition.items():
                updated = target.get(variable, 0) + factor * c
                if updated:
                    target[variable] = updated
                    cols[variable].add(basic)
                elif variable in target:
                    del target[variable]
                    cols[variable].discard(basic)
        rows[entering] = definition
        for variable in definition:
            cols[variable].add(entering)
        self.pivots += 1
