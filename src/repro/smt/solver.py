"""The lazy DPLL(T) loop.

:class:`SmtSolver` ties together the propositional abstraction
(:mod:`repro.smt.cnf`), the CDCL SAT core (:mod:`repro.smt.sat`) and the
linear-arithmetic theory solver (:mod:`repro.smt.theory`):

1. the asserted formulas are Tseitin-encoded,
2. the SAT core proposes a boolean model,
3. the linear atoms assigned by that model are checked for consistency
   by the solver's one incremental :class:`~repro.smt.lra.LraSolver`,
4. an inconsistent assignment is blocked through the Farkas-row core of
   the conflict, and the loop continues until either a theory-consistent
   assignment is found or the propositional abstraction becomes
   unsatisfiable,
5. a consistent assignment gets its model from one cold
   :func:`~repro.smt.theory.check_conjunction` (δ-maximising, and exact
   over integer variables).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.formula import (
    And,
    Atom,
    Exists,
    FALSE,
    Formula,
    Or,
    TRUE,
    atom,
)
from repro.linexpr.transform import formula_variables, to_nnf
from repro.smt.cnf import CnfEncoder
from repro.smt.lra import LraSolver, TheoryMismatch
from repro.smt.sat import SatSolver
from repro.smt.theory import check_conjunction

#: The counters of :attr:`SmtSolver.statistics`, summed by the layers above.
SMT_COUNTERS = (
    "sat_calls",
    "theory_calls",
    "theory_conflicts",
    "core_literals",
    "theory_pivots",
)


class SmtStatus(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SmtResult:
    """Outcome of a satisfiability check."""

    status: SmtStatus
    model: Dict[str, Fraction] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status is SmtStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is SmtStatus.UNSAT


class SmtSolver:
    """Lazy SMT solver for quantifier-free / existential linear arithmetic."""

    def __init__(
        self,
        integer_variables: Optional[Iterable[str]] = None,
        max_theory_iterations: int = 10_000,
        lp_mode: str = "incremental",
    ):
        self._sat = SatSolver()
        # Under lp_mode="audit" every incremental conflict core is
        # re-checked by the cold theory check.
        self._audit = lp_mode == "audit"
        self._encoder = CnfEncoder(self._sat)
        self._integer_variables: Set[str] = set(integer_variables or ())
        self._theory = LraSolver(self._integer_variables)
        self._free_variables: Set[str] = set()
        self._roots: List[Formula] = []
        self._max_theory_iterations = max_theory_iterations
        self.statistics: Dict[str, int] = dict.fromkeys(SMT_COUNTERS, 0)

    # -- problem construction ---------------------------------------------------

    def add_integer_variables(self, names: Iterable[str]) -> None:
        self._integer_variables |= set(names)
        self._theory.add_integer_variables(names)

    def assert_formula(self, formula) -> None:
        """Conjoin *formula* (a Formula or a bare Constraint) to the assertions."""
        node = to_nnf(atom(formula))
        self._free_variables |= formula_variables(node)
        self._roots.append(node)
        self._encoder.assert_formula(node)

    # -- solving -------------------------------------------------------------------

    def check(self) -> SmtResult:
        """Decide satisfiability of the asserted conjunction."""
        assignment = self._next_consistent_assignment()
        if assignment is None:
            return SmtResult(SmtStatus.UNSAT)
        _, theory_model = assignment
        return SmtResult(SmtStatus.SAT, model=self._complete_model(theory_model))

    def enumerate_assignments(
        self,
    ) -> Iterable[Tuple[List[Constraint], Dict[str, Fraction]]]:
        """Yield theory-consistent assignments, blocking each one in turn.

        Every yielded pair is ``(asserted constraints, model)`` where the
        constraints are the theory literals made true by the boolean model.
        The generator terminates when the propositional abstraction has no
        further theory-consistent models.  Used by the optimising layer to
        search all disjuncts for the global optimum.
        """
        while True:
            assignment = self._next_consistent_assignment()
            if assignment is None:
                return
            literals, model = assignment
            yield self._constraints_of(literals), self._complete_model(model)
            # Block this exact set of theory literals.
            self._sat.add_clause([-literal for literal in literals])

    # -- internals --------------------------------------------------------------------

    def _next_consistent_assignment(
        self,
    ) -> Optional[Tuple[List[int], Dict[str, Fraction]]]:
        iterations = 0
        while True:
            iterations += 1
            if iterations > self._max_theory_iterations:
                raise RuntimeError(
                    "theory/SAT refinement did not converge within %d rounds"
                    % self._max_theory_iterations
                )
            self.statistics["sat_calls"] += 1
            boolean_model = self._sat.solve()
            if boolean_model is None:
                return None
            literals = self._theory_literals(boolean_model)
            constraints = self._constraints_of(literals)
            core = self._theory_check(constraints)
            if core is None:
                outcome = check_conjunction(
                    constraints, self._integer_variables
                )
                if outcome.satisfiable:
                    return literals, outcome.model
                if not self._mentions_integers(constraints):
                    raise TheoryMismatch(
                        "cold theory check refutes a rational conjunction "
                        "the incremental check accepted: %s"
                        % ", ".join(map(str, constraints))
                    )
                # Integer infeasible although rationally consistent: no
                # Farkas row explains it, so block the whole assignment.
                core = outcome.core
            self.statistics["theory_conflicts"] += 1
            self.statistics["core_literals"] += len(core)
            self._sat.add_clause([-literals[index] for index in core])

    def _theory_check(self, constraints: List[Constraint]) -> Optional[List[int]]:
        """The incremental check: a conflict core, or ``None`` if consistent."""
        self.statistics["theory_calls"] += 1
        pivots = self._theory.pivots
        core = self._theory.check(constraints)
        self.statistics["theory_pivots"] += self._theory.pivots - pivots
        if core is not None and self._audit:
            subset = [constraints[index] for index in core]
            if check_conjunction(subset, self._integer_variables).satisfiable:
                raise TheoryMismatch(
                    "incremental conflict core is feasible: %s"
                    % ", ".join(map(str, subset))
                )
        return core

    def _mentions_integers(self, constraints: Sequence[Constraint]) -> bool:
        return any(
            not constraint.variables().isdisjoint(self._integer_variables)
            for constraint in constraints
        )

    def _theory_literals(self, boolean_model: Dict[int, bool]) -> List[int]:
        """A *justification*: atoms sufficient to make every assertion true.

        After NNF conversion every atom occurs with positive polarity only,
        so the assertions are monotone in their atoms and it is enough to
        collect, for each asserted formula, the atoms of one satisfied
        branch (the first true child of every disjunction under the current
        boolean model).  This keeps the theory conjunction the size of one
        program path — exactly the disjunct the paper's algorithm reasons
        about — instead of the whole formula, and it makes theory conflicts
        and their blocking clauses much smaller.
        """
        justified: Dict[int, None] = {}
        for root in self._roots:
            self._justify(root, boolean_model, justified)
        return list(justified)

    def _justify(
        self,
        node: Formula,
        boolean_model: Dict[int, bool],
        justified: Dict[int, None],
    ) -> None:
        if node is TRUE:
            return
        if isinstance(node, Atom):
            constraint = node.constraint
            if constraint.is_trivially_true():
                return
            justified.setdefault(self._encoder.atom_literal(constraint))
            return
        if isinstance(node, And):
            for child in node.operands:
                self._justify(child, boolean_model, justified)
            return
        if isinstance(node, Or):
            for child in node.operands:
                if self._holds(child, boolean_model):
                    self._justify(child, boolean_model, justified)
                    return
            # No child is boolean-true (can only happen through rounding of
            # don't-care variables); fall back to the first child.
            self._justify(node.operands[0], boolean_model, justified)
            return
        if isinstance(node, Exists):
            self._justify(node.body, boolean_model, justified)
            return
        raise TypeError("unexpected formula node %r in justification" % (node,))

    def _holds(self, node: Formula, boolean_model: Dict[int, bool]) -> bool:
        """Evaluate a (monotone, NNF) formula under the boolean model."""
        if node is TRUE:
            return True
        if node is FALSE:
            return False
        if isinstance(node, Atom):
            if node.constraint.is_trivially_true():
                return True
            if node.constraint.is_trivially_false():
                return False
            literal = self._encoder.atom_literal(node.constraint)
            return bool(boolean_model.get(literal))
        if isinstance(node, And):
            return all(self._holds(child, boolean_model) for child in node.operands)
        if isinstance(node, Or):
            return any(self._holds(child, boolean_model) for child in node.operands)
        if isinstance(node, Exists):
            return self._holds(node.body, boolean_model)
        return False

    def _constraints_of(self, literals: Sequence[int]) -> List[Constraint]:
        constraints: List[Constraint] = []
        for literal in literals:
            constraint = self._encoder.constraint_of(abs(literal))
            if constraint is None:
                continue
            if literal > 0:
                constraints.append(constraint)
            else:
                constraints.append(self._negate(constraint))
        return constraints

    @staticmethod
    def _negate(constraint: Constraint) -> Constraint:
        if constraint.relation is Relation.EQ:
            # ¬(e = 0) is a disjunction; over-approximating it as TRUE would
            # be unsound for satisfiability, so keep it as a non-strict
            # disequality witness: we choose the half the theory can check.
            # The encoder never produces negative equality literals because
            # equalities appear positively in the NNF input fragment, so
            # reaching this branch indicates a blocking clause artefact; the
            # safe over-approximation for *blocking* purposes is "true",
            # represented by a trivially satisfied constraint.
            return Constraint(constraint.expr * 0, Relation.LE)
        return constraint.negate()

    def _complete_model(self, theory_model: Dict[str, Fraction]) -> Dict[str, Fraction]:
        model = dict(theory_model)
        for name in self._free_variables:
            model.setdefault(name, Fraction(0))
        return model

    # -- helpers exposed to the optimiser -----------------------------------------------

    @property
    def integer_variables(self) -> Set[str]:
        return set(self._integer_variables)

    @property
    def free_variables(self) -> Set[str]:
        return set(self._free_variables)
