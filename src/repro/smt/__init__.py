"""A lazy SMT solver for linear arithmetic, with optimisation.

This is the reproduction's stand-in for Z3: the synthesis algorithm needs

* satisfiability of formulas built from ∧ / ∨ / ∃ over linear atoms
  (the large-block transition relations of the paper),
* models (values of the program variables before and after a transition),
* *optimisation* modulo theory — minimise ``λ·u`` so counterexamples are
  extremal (vertices of the convex hull of one-step differences), and
* detection of unbounded objectives, returning the improving **ray**.

Architecture (classic lazy SMT / DPLL(T)):

``formula → NNF → Tseitin CNF (DAG-shared) → CDCL SAT core``; every
boolean model is checked by the solver's one incremental bound-based
simplex (:class:`LraSolver`), whose Farkas-row conflict cores are
blocked; a consistent assignment gets its model from one cold
:func:`check_conjunction`, which also runs branch-and-bound for integer
variables.
"""

from repro.smt.lra import LraSolver, TheoryMismatch
from repro.smt.solver import SmtResult, SmtSolver, SmtStatus
from repro.smt.optimize import OptimizationResult, OptimizingSmtSolver
from repro.smt.theory import TheoryResult, check_conjunction

__all__ = [
    "SmtSolver",
    "SmtResult",
    "SmtStatus",
    "OptimizingSmtSolver",
    "OptimizationResult",
    "TheoryResult",
    "check_conjunction",
    "LraSolver",
    "TheoryMismatch",
]
