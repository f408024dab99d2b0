"""Candidate templates for the CEGIS engine.

A template answers three questions for the engine:

* what does a *candidate* look like and where do refined candidates come
  from — here, the affine per-cutpoint functions of Definition 11,
  recomputed by ``LP(V, Constraints(I))`` over the collected generators;
* how is a candidate turned into the oracle's objective — ``λ · u``,
  the one-step decrease of the candidate over the stacked difference
  space of Definition 12;
* (lexicographic case) how components compose — the flatness restriction
  ``λ_{d'} · u = 0`` of Algorithm 2 and the linear-dependence failure
  test of Theorem 1.

Keeping these behind a small interface is what lets the same engine run
the paper's loop, the ablations, and future template families (e.g. an
octagon-shaped candidate space) without touching the loop itself.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.lp_instance import LpStatistics, RankingLp
from repro.core.problem import TerminationProblem
from repro.core.ranking import AffineRankingFunction
from repro.linalg.vector import Vector
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.smt.optimize import SearchMode


class LinearTemplate:
    """Linear per-cutpoint affine template (Algorithm 1/3).

    Owns the termination problem's encoding conventions the loop needs:
    the zero starting candidate, the incremental ranking LP, the
    ``λ · u`` objective, and the end-of-loop stuttering check.
    """

    def __init__(
        self,
        problem: TerminationProblem,
        integer_mode: bool = False,
        smt_mode: str | SearchMode = SearchMode.LOCAL,
        lp_mode: str = "incremental",
    ):
        self.problem = problem
        self.integer_mode = integer_mode
        self.smt_mode = smt_mode
        #: Passed to the SMT queries: ``"audit"`` re-checks every
        #: incremental theory conflict with the cold check.
        self.lp_mode = lp_mode
        #: ``Φ``: the disjunction over blocks, built once per template and
        #: shared by every oracle query of every component.
        self.transition_formula = problem.transition_formula()

    # -- candidates -----------------------------------------------------------------

    def initial_candidate(self) -> AffineRankingFunction:
        return self.problem.zero_ranking()

    def make_lp(self, statistics: LpStatistics, lp_mode: str) -> RankingLp:
        """A fresh ``LP(V, Constraints(I))`` instance (Definition 11)."""
        return RankingLp(self.problem, statistics, mode=lp_mode)

    def objective(self, candidate: AffineRankingFunction) -> LinExpr:
        """``λ · u`` — what the oracle minimises / refutes."""
        return self.problem.objective(candidate)

    # -- end-of-loop checks ---------------------------------------------------------

    def has_stuttering_step(self, extra_constraints: Sequence = ()) -> bool:
        """Whether ``Φ`` admits a step with ``u = 0`` (end of Algorithm 1)."""
        from repro.synthesis.oracles import has_stuttering_step

        return has_stuttering_step(
            self.problem,
            self.transition_formula,
            extra_constraints,
            self.integer_mode,
            lp_mode=self.lp_mode,
        )


class LexicographicTemplate(LinearTemplate):
    """Lexicographic multidimensional template (Algorithm 2).

    Extends the linear template with the composition rules: the flatness
    constraint restricting the next dimension, the stacked vector used by
    the Theorem-1 dependence test, and the dimension cap.
    """

    def __init__(
        self,
        problem: TerminationProblem,
        integer_mode: bool = False,
        smt_mode: str | SearchMode = SearchMode.LOCAL,
        max_dimension: Optional[int] = None,
        lp_mode: str = "incremental",
    ):
        super().__init__(
            problem,
            integer_mode=integer_mode,
            smt_mode=smt_mode,
            lp_mode=lp_mode,
        )
        self.max_dimension = (
            max_dimension
            if max_dimension is not None
            else problem.stacked_dimension
        )

    def stacked_vector(self, component: AffineRankingFunction) -> Vector:
        """The component as one vector over the stacked ``u`` space."""
        return component.stacked_vector(self.problem.cutset)

    def flatness_constraint(self, component: AffineRankingFunction) -> Constraint:
        """``λ_d · u = 0``: restrict the next dimension to constant steps."""
        return Constraint(self.problem.objective(component), Relation.EQ)
