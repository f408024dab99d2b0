"""The linear-programming instance ``LP(V, Constraints(I))`` (Definition 11).

Given the set ``V`` of counterexample generators collected so far (vertices
and rays of the convex hull of one-step differences, in the stacked
``u``-space of Definition 12) and the lifted invariant constraints
``Constraints(I)`` (Definition 14), the LP

    maximise   Σ_j δ_j
    subject to γ_{k,i} ≥ 0
               0 ≤ δ_j ≤ 1
               Σ_{k,i} γ_{k,i} (v_j · e_k(a_i^k)) ≥ δ_j     for every v_j ∈ V

yields a quasi ranking function of maximal termination power
(Proposition 5): ``λ_k = Σ_i γ_{k,i} a_i^k`` and ``λ0_k = Σ_i γ_{k,i} b_i^k``.

The instance grows by **one row per counterexample** — this is the number
reported as "lines" in Table 1 of the paper, and the reason the lazy
approach beats the eager Farkas constructions by orders of magnitude.

Because the instance only ever *grows*, the default solving mode keeps a
persistent :class:`~repro.lp.simplex.SimplexState` alive across the
counterexample loop: each new generator appends one row (plus its δ
column) to the already-solved tableau and re-solves with a handful of
dual/primal pivots instead of a cold two-phase solve.  Three modes exist:

* ``"incremental"`` (default) — warm-started persistent LP;
* ``"cold"`` — rebuild and re-solve from scratch every iteration (the
  seed behaviour, kept for the warm-vs-cold ablation);
* ``"audit"`` — warm-start *and* shadow-solve cold, asserting that both
  reach the same optimum; the measured pivot difference feeds the
  ``pivots_saved`` counter.  This is the mode the regression tests run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from repro.core.problem import TerminationProblem
from repro.core.ranking import AffineRankingFunction
from repro.linalg.vector import Vector
from repro.linexpr.expr import LinExpr
from repro.lp.problem import LinearProgram, LpResult, LpStatus, Sense
from repro.lp.simplex import SimplexState

#: Valid values for the ``mode`` argument of :class:`RankingLp` (and the
#: ``lp_mode`` argument threaded down from the provers).
LP_MODES = ("incremental", "cold", "audit")


@dataclass
class LpStatistics:
    """Sizes and solve costs of the LP instances of one synthesis run."""

    instances: int = 0
    total_rows: int = 0
    total_cols: int = 0
    max_rows: int = 0
    max_cols: int = 0
    pivots: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    pivots_saved: int = 0
    #: LP entailment solves the projection layer's syntactic/Kohler
    #: pruning made unnecessary during this run (attributed by the
    #: analysis pipeline from the process-wide projection counters).
    redundancy_lp_saved: int = 0
    #: Unified CEGIS-engine counters (see :mod:`repro.synthesis.engine`):
    #: counterexample-oracle queries issued, generator rows added to
    #: ``LP(V, Constraints(I))``, and flat directions absorbed into the
    #: ``AvoidSpace`` basis.
    oracle_queries: int = 0
    cex_rows: int = 0
    flat_directions: int = 0
    #: Every simplex tableau set-up and pivot of the run, ranking LP or
    #: not (attributed by the analysis pipeline from the thread-local
    #: :func:`repro.lp.simplex.lp_counters`).
    resolved_exact: int = 0
    row_pivots: int = 0
    #: Lazy-SMT counters of the counterexample oracle's queries (summed
    #: from :attr:`repro.smt.solver.SmtSolver.statistics`): boolean models
    #: proposed by the SAT core, incremental theory checks, conflicts
    #: blocked, literals in their cores, and theory-simplex pivots.
    smt_sat_calls: int = 0
    smt_theory_checks: int = 0
    smt_theory_conflicts: int = 0
    smt_core_literals: int = 0
    smt_theory_pivots: int = 0

    def record(self, rows: int, cols: int) -> None:
        self.instances += 1
        self.total_rows += rows
        self.total_cols += cols
        self.max_rows = max(self.max_rows, rows)
        self.max_cols = max(self.max_cols, cols)

    def record_solve(self, pivots: int, warm: bool) -> None:
        """Account one simplex solve (its pivots, and warm vs cold)."""
        self.pivots += pivots
        if warm:
            self.warm_solves += 1
        else:
            self.cold_solves += 1

    def record_smt(self, counters: Dict[str, int]) -> None:
        """Add :data:`repro.smt.solver.SMT_COUNTERS` values to the smt_* fields."""
        self.smt_sat_calls += counters.get("sat_calls", 0)
        self.smt_theory_checks += counters.get("theory_calls", 0)
        self.smt_theory_conflicts += counters.get("theory_conflicts", 0)
        self.smt_core_literals += counters.get("core_literals", 0)
        self.smt_theory_pivots += counters.get("theory_pivots", 0)

    @property
    def average_rows(self) -> float:
        return self.total_rows / self.instances if self.instances else 0.0

    @property
    def average_cols(self) -> float:
        return self.total_cols / self.instances if self.instances else 0.0

    # The int64 kernels are gone, so nothing resolves to them, pivots on
    # them or overflows them.  ``perfbench/metrics.py`` still reads these
    # three counters by ``getattr``; they stay readable as zeros.
    resolved_packed = property(lambda self: 0)
    stacked_pivots = property(lambda self: 0)
    overflow_fallbacks = property(lambda self: 0)

    def to_dict(self) -> dict:
        """Plain-JSON view: the raw counters plus derived averages.

        The derived ``average_rows``/``average_cols`` keys are included
        for human readers and dashboards; :meth:`from_dict` ignores them,
        so the raw counters round-trip exactly.
        """
        return {
            "instances": self.instances,
            "total_rows": self.total_rows,
            "total_cols": self.total_cols,
            "max_rows": self.max_rows,
            "max_cols": self.max_cols,
            "pivots": self.pivots,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "pivots_saved": self.pivots_saved,
            "redundancy_lp_saved": self.redundancy_lp_saved,
            "oracle_queries": self.oracle_queries,
            "cex_rows": self.cex_rows,
            "flat_directions": self.flat_directions,
            "resolved_exact": self.resolved_exact,
            "row_pivots": self.row_pivots,
            "smt_sat_calls": self.smt_sat_calls,
            "smt_theory_checks": self.smt_theory_checks,
            "smt_theory_conflicts": self.smt_theory_conflicts,
            "smt_core_literals": self.smt_core_literals,
            "smt_theory_pivots": self.smt_theory_pivots,
            "average_rows": self.average_rows,
            "average_cols": self.average_cols,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LpStatistics":
        """Inverse of :meth:`to_dict` (derived keys are recomputed).

        Unknown keys are ignored, so payloads that still carry the
        removed int64-kernel counters (``resolved_packed``,
        ``stacked_pivots``, ``overflow_fallbacks``, ``kernel_chosen``)
        load unchanged.
        """
        return cls(
            instances=data.get("instances", 0),
            total_rows=data.get("total_rows", 0),
            total_cols=data.get("total_cols", 0),
            max_rows=data.get("max_rows", 0),
            max_cols=data.get("max_cols", 0),
            pivots=data.get("pivots", 0),
            warm_solves=data.get("warm_solves", 0),
            cold_solves=data.get("cold_solves", 0),
            pivots_saved=data.get("pivots_saved", 0),
            redundancy_lp_saved=data.get("redundancy_lp_saved", 0),
            oracle_queries=data.get("oracle_queries", 0),
            cex_rows=data.get("cex_rows", 0),
            flat_directions=data.get("flat_directions", 0),
            resolved_exact=data.get("resolved_exact", 0),
            row_pivots=data.get("row_pivots", 0),
            smt_sat_calls=data.get("smt_sat_calls", 0),
            smt_theory_checks=data.get("smt_theory_checks", 0),
            smt_theory_conflicts=data.get("smt_theory_conflicts", 0),
            smt_core_literals=data.get("smt_core_literals", 0),
            smt_theory_pivots=data.get("smt_theory_pivots", 0),
        )

    def merge(self, other: "LpStatistics") -> None:
        self.instances += other.instances
        self.total_rows += other.total_rows
        self.total_cols += other.total_cols
        self.max_rows = max(self.max_rows, other.max_rows)
        self.max_cols = max(self.max_cols, other.max_cols)
        self.pivots += other.pivots
        self.warm_solves += other.warm_solves
        self.cold_solves += other.cold_solves
        self.pivots_saved += other.pivots_saved
        self.redundancy_lp_saved += other.redundancy_lp_saved
        self.oracle_queries += other.oracle_queries
        self.cex_rows += other.cex_rows
        self.flat_directions += other.flat_directions
        self.resolved_exact += other.resolved_exact
        self.row_pivots += other.row_pivots
        self.smt_sat_calls += other.smt_sat_calls
        self.smt_theory_checks += other.smt_theory_checks
        self.smt_theory_conflicts += other.smt_theory_conflicts
        self.smt_core_literals += other.smt_core_literals
        self.smt_theory_pivots += other.smt_theory_pivots


@dataclass
class RankingLpSolution:
    """Outcome of one ``LP(V, Constraints(I))`` solve."""

    gammas: List[Fraction]
    deltas: List[Fraction]
    ranking: AffineRankingFunction
    all_gamma_zero: bool
    rows: int
    cols: int

    def delta_of(self, index: int) -> Fraction:
        return self.deltas[index]


class RankingLp:
    """Builder/solver for the incremental constraint system of Algorithm 1."""

    def __init__(
        self,
        problem: TerminationProblem,
        statistics: Optional[LpStatistics] = None,
        mode: str = "incremental",
    ):
        if mode not in LP_MODES:
            raise ValueError(
                "unknown LP mode %r (available: %s)" % (mode, ", ".join(LP_MODES))
            )
        self.problem = problem
        self.mode = mode
        self.rows = problem.invariant_rows()
        self.stacked_rows = [problem.stacked_row(row) for row in self.rows]
        self.counterexamples: List[Vector] = []
        self.statistics = statistics if statistics is not None else LpStatistics()
        self._state: Optional[SimplexState] = None
        self._synced = 0  # counterexamples already pushed into the state
        self._objective = LinExpr()

    # -- construction ----------------------------------------------------------------

    def add_counterexample(self, generator: Vector) -> int:
        """Add a vertex or ray generator ``v_j``; returns its index in ``V``."""
        if len(generator) != self.problem.stacked_dimension:
            raise ValueError("counterexample has the wrong dimension")
        self.counterexamples.append(generator)
        return len(self.counterexamples) - 1

    # -- solving ------------------------------------------------------------------------

    def _gamma_name(self, index: int) -> str:
        return "gamma_%d" % index

    def _delta_name(self, index: int) -> str:
        return "delta_%d" % index

    def _generator_row(self, j: int) -> LinExpr:
        """``Σ_i γ_i (v_j · stacked_i) − δ_j`` (constrained ``≥ 0``)."""
        generator = self.counterexamples[j]
        combination = LinExpr()
        for i, stacked in enumerate(self.stacked_rows):
            coefficient = generator.dot(stacked)
            if coefficient != 0:
                combination = combination + LinExpr(
                    {self._gamma_name(i): coefficient}
                )
        return combination - LinExpr.variable(self._delta_name(j))

    def solve(self) -> RankingLpSolution:
        """Solve the current instance (it is always feasible, Proposition 5)."""
        # Table-1 statistics: one row per counterexample, one column block
        # for the γ's plus one δ per counterexample.  A repeat solve with
        # no new counterexample returns the persistent state's cached
        # result: it must not be accounted as another instance/solve, nor
        # shadow-solved again in audit mode (cold mode has no cache and
        # genuinely re-solves, so it keeps recording every call).
        rows = len(self.counterexamples)
        cols = len(self.rows) + len(self.counterexamples)
        fresh = self._state is None or self._synced < len(self.counterexamples)
        if self.mode == "cold" or fresh:
            self.statistics.record(rows, cols)

        if self.mode == "cold":
            outcome = self._solve_cold()
        else:
            outcome = self._solve_incremental(fresh)
            if self.mode == "audit" and fresh:
                self._audit_against_cold(outcome)
        if outcome.status is not LpStatus.OPTIMAL:
            raise RuntimeError(
                "LP(V, Constraints(I)) must be feasible and bounded, got %s"
                % outcome.status
            )

        gammas = [
            outcome.assignment.get(self._gamma_name(i), Fraction(0))
            for i in range(len(self.rows))
        ]
        deltas = [
            outcome.assignment.get(self._delta_name(j), Fraction(0))
            for j in range(len(self.counterexamples))
        ]
        ranking = self._ranking_from_gammas(gammas)
        all_zero = all(value == 0 for value in gammas)
        return RankingLpSolution(
            gammas=gammas,
            deltas=deltas,
            ranking=ranking,
            all_gamma_zero=all_zero,
            rows=rows,
            cols=cols,
        )

    # -- the three solving strategies -------------------------------------------------

    def _solve_incremental(self, fresh: bool) -> LpResult:
        """Push new counterexamples into the persistent LP and re-solve.

        γ's and δ's are declared nonnegative (single standard-form columns)
        so the explicit ``γ ≥ 0`` / ``δ ≥ 0`` rows of the textbook
        formulation disappear into the column bounds; each counterexample
        contributes its ``δ_j ≤ 1`` bound and its generator row.  When
        *fresh* is false the state returns its cached result and no solve
        is accounted.
        """
        if self._state is None:
            self._state = SimplexState(Sense.MAXIMIZE)
            for i in range(len(self.rows)):
                self._state.declare(self._gamma_name(i), nonnegative=True)
        state = self._state
        for j in range(self._synced, len(self.counterexamples)):
            delta = self._delta_name(j)
            state.declare(delta, nonnegative=True)
            state.add_constraint(LinExpr.variable(delta) <= 1)
            state.add_constraint(self._generator_row(j) >= 0)
            self._objective = self._objective + LinExpr.variable(delta)
        self._synced = len(self.counterexamples)
        state.set_objective(self._objective)
        outcome = state.solve()
        if fresh:
            self.statistics.record_solve(
                outcome.pivots, warm=state.last_solve_warm
            )
        return outcome

    def _build_cold_program(self) -> LinearProgram:
        """The textbook formulation rebuilt from scratch (seed behaviour)."""
        program = LinearProgram(Sense.MAXIMIZE)
        objective = LinExpr()
        for j in range(len(self.counterexamples)):
            objective = objective + LinExpr.variable(self._delta_name(j))
        program.objective = objective

        for i in range(len(self.rows)):
            program.declare(self._gamma_name(i))
            program.add_constraint(LinExpr.variable(self._gamma_name(i)) >= 0)
        for j in range(len(self.counterexamples)):
            program.declare(self._delta_name(j))
            program.add_constraint(LinExpr.variable(self._delta_name(j)) >= 0)
            program.add_constraint(LinExpr.variable(self._delta_name(j)) <= 1)
        for j in range(len(self.counterexamples)):
            program.add_constraint(self._generator_row(j) >= 0)
        return program

    def _solve_cold(self) -> LpResult:
        outcome = self._build_cold_program().solve()
        self.statistics.record_solve(outcome.pivots, warm=False)
        return outcome

    def _audit_against_cold(self, warm_outcome: LpResult) -> None:
        """Shadow-solve from scratch and check the warm optimum against it.

        Both formulations describe the same polytope, so the *optimal
        value* must agree exactly (Fraction equality, no tolerance); the
        warm assignment must also be a feasible point of the cold program
        achieving that value.  The measured pivot difference is the saving
        the warm start bought on this instance.
        """
        program = self._build_cold_program()
        cold_outcome = program.solve()
        if cold_outcome.status is not warm_outcome.status:
            raise RuntimeError(
                "warm/cold status mismatch: %s vs %s"
                % (warm_outcome.status, cold_outcome.status)
            )
        if warm_outcome.status is LpStatus.OPTIMAL:
            if cold_outcome.objective != warm_outcome.objective:
                raise RuntimeError(
                    "warm/cold optimum mismatch: %s vs %s"
                    % (warm_outcome.objective, cold_outcome.objective)
                )
            for constraint in program.constraints:
                if not constraint.satisfied_by(warm_outcome.assignment):
                    raise RuntimeError(
                        "warm optimum violates cold constraint %s" % constraint
                    )
        self.statistics.pivots_saved += cold_outcome.pivots - warm_outcome.pivots

    def _ranking_from_gammas(self, gammas: Sequence[Fraction]) -> AffineRankingFunction:
        """``λ_k = Σ_i γ_{k,i} a_i^k`` over the homogenised space.

        The coefficient picked up by the constant-one coordinate is the
        affine offset of the per-location component.
        """
        from repro.core.problem import ONE_COORDINATE

        variables = self.problem.variables
        coefficients: Dict[str, Vector] = {}
        offsets: Dict[str, Fraction] = {}
        for location in self.problem.cutset:
            lam = Vector.zeros(len(variables))
            offset = Fraction(0)
            for gamma, row in zip(gammas, self.rows):
                if gamma == 0 or row.location != location:
                    continue
                lam = lam + Vector(
                    row.normal.coefficient(name) for name in variables
                ) * gamma
                offset += gamma * row.normal.coefficient(ONE_COORDINATE)
            coefficients[location] = lam
            offsets[location] = offset
        return AffineRankingFunction(variables, coefficients, offsets)
