"""Two-phase primal simplex over exact rationals, with warm restarts.

The implementation favours clarity and exactness over raw speed: every
pivot is performed with :class:`fractions.Fraction`, Bland's anti-cycling
rule is used throughout, and infeasibility / unboundedness are reported
with certificates (a feasible point and an improving ray respectively).

The LPs produced by the ranking-function synthesiser are tiny (the whole
point of the paper is that the lazy construction keeps them at a handful of
rows and columns), so a dense tableau is entirely adequate.

Two entry points are provided:

* :func:`solve_lp` — the one-shot solver (build, two-phase, extract);
* :class:`SimplexState` — a *persistent* LP that keeps the tableau and the
  optimal basis alive between solves.  Adding a constraint re-solves with
  dual-simplex pivots from the previous optimal basis, and changing the
  objective re-prices and re-optimises with primal pivots; both are far
  cheaper than a cold two-phase solve.  This is the engine behind the
  incremental ``LP(V, Constraints(I))`` of the counterexample loop, where
  every iteration appends one generator row to an already-solved instance.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.linalg.sparse import SparseRow
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.problem import LpResult, LpStatus, Sense

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Sentinel column fusing the right-hand side into each tableau row (and
#: minus the current objective into the cost row).  It sorts before every
#: real column, and a single fused row operation updates coefficients and
#: rhs together.
_RHS = -1


class _Counters(threading.local):
    """Per-thread totals of tableau set-ups and pivots.

    Thread-local so two provers racing in one process (``nonterm=auto``)
    never fold each other's work into their results.
    """

    def __init__(self) -> None:
        self.setups = 0
        self.pivots = 0


_counters = _Counters()


def lp_counters() -> Tuple[int, int]:
    """This thread's running ``(tableau set-ups, pivots)`` totals.

    Every :func:`solve_lp` call and every cold :class:`SimplexState`
    solve is one set-up; every pivot of any tableau counts.  The analysis
    pipeline takes the difference around a run to fill
    ``LpStatistics.resolved_exact`` / ``row_pivots``.
    """
    return (_counters.setups, _counters.pivots)


def _spread_terms(
    terms: Dict[str, Fraction],
    plus_index: Dict[str, int],
    minus_index: Dict[str, int],
    target: List[Fraction],
) -> None:
    """Add a LinExpr's coefficients into standard-form columns.

    The single place that knows the column convention: every variable has
    a ``+`` column, and free (split) variables additionally have a ``-``
    column carrying the negated coefficient.  Both the cold
    (:class:`_StandardForm`) and warm (:class:`SimplexState`) paths build
    rows and cost vectors through this helper so they cannot diverge.
    """
    for name, value in terms.items():
        target[plus_index[name]] += value
        if name in minus_index:
            target[minus_index[name]] -= value


def _sparse_terms(
    terms: Dict[str, Fraction],
    plus_index: Dict[str, int],
    minus_index: Dict[str, int],
) -> Dict[int, Fraction]:
    """A LinExpr's coefficients as a standard-form column → value mapping.

    The sparse counterpart of :func:`_spread_terms`, for rows that go
    straight into the sparse tableau.
    """
    entries: Dict[int, Fraction] = {}
    for name, value in terms.items():
        column = plus_index[name]
        entries[column] = entries.get(column, _ZERO) + value
        if name in minus_index:
            column = minus_index[name]
            entries[column] = entries.get(column, _ZERO) - value
    return entries


def _column_value(
    name: str,
    plus_index: Dict[str, int],
    minus_index: Dict[str, int],
    values: Sequence[Fraction],
) -> Fraction:
    """Recover an original variable's value from its column(s)."""
    value = values[plus_index[name]]
    if name in minus_index:
        value -= values[minus_index[name]]
    return value


class _StandardForm:
    """The LP rewritten as ``min c·y  s.t.  A y = b, y ≥ 0, b ≥ 0``.

    Free original variables are split into a positive and a negative part;
    variables listed in *nonnegative* are known to satisfy ``x ≥ 0`` and get
    a single column (this keeps the incremental ranking LPs at one column
    per γ/δ instead of two).  Slack variables turn inequalities into
    equations.  The mapping back to the original variables is kept so that
    solutions and rays can be reported in user terms.
    """

    def __init__(
        self,
        objective: LinExpr,
        constraints: Sequence[Constraint],
        variables: Sequence[str],
        nonnegative: FrozenSet[str] = frozenset(),
    ):
        self.original_variables = list(variables)
        # Column layout: for every original variable two columns (x+, x-)
        # — or a single column when it is known nonnegative — then one
        # slack column per inequality row.
        self.plus_index: Dict[str, int] = {}
        self.minus_index: Dict[str, int] = {}
        column = 0
        for name in self.original_variables:
            self.plus_index[name] = column
            column += 1
            if name not in nonnegative:
                self.minus_index[name] = column
                column += 1
        self.num_structural = column

        rows: List[List[Fraction]] = []
        rhs: List[Fraction] = []
        slack_count = 0
        for constraint in constraints:
            if constraint.relation is Relation.LT:
                raise ValueError("strict inequalities are not LP constraints")
            terms = constraint.expr.terms
            for name in terms:
                if name not in self.plus_index:
                    raise ValueError(
                        "constraint mentions undeclared variable %r" % name
                    )
            coefficients = [_ZERO] * self.num_structural
            _spread_terms(terms, self.plus_index, self.minus_index, coefficients)
            bound = -constraint.expr.constant_term
            rows.append(coefficients)
            rhs.append(bound)
            if constraint.relation is Relation.LE:
                slack_count += 1

        self.num_slacks = slack_count
        self.num_columns = self.num_structural + slack_count

        # Second pass: install slack columns and normalise signs.  A row
        # whose slack column keeps coefficient +1 after sign normalisation
        # can use that slack as its initial basic variable, avoiding an
        # artificial column (and the phase-1 pivots to drive it out).
        slack_position = 0
        self.matrix: List[List[Fraction]] = []
        self.rhs: List[Fraction] = []
        self.basis_candidate: List[Optional[int]] = []
        for constraint, row, bound in zip(constraints, rows, rhs):
            full_row = row + [_ZERO] * slack_count
            slack_column = None
            if constraint.relation is Relation.LE:
                slack_column = self.num_structural + slack_position
                full_row[slack_column] = _ONE
                slack_position += 1
            if bound < 0:
                full_row = [-value for value in full_row]
                bound = -bound
                slack_column = None
            self.matrix.append(full_row)
            self.rhs.append(bound)
            self.basis_candidate.append(slack_column)

        # Objective over the standard columns (constant handled separately).
        for name in objective.terms:
            if name not in self.plus_index:
                raise ValueError(
                    "objective mentions undeclared variable %r" % name
                )
        self.cost = [_ZERO] * self.num_columns
        _spread_terms(objective.terms, self.plus_index, self.minus_index, self.cost)
        self.objective_constant = objective.constant_term

    def to_original(self, values: Sequence[Fraction]) -> Dict[str, Fraction]:
        """Map standard-form column values back to the original variables."""
        return {
            name: _column_value(name, self.plus_index, self.minus_index, values)
            for name in self.original_variables
        }


class _Tableau:
    """A simplex tableau over sparse scaled-integer rows.

    Every row is a :class:`~repro.linalg.sparse.SparseRow` with the
    right-hand side fused in at the :data:`_RHS` sentinel column, so one
    fused row operation updates coefficients and rhs together and the
    whole pivot stays in machine integers (one gcd pass per produced
    row instead of one per entry).  The reduced-cost row is maintained
    incrementally across pivots exactly like an ordinary row, with minus
    the current objective living in its fused :data:`_RHS` slot.

    Basic columns keep exact identity structure (value 1 in their own
    row, 0 elsewhere), and all pivot decisions (Bland's rule, ratio
    tests) compare exact values, so the pivot *sequence* — and therefore
    every pivot counter the warm-start machinery reports — is identical
    to the dense-``Fraction`` tableau this replaces.
    """

    def __init__(
        self,
        rows: List[SparseRow],
        num_cols: int,
        cost: SparseRow,
    ):
        self.rows = rows
        self.num_rows = len(rows)
        self.num_cols = num_cols
        self.basis: List[int] = []
        self._cost = cost  # fused: value at _RHS is minus the objective
        self.pivot_count = 0
        #: One-shot gather cache: the ratio test hands its entering-column
        #: sweep to the pivot that immediately follows (rows are unchanged
        #: in between), halving the per-pivot column gathers.
        self._gathered: Optional[Tuple[int, List[int]]] = None

    def install_cost(self, cost: List[Fraction]) -> None:
        """Install a new objective and price it out against the basis."""
        priced = SparseRow.from_pairs(enumerate(cost))
        for row_index, basic_col in enumerate(self.basis):
            if priced.numerator_at(basic_col):
                priced = priced.eliminate(basic_col, self.rows[row_index])
        self._cost = priced

    def extend_cost(self, entries: Dict[int, Fraction]) -> None:
        """Add objective terms on currently-*nonbasic* columns to the cost row.

        For a nonbasic column ``j`` the reduced cost is ``c_j`` minus a
        combination of *basic* costs; changing ``c_j`` alone therefore
        shifts its reduced cost by exactly the new term while every other
        reduced cost — and the objective value, since nonbasic columns
        sit at zero — stays put.  This is the cheap per-batch repricing
        the warm path uses when an iteration only appended fresh columns
        (the δ of new counterexamples); callers must verify the columns
        are nonbasic first.
        """
        self._cost = self._cost + SparseRow.from_dict(entries)

    # -- incremental growth ----------------------------------------------------

    def append_column(self, cost: Fraction = _ZERO) -> int:
        """Append an all-zero column (a variable absent from every row).

        Sparse rows store nothing for absent columns, so only the column
        count moves; the new column's reduced cost under the current
        basis is simply its objective coefficient.
        """
        self.num_cols += 1
        column = self.num_cols - 1
        if cost:
            self._cost = self._cost + SparseRow.from_pairs([(column, cost)])
        return column

    def append_row(self, row: SparseRow, basic_column: int) -> None:
        """Append a row (rhs fused) whose *basic_column* entry is 1."""
        self.rows.append(row)
        self.basis.append(basic_column)
        self.num_rows += 1
        self._gathered = None  # the cached sweep no longer covers every row

    def eliminate_against_basis(self, row: SparseRow) -> SparseRow:
        """Express a fresh fused row in terms of the current basis.

        Each basic column has identity structure (1 in its own row, 0 in
        every other row and in every other basic column), so one pass over
        the basis suffices.
        """
        for row_index, basic_col in enumerate(self.basis):
            if row.numerator_at(basic_col):
                row = row.eliminate(basic_col, self.rows[row_index])
        return row

    # -- pivoting ------------------------------------------------------------

    def _column(self, col: int) -> List[int]:
        """Numerators of column *col* across every row, one batched sweep."""
        return [current.numerator_at(col) for current in self.rows]

    def pivot(self, row: int, col: int) -> None:
        """Pivot so that column *col* becomes basic in row *row*.

        The pivot column is gathered once across the tableau, then every
        row with a nonzero entry is eliminated through one fused merge
        (the gathered value feeds the merge directly, so no row is asked
        for the same entry twice).
        """
        cached = self._gathered
        self._gathered = None
        # The cached sweep predates the pivot row's normalisation, but the
        # pivot row is skipped below, so only the unchanged rows are read.
        column = cached[1] if cached and cached[0] == col else self._column(col)
        pivot_row = self.rows[row].pivot_normalized(col)
        self.rows[row] = pivot_row
        p_c = pivot_row.numerator_at(col)
        for other in range(self.num_rows):
            s_c = column[other]
            if other != row and s_c:
                current = self.rows[other]
                self.rows[other] = current._merge(
                    pivot_row, p_c, -s_c, current.denominator * p_c
                )
        s_c = self._cost.numerator_at(col)
        if s_c:
            self._cost = self._cost._merge(
                pivot_row, p_c, -s_c, self._cost.denominator * p_c
            )
        self.basis[row] = col
        self.pivot_count += 1
        _counters.pivots += 1

    def reduced_cost_at(self, col: int) -> Fraction:
        """Reduced cost of one column for the current basis."""
        return self._cost.get(col)

    def objective_value(self) -> Fraction:
        return -self._cost.get(_RHS)

    def column_values(self) -> List[Fraction]:
        values = [_ZERO] * self.num_cols
        for row, col in enumerate(self.basis):
            values[col] = self.rows[row].get(_RHS)
        return values

    # -- the simplex loops -----------------------------------------------------

    def optimize(self, allowed_columns: Optional[set] = None) -> Tuple[str, Optional[int]]:
        """Run the primal simplex to optimality.

        Returns ``("optimal", None)`` or ``("unbounded", entering_column)``.
        Columns not in *allowed_columns* (when given) are never entered —
        this is how phase 2 keeps the artificial columns out of the basis.
        """
        while True:
            # Bland: smallest column index with a negative reduced cost.
            # The sparse cost row iterates in index order and absent
            # entries are zero, so the first negative stored numerator
            # (the denominator is positive) is the entering column.
            entering = None
            for col, numerator in self._cost.iter_scaled():
                if col == _RHS or numerator >= 0:
                    continue
                if allowed_columns is not None and col not in allowed_columns:
                    continue
                entering = col
                break
            if entering is None:
                return ("optimal", None)
            leaving = self._ratio_test(entering)
            if leaving is None:
                return ("unbounded", entering)
            self.pivot(leaving, entering)

    def _ratio_test(self, entering: int) -> Optional[int]:
        """Bland ratio test: the leaving row for *entering*, or ``None``.

        One batched sweep gathers every row's entering-column
        coefficient, then only the rows with a positive coefficient
        survive into the exact cross-multiplied comparison.  Within one
        row, rhs and coefficient share the row denominator, so the ratio
        is the numerator quotient and cross multiplication compares rows
        exactly.
        """
        rows = self.rows
        column = self._column(entering)
        self._gathered = (entering, column)
        leaving = None
        best_rhs = best_coefficient = 0
        for row, coefficient in enumerate(column):
            if coefficient <= 0:
                continue
            # Lazy rhs read — only rows surviving the sign test pay it.
            rhs = rows[row].numerator_at(_RHS)
            if leaving is None:
                take = True
            else:
                lhs = rhs * best_coefficient
                rhs_cross = best_rhs * coefficient
                take = lhs < rhs_cross or (
                    lhs == rhs_cross
                    and self.basis[row] < self.basis[leaving]
                )
            if take:
                leaving = row
                best_rhs = rhs
                best_coefficient = coefficient
        return leaving

    def dual_optimize(self, allowed_columns: Optional[set] = None) -> str:
        """Run the dual simplex until the basis is primal feasible.

        Requires the current basis to be *dual* feasible (all reduced costs
        of allowed columns nonnegative) — which is exactly the state left
        behind by a previous optimal solve after new rows are appended.
        Returns ``"optimal"`` or ``"infeasible"`` (dual unbounded).  Bland's
        dual rule (smallest basic index leaves, smallest-index minimal
        ratio enters) rules out cycling.
        """
        while True:
            # Batched leaving-row sweep: one pass gathers every row's
            # fused-rhs sign, then Bland's dual rule picks the smallest
            # basic index among the negative ones.
            basis = self.basis
            negative = [
                row
                for row, rhs in enumerate(self._column(_RHS))
                if rhs < 0
            ]
            if not negative:
                return "optimal"
            leaving = min(negative, key=basis.__getitem__)
            # The entering ratio is reduced[col] / (-coefficient); the cost
            # and pivot row denominators are constant across candidates, so
            # comparing numerator cross-products picks the same column.
            entering = None
            best_cost = best_coefficient = 0
            for col, coefficient in self.rows[leaving].iter_scaled():
                if col == _RHS or coefficient >= 0:
                    continue
                if allowed_columns is not None and col not in allowed_columns:
                    continue
                cost = self._cost.numerator_at(col)
                if entering is None or (
                    cost * -best_coefficient < best_cost * -coefficient
                ):
                    entering = col
                    best_cost = cost
                    best_coefficient = coefficient
            if entering is None:
                return "infeasible"
            self.pivot(leaving, entering)

    def ray_direction(self, entering: int) -> List[Fraction]:
        """The improving ray associated with an unbounded entering column."""
        direction = [_ZERO] * self.num_cols
        direction[entering] = _ONE
        for row, basic_col in enumerate(self.basis):
            direction[basic_col] = -self.rows[row].get(entering)
        return direction


def _two_phase(standard: _StandardForm) -> Tuple[bool, _Tableau, int]:
    """Phase 1: find a basic feasible solution for *standard*.

    Returns ``(feasible, tableau, artificial_start)``; on success the
    tableau's basis is primal feasible and every artificial column is
    either out of the basis or stuck at zero in a redundant row.
    """
    num_rows = len(standard.matrix)
    num_cols = standard.num_columns

    # Rows whose slack can serve as the initial basic variable need no
    # artificial column; only the remaining rows get one.
    artificial_start = num_cols
    needy_rows = [
        row_index
        for row_index in range(num_rows)
        if standard.basis_candidate[row_index] is None
    ]
    artificial_of_row = {
        row_index: artificial_start + position
        for position, row_index in enumerate(needy_rows)
    }
    rows: List[SparseRow] = []
    for row_index, row in enumerate(standard.matrix):
        pairs = [(_RHS, standard.rhs[row_index])]
        pairs.extend(enumerate(row))
        if row_index in artificial_of_row:
            pairs.append((artificial_of_row[row_index], _ONE))
        rows.append(SparseRow.from_pairs(pairs))
    phase1_cost = [
        (artificial_start + position, _ONE)
        for position in range(len(needy_rows))
    ]
    tableau = _Tableau(
        rows, num_cols + len(needy_rows), SparseRow.from_pairs(phase1_cost)
    )
    tableau.basis = [
        artificial_of_row.get(row_index, standard.basis_candidate[row_index])
        for row_index in range(num_rows)
    ]
    if needy_rows:
        tableau.install_cost(
            [_ZERO] * num_cols + [_ONE] * len(needy_rows)
        )
        status, _ = tableau.optimize()
        assert status == "optimal", "phase 1 is always bounded below by zero"
        if tableau.objective_value() > 0:
            return (False, tableau, artificial_start)

    # Drive any leftover artificial variables out of the basis.
    for row in range(num_rows):
        if tableau.basis[row] >= artificial_start:
            replacement = None
            for col, _ in tableau.rows[row].iter_scaled():
                if 0 <= col < num_cols:
                    replacement = col
                    break
            if replacement is not None:
                tableau.pivot(row, replacement)
            # Otherwise the row is redundant (all-zero over real columns);
            # the artificial stays basic at value zero, which is harmless
            # as long as it can never re-enter with a non-zero value.

    return (True, tableau, artificial_start)


def solve_lp(
    objective: LinExpr,
    constraints: Sequence[Constraint],
    sense: Sense = Sense.MINIMIZE,
    variables: Optional[Sequence[str]] = None,
    nonnegative: FrozenSet[str] = frozenset(),
) -> LpResult:
    """Solve ``optimise objective subject to constraints`` exactly.

    ``variables`` fixes the set (and order) of variables appearing in the
    result; when omitted it is inferred from the constraints and objective.
    Variables in ``nonnegative`` are treated as implicitly ``≥ 0`` (single
    standard-form column instead of a split pair).
    """
    if variables is None:
        names = set(objective.variables())
        for constraint in constraints:
            names |= set(constraint.variables())
        variables = sorted(names)

    minimize_objective = (
        objective if sense is Sense.MINIMIZE else -objective
    )
    standard = _StandardForm(
        minimize_objective, constraints, variables, nonnegative
    )

    num_cols = standard.num_columns
    _counters.setups += 1
    feasible, tableau, artificial_start = _two_phase(standard)
    if not feasible:
        return LpResult(status=LpStatus.INFEASIBLE, pivots=tableau.pivot_count)

    # ---- Phase 2: optimise the real objective -----------------------------
    num_artificials = tableau.num_cols - num_cols
    tableau.install_cost(list(standard.cost) + [_ZERO] * num_artificials)
    allowed = set(range(num_cols))
    status, entering = tableau.optimize(allowed_columns=allowed)

    values = tableau.column_values()[:num_cols]
    assignment = standard.to_original(values)

    if status == "unbounded":
        direction = tableau.ray_direction(entering)[:num_cols]
        ray = standard.to_original(direction)
        return LpResult(
            status=LpStatus.UNBOUNDED,
            assignment=assignment,
            ray=ray,
            pivots=tableau.pivot_count,
        )

    objective_value = tableau.objective_value() + standard.objective_constant
    if sense is Sense.MAXIMIZE:
        objective_value = -objective_value
    return LpResult(
        status=LpStatus.OPTIMAL,
        assignment=assignment,
        objective=objective_value,
        pivots=tableau.pivot_count,
    )


class SimplexState:
    """A persistent LP whose optimal basis is reused across solves.

    The supported mutations between solves are exactly the ones the lazy
    synthesis loop needs:

    * :meth:`declare` a new variable — new variables may only appear in
      constraints added afterwards, which is how the δ of a fresh
      counterexample behaves (their columns are all-zero in the solved
      rows, so the basis stays valid);
    * :meth:`add_constraint` — appended as slack-form rows; after a solved
      instance this triggers dual-simplex pivots from the previous optimal
      basis instead of a cold two-phase solve;
    * :meth:`set_objective` — re-priced against the current basis and
      re-optimised with primal pivots.

    The first :meth:`solve` (and any solve after an UNBOUNDED outcome,
    where no optimal basis exists to restart from) is a cold two-phase
    solve; every other solve is warm.  ``cold_solves`` / ``warm_solves`` /
    ``total_pivots`` / ``last_solve_pivots`` expose the counters the
    evaluation harness aggregates into
    :class:`~repro.core.lp_instance.LpStatistics`.

    Appending a *batch* of constraints between solves costs one
    dual-simplex basis-repair pass for the whole batch, not one per row:
    every pending row is installed first, and a single
    :meth:`_Tableau.dual_optimize` run restores primal feasibility for
    all of them (``dual_repair_passes`` / ``last_repair_passes`` count
    the passes).  The ranking LP appends such a batch on every
    counterexample: its ``δ ≤ 1`` bound and its generator row, twice that
    for a vertex that comes with a ray.  When the
    objective change since the last solve only *added* terms on columns
    that are still nonbasic — the shape of every counterexample
    iteration, whose fresh δ columns carry the new objective terms — the
    repricing is a constant-size cost-row update instead of a full
    re-elimination against the basis (``incremental_repricings``).
    """

    def __init__(self, sense: Sense = Sense.MINIMIZE):
        self.sense = sense
        self._objective = LinExpr()
        self._declared: Dict[str, bool] = {}  # name -> nonnegative, in order
        self._constraints: List[Constraint] = []
        self._pending_variables: List[str] = []
        self._pending_constraints: List[Constraint] = []
        self._tableau: Optional[_Tableau] = None
        self._plus: Dict[str, int] = {}
        self._minus: Dict[str, int] = {}
        self._allowed: Set[int] = set()
        self._priced_objective: Optional[LinExpr] = None
        self._warm_ready = False
        self._infeasible = False
        self._last_result: Optional[LpResult] = None
        self.cold_solves = 0
        self.warm_solves = 0
        self.total_pivots = 0
        self.last_solve_pivots = 0
        self.last_solve_warm = False
        self.dual_repair_passes = 0
        self.last_repair_passes = 0
        self.incremental_repricings = 0

    # -- construction ----------------------------------------------------------

    def declare(self, *names: str, nonnegative: bool = False) -> None:
        """Declare variables (optionally known nonnegative).

        Re-declaring with the same bound is a no-op; changing the bound
        in either direction raises (tightening would invalidate solved
        rows, loosening would silently ignore the caller's request).
        """
        for name in names:
            if name in self._declared:
                if nonnegative != self._declared[name]:
                    raise ValueError(
                        "variable %r is already declared %s and cannot be "
                        "re-declared %s"
                        % (
                            name,
                            "nonnegative" if self._declared[name] else "free",
                            "nonnegative" if nonnegative else "free",
                        )
                    )
                continue
            self._declared[name] = nonnegative
            self._pending_variables.append(name)
            self._last_result = None

    def _auto_declare(self, names) -> None:
        for name in sorted(names):
            if name not in self._declared:
                self.declare(name)

    def add_constraint(self, constraint: Constraint) -> None:
        """Queue a constraint; it joins the tableau at the next solve."""
        if constraint.relation is Relation.LT:
            raise ValueError("strict inequalities are not LP constraints")
        self._auto_declare(constraint.variables())
        self._pending_constraints.append(constraint)
        self._last_result = None

    def add_constraints(self, constraints: Sequence[Constraint]) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    def set_objective(self, objective: LinExpr) -> None:
        self._auto_declare(objective.variables())
        if objective != self._objective:
            self._objective = objective
            self._last_result = None

    # -- solving ---------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self._constraints) + len(self._pending_constraints)

    def _minimized_objective(self) -> LinExpr:
        return (
            self._objective
            if self.sense is Sense.MINIMIZE
            else -self._objective
        )

    def _cost_vector(self, length: int) -> List[Fraction]:
        cost = [_ZERO] * length
        _spread_terms(
            self._minimized_objective().terms, self._plus, self._minus, cost
        )
        return cost

    def solve(self) -> LpResult:
        """Solve the current instance, warm-starting whenever possible."""
        if self._infeasible:
            # Constraints only ever accumulate, so infeasibility is final.
            return LpResult(status=LpStatus.INFEASIBLE)
        if self._last_result is not None:
            return self._last_result
        if self._tableau is None or not self._warm_ready:
            result = self._solve_cold()
        else:
            result = self._solve_warm()
        self._last_result = result
        return result

    def _commit_pending(self) -> None:
        self._constraints.extend(self._pending_constraints)
        self._pending_constraints = []
        self._pending_variables = []

    def _solve_cold(self) -> LpResult:
        self._commit_pending()
        variables = list(self._declared)
        nonnegative = frozenset(
            name for name, flag in self._declared.items() if flag
        )
        standard = _StandardForm(
            self._minimized_objective(),
            self._constraints,
            variables,
            nonnegative,
        )
        num_cols = standard.num_columns
        _counters.setups += 1
        feasible, tableau, _ = _two_phase(standard)
        if not feasible:
            self._record(tableau.pivot_count, warm=False)
            self._infeasible = True
            return LpResult(
                status=LpStatus.INFEASIBLE, pivots=tableau.pivot_count
            )
        num_artificials = tableau.num_cols - num_cols
        tableau.install_cost(list(standard.cost) + [_ZERO] * num_artificials)
        allowed = set(range(num_cols))
        status, entering = tableau.optimize(allowed_columns=allowed)

        self._tableau = tableau
        self._plus = dict(standard.plus_index)
        self._minus = dict(standard.minus_index)
        self._allowed = allowed
        self._priced_objective = self._objective
        self._warm_ready = status == "optimal"
        self._record(tableau.pivot_count, warm=False)
        return self._extract(status, entering, tableau.pivot_count)

    def _solve_warm(self) -> LpResult:
        tableau = self._tableau
        assert tableau is not None
        start_pivots = tableau.pivot_count

        # 1. New variables become fresh columns.  They are absent from every
        # committed row (they were declared afterwards), so the columns are
        # all-zero and the basis stays optimal for the priced objective.
        for name in self._pending_variables:
            self._plus[name] = tableau.append_column()
            self._allowed.add(self._plus[name])
            if not self._declared[name]:
                self._minus[name] = tableau.append_column()
                self._allowed.add(self._minus[name])

        # 2. New constraints become slack-form rows (an equality contributes
        # one ≤ row per direction), eliminated against the current basis;
        # a negative right-hand side is precisely what the dual simplex
        # repairs next.  The whole batch is installed before any repair
        # pivot runs, so k rows appended between solves pay one repair
        # pass, not k.
        for constraint in self._pending_constraints:
            expressions = [constraint.expr]
            if constraint.relation is Relation.EQ:
                expressions.append(-constraint.expr)
            for expr in expressions:
                slack = tableau.append_column()
                self._allowed.add(slack)
                entries = _sparse_terms(expr.terms, self._plus, self._minus)
                entries[slack] = _ONE
                entries[_RHS] = -expr.constant_term
                row = tableau.eliminate_against_basis(
                    SparseRow.from_dict(entries)
                )
                tableau.append_row(row, slack)
        self._commit_pending()

        # 3. Restore primal feasibility under the previously-priced
        # objective (for which the basis is dual feasible): one multi-row
        # dual-simplex repair pass for the whole appended batch.
        self.dual_repair_passes += 1
        self.last_repair_passes = 1
        status = tableau.dual_optimize(self._allowed)
        if status == "infeasible":
            self._record(tableau.pivot_count - start_pivots, warm=True)
            self._infeasible = True
            return LpResult(
                status=LpStatus.INFEASIBLE,
                pivots=tableau.pivot_count - start_pivots,
            )

        # 4. Price the current objective and re-optimise with primal
        # pivots.  Appending rows leaves the maintained reduced-cost row
        # valid (the new slack is basic with cost zero, so no existing
        # reduced cost moves), so repricing is only needed when the
        # objective itself changed since it was last priced.
        if self._objective != self._priced_objective:
            self._reprice(tableau)
        status, entering = tableau.optimize(allowed_columns=self._allowed)
        self._priced_objective = self._objective
        self._warm_ready = status == "optimal"
        pivots = tableau.pivot_count - start_pivots
        self._record(pivots, warm=True)
        return self._extract(status, entering, pivots)

    def _reprice(self, tableau: _Tableau) -> None:
        """Price the current objective against the tableau's basis.

        When the change since the last pricing only *adds* terms on
        columns that are currently nonbasic — the batched-refinement
        shape, where each iteration's objective gains one fresh δ per
        appended counterexample — the cost row is patched in place
        (:meth:`_Tableau.extend_cost`) instead of being rebuilt and
        re-eliminated against every basic column.
        """
        previous = (
            self._priced_objective
            if self.sense is Sense.MINIMIZE
            else -self._priced_objective
        )
        delta = self._minimized_objective() - previous
        if not delta.terms:
            # Constant-only change: the constant lives outside the tableau
            # (it is re-added at extraction), so the priced row is intact.
            self.incremental_repricings += 1
            return
        entries = _sparse_terms(delta.terms, self._plus, self._minus)
        basic = set(tableau.basis)
        if all(column not in basic for column in entries):
            tableau.extend_cost(entries)
            self.incremental_repricings += 1
            return
        tableau.install_cost(self._cost_vector(tableau.num_cols))

    def _record(self, pivots: int, warm: bool) -> None:
        self.total_pivots += pivots
        self.last_solve_pivots = pivots
        self.last_solve_warm = warm
        if warm:
            self.warm_solves += 1
        else:
            self.cold_solves += 1

    def _to_original(self, values: Sequence[Fraction]) -> Dict[str, Fraction]:
        result: Dict[str, Fraction] = {}
        for name in self._declared:
            if name not in self._plus:
                result[name] = _ZERO  # declared after the last solve
                continue
            result[name] = _column_value(name, self._plus, self._minus, values)
        return result

    def _extract(
        self, status: str, entering: Optional[int], pivots: int
    ) -> LpResult:
        tableau = self._tableau
        assert tableau is not None
        assignment = self._to_original(tableau.column_values())
        if status == "unbounded":
            ray = self._to_original(tableau.ray_direction(entering))
            return LpResult(
                status=LpStatus.UNBOUNDED,
                assignment=assignment,
                ray=ray,
                pivots=pivots,
            )
        objective_value = (
            tableau.objective_value()
            + self._minimized_objective().constant_term
        )
        if self.sense is Sense.MAXIMIZE:
            objective_value = -objective_value
        return LpResult(
            status=LpStatus.OPTIMAL,
            assignment=assignment,
            objective=objective_value,
            pivots=pivots,
        )


def check_feasibility(
    constraints: Sequence[Constraint],
    variables: Optional[Sequence[str]] = None,
) -> LpResult:
    """Feasibility check: solve with the zero objective."""
    return solve_lp(LinExpr(), constraints, Sense.MINIMIZE, variables)
