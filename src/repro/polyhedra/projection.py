"""Fourier–Motzkin elimination (projection of polyhedra).

Used by the polyhedral abstract domain (assignments and havoc operations
project the old value of the assigned variable away) and by the eager
baselines when they need the transition polyhedron in ``(x, x')`` space
with the auxiliary existential variables removed.

The paper points out (§2.2) that eliminating a block of existential
quantifiers can blow up exponentially; the lazy algorithm never does it,
but the substrate still needs a correct *and affordable* implementation.
Three layers keep the row count down, cheapest first:

1. **Scaled-integer rows.**  Constraints are combined as GCD-normalised
   :class:`~repro.linalg.sparse.SparseRow` integer vectors (the constant
   at a sentinel index), so each FM combination is one fused
   integer multiply-add instead of a chain of ``Fraction`` allocations —
   and identical rows collide structurally, deduplicating for free.
2. **Syntactic pruning.**  After every elimination step, duplicate rows
   and syntactically dominated rows (same homogeneous direction, weaker
   bound) are dropped, and rows failing Kohler/Imbert's acceleration
   bound — a combination touching more than ``k + 1`` original
   inequalities after ``k`` eliminations is always redundant — never
   survive.  No LP is solved for any of this.
3. **LP-based pruning.**  Exact entailment checks via
   :func:`remove_redundant` run once at the end of a projection (and
   mid-flight only if the system still outgrows a safety threshold),
   instead of once per constraint per eliminated variable as the dense
   implementation did.  :data:`statistics` counts how many LP solves the
   cheap layers saved.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.linalg.sparse import SparseRow
from repro.linexpr.constraint import Constraint, Relation
from repro.linexpr.expr import LinExpr
from repro.lp.problem import Sense
from repro.lp.simplex import solve_lp

#: Sentinel row index carrying the affine constant of a constraint.
_CONST = -1

#: After an elimination step the system may legitimately grow; only when
#: it exceeds this multiple of its pre-step size does the expensive
#: LP-based pruning run mid-flight instead of once at the end.
_LP_PRUNE_GROWTH = 4


class ProjectionStatistics(threading.local):
    """Per-thread counters for the work (and the avoided work) of FM elimination.

    ``lp_calls`` is the number of exact LP entailment checks actually
    solved; ``lp_calls_saved`` the number the cheap layers made
    unnecessary — only *dominated* (not duplicate, not trivially-true)
    and Kohler-pruned rows count, because those are exactly the rows the
    per-step LP pruning of the previous implementation would have
    entailment-checked; ``rows_eliminated`` the number of rows dropped
    by any cheap layer.

    Thread-local: every thread folds into its own attributes, so
    concurrent analyses (e.g. the ``nonterm=auto`` race) can never
    corrupt each other's counters or mis-attribute saved LP calls.
    """

    def __init__(self) -> None:
        self.variables_eliminated = 0
        self.combinations = 0
        self.lp_calls = 0
        self.lp_calls_saved = 0
        self.rows_pruned_syntactic = 0
        self.rows_pruned_kohler = 0

    @property
    def rows_eliminated(self) -> int:
        return self.rows_pruned_syntactic + self.rows_pruned_kohler

    def snapshot(self) -> Tuple[int, ...]:
        return (
            self.variables_eliminated,
            self.combinations,
            self.lp_calls,
            self.lp_calls_saved,
            self.rows_pruned_syntactic,
            self.rows_pruned_kohler,
        )

    def to_dict(self) -> dict:
        return {
            "variables_eliminated": self.variables_eliminated,
            "combinations": self.combinations,
            "lp_calls": self.lp_calls,
            "lp_calls_saved": self.lp_calls_saved,
            "rows_pruned_syntactic": self.rows_pruned_syntactic,
            "rows_pruned_kohler": self.rows_pruned_kohler,
            "rows_eliminated": self.rows_eliminated,
        }


#: The per-thread counters; :func:`repro.api.pipeline` snapshots them
#: around a run to attribute saved LP calls to that run's ``LpStatistics``.
statistics = ProjectionStatistics()


def lp_calls_saved_since(snapshot: Tuple[int, ...]) -> int:
    """LP calls saved since *snapshot* (from :meth:`ProjectionStatistics.snapshot`).

    Both the snapshot and this read resolve against the calling thread's
    counters, so the difference is meaningful only when taken on the
    thread that performed the projections.
    """
    return statistics.lp_calls_saved - snapshot[3]


# ---------------------------------------------------------------------------
# Constraint <-> integer row conversion
# ---------------------------------------------------------------------------


def _index_rows(
    constraints: Sequence[Constraint],
    index_of: Optional[Dict[str, int]] = None,
) -> Tuple[List[str], List[Tuple[SparseRow, Relation]]]:
    """Map a constraint system onto primitive-integer sparse rows."""
    if index_of is None:
        names = sorted(
            {name for c in constraints for name in c.expr.terms}
        )
        index_of = {name: i for i, name in enumerate(names)}
    else:
        names = sorted(index_of, key=index_of.get)
    rows: List[Tuple[SparseRow, Relation]] = []
    for constraint in constraints:
        pairs: List[Tuple[int, Fraction]] = [
            (index_of[name], value)
            for name, value in constraint.expr.terms.items()
        ]
        constant = constraint.expr.constant_term
        if constant:
            pairs.append((_CONST, constant))
        row = SparseRow.from_pairs(pairs).normalized_direction()
        rows.append((row, constraint.relation))
    return names, rows


def _row_constraint(
    row: SparseRow, relation: Relation, names: Sequence[str]
) -> Constraint:
    terms: Dict[str, Fraction] = {}
    constant = Fraction(0)
    for index, value in row.items():
        if index == _CONST:
            constant = value
        else:
            terms[names[index]] = value
    return Constraint(LinExpr(terms, constant), relation)


def _is_trivially_true(row: SparseRow, relation: Relation) -> bool:
    if any(index != _CONST for index in row.support()):
        return False
    constant = row.numerator_at(_CONST)
    if relation is Relation.LE:
        return constant <= 0
    if relation is Relation.LT:
        return constant < 0
    return constant == 0


# ---------------------------------------------------------------------------
# the cheap pruning layers
# ---------------------------------------------------------------------------


_HistRow = Tuple[SparseRow, Relation, FrozenSet[int]]


def _prune_syntactic(rows: List[_HistRow]) -> List[_HistRow]:
    """Drop duplicates and syntactically dominated inequalities.

    Two inequality rows with the same homogeneous direction compare by
    bound: for ``a·x + c ⋈ 0`` the row with the larger constant (then the
    strict relation on ties) implies the other.  Rows are GCD-normalised
    with the *constant included*, so the dominance key re-normalises by
    the homogeneous gcd to make ``x ≤ 1`` and ``x ≤ 5`` collide.
    Equalities and constant rows pass through (deduplicated only).
    """
    best: Dict[Tuple, Tuple[Fraction, bool, int]] = {}
    passthrough: List[_HistRow] = []
    passthrough_seen: set = set()
    order: List[Tuple] = []
    keyed: Dict[Tuple, _HistRow] = {}
    for entry in rows:
        row, relation, history = entry
        if relation is Relation.EQ or all(
            index == _CONST for index in row.support()
        ):
            # Trivially-true and duplicate rows are dropped but not
            # counted as saved LP calls: the LP-based pruning never
            # entailment-checked those either.
            if _is_trivially_true(row, relation):
                statistics.rows_pruned_syntactic += 1
                continue
            identity = (row, relation)
            if identity in passthrough_seen:
                statistics.rows_pruned_syntactic += 1
                continue
            passthrough_seen.add(identity)
            passthrough.append(entry)
            continue
        divisor = 0
        for index, numerator in row.iter_scaled():
            if index != _CONST:
                divisor = gcd(divisor, numerator)
        key = tuple(
            (index, numerator // divisor)
            for index, numerator in row.iter_scaled()
            if index != _CONST
        )
        constant = Fraction(row.numerator_at(_CONST), divisor)
        strict = relation is Relation.LT
        current = best.get(key)
        if current is None:
            best[key] = (constant, strict, len(history))
            order.append(key)
            keyed[key] = entry
            continue
        held_constant, held_strict, held_history = current
        # Larger constant = tighter bound for ``expr ⋈ 0``; on exact
        # ties the strict row dominates, and among identical rows the
        # one combining fewer originals prunes better later (Kohler).
        tighter = constant > held_constant or (
            constant == held_constant
            and (
                (strict and not held_strict)
                or (strict == held_strict and len(history) < held_history)
            )
        )
        statistics.rows_pruned_syntactic += 1
        if constant != held_constant or strict != held_strict:
            # A genuinely dominated (not duplicate) row: the previous
            # implementation would have paid an LP entailment check to
            # discover it.
            statistics.lp_calls_saved += 1
        if tighter:
            best[key] = (constant, strict, len(history))
            keyed[key] = entry
    return passthrough + [keyed[key] for key in order]


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _combine_pair(
    upper: _HistRow, lower: _HistRow, index: int
) -> Tuple[SparseRow, Relation, FrozenSet[int]]:
    """The nonnegative FM combination cancelling *index*."""
    upper_row, upper_relation, upper_history = upper
    lower_row, lower_relation, lower_history = lower
    upper_coefficient = upper_row.numerator_at(index)   # > 0
    lower_coefficient = lower_row.numerator_at(index)   # < 0
    combined = upper_row.combine_int(
        -lower_coefficient, lower_row, upper_coefficient
    ).normalized_direction()
    relation = (
        Relation.LT
        if upper_relation is Relation.LT or lower_relation is Relation.LT
        else Relation.LE
    )
    statistics.combinations += 1
    return combined, relation, upper_history | lower_history


def _eliminate_index(
    rows: List[_HistRow], index: int, kohler_bound: Optional[int]
) -> List[_HistRow]:
    """One FM step over history-carrying rows (equalities via substitution)."""
    pivot = None
    for entry in rows:
        row, relation, _ = entry
        if relation is Relation.EQ and row.numerator_at(index):
            pivot = entry
            break
    if pivot is not None:
        pivot_row = pivot[0]
        result: List[_HistRow] = []
        for entry in rows:
            if entry is pivot:
                continue
            row, relation, history = entry
            if row.numerator_at(index):
                row = row.eliminate(index, pivot_row).normalized_direction()
                history = history | pivot[2]
            if _is_trivially_true(row, relation):
                continue
            result.append((row, relation, history))
        return result

    uppers: List[_HistRow] = []
    lowers: List[_HistRow] = []
    result = []
    for entry in rows:
        coefficient = entry[0].numerator_at(index)
        if coefficient > 0:
            uppers.append(entry)
        elif coefficient < 0:
            lowers.append(entry)
        else:
            result.append(entry)
    for upper in uppers:
        for lower in lowers:
            combined, relation, history = _combine_pair(upper, lower, index)
            if _is_trivially_true(combined, relation):
                continue
            if kohler_bound is not None and len(history) > kohler_bound:
                statistics.rows_pruned_kohler += 1
                statistics.lp_calls_saved += 1
                continue
            result.append((combined, relation, history))
    return result


def eliminate_variable(
    constraints: Sequence[Constraint], variable: str
) -> List[Constraint]:
    """Project *variable* out of a conjunction of non-strict constraints."""
    names, indexed = _index_rows(constraints)
    if variable not in names:
        return list(constraints)
    index = names.index(variable)
    rows: List[_HistRow] = [
        (row, relation, frozenset([position]))
        for position, (row, relation) in enumerate(indexed)
    ]
    # A single step eliminates one variable: Kohler's bound is k + 1 = 2.
    survivors = _prune_syntactic(_eliminate_index(rows, index, 2))
    statistics.variables_eliminated += 1
    return [
        _row_constraint(row, relation, names)
        for row, relation, _ in survivors
    ]


def fourier_motzkin(
    constraints: Sequence[Constraint],
    eliminate: Iterable[str],
    simplify: bool = True,
) -> List[Constraint]:
    """Eliminate every variable in *eliminate* from the conjunction.

    With *simplify* the cheap syntactic/Kohler layers run after every
    step and the exact LP-based :func:`remove_redundant` once at the end
    (or mid-flight when a step still left the system more than
    :data:`_LP_PRUNE_GROWTH` times its input size).
    """
    names, indexed = _index_rows(constraints)
    index_of = {name: i for i, name in enumerate(names)}
    targets = [index_of[v] for v in eliminate if v in index_of]
    rows: List[_HistRow] = [
        (row, relation, frozenset([position]))
        for position, (row, relation) in enumerate(indexed)
    ]
    baseline = max(len(rows), 4)
    eliminated = 0
    for index in targets:
        eliminated += 1
        # Kohler/Imbert: after k eliminations any combination of more
        # than k + 1 original inequalities is redundant.  The naive
        # (simplify=False) path skips it along with every other pruning
        # layer, which is what the equivalence property tests exercise.
        rows = _eliminate_index(
            rows, index, eliminated + 1 if simplify else None
        )
        statistics.variables_eliminated += 1
        if simplify:
            rows = _prune_syntactic(rows)
            if len(rows) > _LP_PRUNE_GROWTH * baseline:
                pruned = remove_redundant(
                    [
                        _row_constraint(row, relation, names)
                        for row, relation, _ in rows
                    ]
                )
                # Histories no longer track original rows after an LP
                # prune; restart Kohler counting from the survivors
                # (the variable indexing stays stable).
                _, indexed = _index_rows(pruned, index_of)
                rows = [
                    (row, relation, frozenset([position]))
                    for position, (row, relation) in enumerate(indexed)
                ]
                eliminated = 0
    result = [
        _row_constraint(row, relation, names) for row, relation, _ in rows
    ]
    if simplify:
        result = remove_redundant(result)
    return result


def project_constraints(
    constraints: Sequence[Constraint],
    keep: Sequence[str],
    simplify: bool = True,
) -> List[Constraint]:
    """Project the conjunction onto the variables in *keep*."""
    keep_set = set(keep)
    mentioned = set()
    for constraint in constraints:
        mentioned |= constraint.variables()
    eliminate = sorted(mentioned - keep_set)
    return fourier_motzkin(constraints, eliminate, simplify)


def remove_redundant(constraints: Sequence[Constraint]) -> List[Constraint]:
    """Drop constraints implied by the others (LP-based, exact).

    Duplicates and syntactically dominated constraints are removed
    first; each *dominated* drop is one LP solve saved (duplicates were
    always caught without an LP), counted in :data:`statistics`.  Each
    remaining inequality is then tested for entailment by maximising
    its left-hand side subject to the others.
    """
    unique: List[Constraint] = []
    seen = set()
    for constraint in constraints:
        normal = constraint.normalized()
        if normal.is_trivially_true():
            continue
        key = (normal.expr, normal.relation)
        if key in seen:
            statistics.rows_pruned_syntactic += 1
            continue
        seen.add(key)
        unique.append(normal)

    # Syntactic dominance: same homogeneous direction, weaker bound.
    names, indexed = _index_rows(unique)
    survivors = _prune_syntactic(
        [
            (row, relation, frozenset([position]))
            for position, (row, relation) in enumerate(indexed)
        ]
    )
    if len(survivors) < len(unique):
        kept = {next(iter(history)) for _, _, history in survivors}
        unique = [
            constraint
            for position, constraint in enumerate(unique)
            if position in kept
        ]

    result: List[Constraint] = []
    for index, candidate in enumerate(unique):
        if candidate.is_equality():
            result.append(candidate)
            continue
        # Test against the constraints already kept plus the ones not yet
        # examined; this never drops two mutually redundant constraints.
        others = result + unique[index + 1 :]
        context = [c.weaken() for c in others]
        statistics.lp_calls += 1
        outcome = solve_lp(candidate.expr, context, Sense.MAXIMIZE)
        if outcome.is_optimal and outcome.objective is not None and (
            outcome.objective <= 0
        ):
            # The constraint is implied by the others; drop it.
            continue
        result.append(candidate)
    return result


def entails(constraints: Sequence[Constraint], candidate: Constraint) -> bool:
    """Whether the conjunction of *constraints* implies *candidate*.

    Only meaningful for satisfiable conjunctions of non-strict constraints;
    an unsatisfiable conjunction entails everything and is reported as such.
    """
    context = [c.weaken() for c in constraints]
    if candidate.is_equality():
        upper = Constraint(candidate.expr, Relation.LE)
        lower = Constraint(-candidate.expr, Relation.LE)
        return entails(constraints, upper) and entails(constraints, lower)
    outcome = solve_lp(candidate.expr, context, Sense.MAXIMIZE)
    if outcome.is_infeasible:
        return True
    if outcome.is_unbounded:
        return False
    assert outcome.objective is not None
    if candidate.is_strict():
        return outcome.objective < 0
    return outcome.objective <= 0
