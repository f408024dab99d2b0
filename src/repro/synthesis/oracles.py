"""Counterexample oracles for the CEGIS engine.

An oracle answers one question: *given the current candidate, produce a
transition step on which it fails to decrease strictly* — a model of
``Φ ∧ AvoidSpace(u, B) ∧ λ·u ≤ 0`` — or certify that none exists.  Three
interchangeable implementations:

* :class:`SmtOptimizingOracle` (``"smt"``) — the paper's oracle: an
  optimising SMT query minimising ``λ·u``, so the witness is *extremal*
  (a vertex of one disjunct of the convex hull of one-step differences,
  or a ray when the objective is unbounded, §4.2).  With a non-extremal
  strategy the same query is asked without the minimisation, yielding an
  arbitrary theory model — the paper's extremal-vs-arbitrary ablation.
* :class:`DdEnumerationOracle` (``"dd"``) — vertex/ray enumeration: the
  generators of every path polyhedron are computed once per component
  with the double-description method of :mod:`repro.polyhedra.dd` and
  handed out lazily.  When no un-consumed generator violates the
  candidate, exhaustion is *confirmed* with one complete SMT query, so
  verdicts never depend on the enumeration being lossless.
* :class:`SamplingOracle` (``"sampling"``) — seeded sampling: violating
  generators are perturbed into interior (deliberately non-extremal)
  points of their disjunct, exercising the engine on the kind of
  counterexamples a plain ``get-model`` call would produce.  Exhaustion
  is SMT-confirmed exactly like the DD oracle.

Every oracle only ever returns genuine points/rays of the restricted
transition relation, and only reports exhaustion after a complete check
— the two facts the engine's verdicts rest on.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.problem import ONE_COORDINATE, TerminationProblem
from repro.linalg.span import in_span, orthogonal_complement
from repro.linalg.vector import Vector
from repro.linexpr.constraint import Constraint
from repro.linexpr.expr import LinExpr
from repro.linexpr.formula import Formula, conjunction, disjunction
from repro.linexpr.transform import prime_suffix
from repro.smt.optimize import OptimizingSmtSolver
from repro.smt.solver import SMT_COUNTERS

#: Registry names of the built-in oracles, in preference order.
ORACLE_NAMES = ("smt", "dd", "sampling")


# ---------------------------------------------------------------------------
# Witnesses and the oracle interface
# ---------------------------------------------------------------------------


@dataclass
class Witness:
    """One counterexample candidate in the stacked ``u`` space.

    A ``"vertex"`` witness is a genuine one-step difference vector; a
    ``"ray"`` witness is a recession direction along which the candidate
    is unbounded.  ``token`` is an oracle-private handle the engine hands
    back through :meth:`CounterexampleOracle.consumed` once the witness
    was actually turned into an LP row.
    """

    vector: Vector
    kind: str  # "vertex" | "ray"
    objective_value: Optional[Fraction] = None
    origin: str = ""
    token: Optional[int] = None


#: Witnesses that must be added together (an SMT vertex and its ray).
WitnessGroup = List[Witness]


@dataclass
class OracleRequest:
    """One engine query: refute *objective* outside ``span(flat_basis)``."""

    objective: LinExpr
    flat_basis: Sequence[Vector] = ()
    want_extremal: bool = True


class CounterexampleOracle(abc.ABC):
    """Source of counterexamples for one synthesis component."""

    #: Stable registry name (the ``cex_oracle`` config value).
    name: str = ""

    def __init__(self) -> None:
        self.statistics: Dict[str, int] = {
            "queries": 0,
            "smt_queries": 0,
            "candidates": 0,
        }
        #: :data:`~repro.smt.solver.SMT_COUNTERS` summed over every SMT
        #: query this oracle issued; the engine folds them into
        #: :class:`~repro.core.lp_instance.LpStatistics`.
        self.smt_statistics: Dict[str, int] = dict.fromkeys(SMT_COUNTERS, 0)

    def reset(self, template, extra_constraints: Sequence = ()) -> None:
        """Prepare for one component of *template* (called by the engine)."""
        self._template = template
        self._extra_constraints = list(extra_constraints)

    @abc.abstractmethod
    def find(self, request: OracleRequest) -> List[WitnessGroup]:
        """Candidate witness groups violating the request's objective.

        An empty list means *exhausted*: no counterexample exists (the
        component is finished).  Oracles must only return an empty list
        after a complete check.
        """

    def consumed(self, group: WitnessGroup) -> None:
        """The engine added this group as LP rows (default: no-op)."""


# ---------------------------------------------------------------------------
# Shared query building blocks
# ---------------------------------------------------------------------------


def avoid_space(
    problem: TerminationProblem, flat_basis: Sequence[Vector]
) -> Formula:
    """``AvoidSpace(u, B)``: the block vector must leave ``span(B)``.

    Implemented through the orthogonal complement: ``u ∈ span(B)`` iff
    ``w·u = 0`` for every ``w`` in a basis of ``span(B)^⊥``, so the
    avoidance condition is the disjunction of the dis-equalities
    ``w·u < 0 ∨ w·u > 0``.  With ``B = ∅`` this is simply ``u ≠ 0``, which
    also rules out stuttering counterexamples ``(x, x)``.
    """
    names = problem.difference_variables()
    dimension = problem.stacked_dimension
    complement = orthogonal_complement(list(flat_basis), dimension)
    disequalities: List[Formula] = []
    for normal in complement:
        expr = LinExpr(
            {name: normal[i] for i, name in enumerate(names) if normal[i] != 0}
        )
        disequalities.append(disjunction([expr < 0, expr > 0]))
    return disjunction(disequalities)


def has_stuttering_step(
    problem: TerminationProblem,
    transition_formula: Formula,
    extra_constraints: Sequence,
    integer_mode: bool,
    lp_mode: str = "incremental",
) -> bool:
    """Whether ``Φ`` admits a step with ``u = 0`` (see end of Algorithm 1)."""
    solver = OptimizingSmtSolver(
        integer_variables=(
            problem.smt_integer_variables() if integer_mode else ()
        ),
        lp_mode=lp_mode,
    )
    solver.assert_formula(transition_formula)
    for constraint in extra_constraints:
        solver.assert_formula(constraint)
    zero = conjunction(
        [
            LinExpr.variable(name).eq(0)
            for name in problem.difference_variables()
        ]
    )
    solver.assert_formula(zero)
    return solver.check().is_sat


def objective_on_vector(
    objective: LinExpr, vector: Vector, names: Sequence[str]
) -> Fraction:
    """``λ · u`` for a concrete stacked vector (names fix the ordering)."""
    return objective.evaluate(dict(zip(names, vector)))


# ---------------------------------------------------------------------------
# The paper's oracle: optimising SMT
# ---------------------------------------------------------------------------


class SmtOptimizingOracle(CounterexampleOracle):
    """Extremal (or arbitrary) counterexamples from optimising SMT."""

    name = "smt"

    def _build_query(
        self, objective: LinExpr, flat_basis: Sequence[Vector]
    ) -> OptimizingSmtSolver:
        template = self._template
        problem = template.problem
        solver = OptimizingSmtSolver(
            integer_variables=(
                problem.smt_integer_variables() if template.integer_mode else ()
            ),
            mode=template.smt_mode,
            lp_mode=getattr(template, "lp_mode", "incremental"),
        )
        solver.assert_formula(template.transition_formula)
        for constraint in self._extra_constraints:
            solver.assert_formula(constraint)
        solver.assert_formula(avoid_space(problem, flat_basis))
        solver.assert_formula(objective <= 0)
        return solver

    def find(self, request: OracleRequest) -> List[WitnessGroup]:
        self.statistics["queries"] += 1
        self.statistics["smt_queries"] += 1
        problem = self._template.problem
        solver = self._build_query(request.objective, request.flat_basis)
        if request.want_extremal:
            outcome = solver.minimize(request.objective)
        else:
            # Same query, no minimisation: an arbitrary theory model —
            # the non-extremal half of the paper's §4.2 ablation.
            outcome = solver.check()
        for key in SMT_COUNTERS:
            self.smt_statistics[key] += solver.statistics[key]
        if outcome.is_unsat:
            return []
        witness = problem.difference_vector(outcome.model)
        group: WitnessGroup = [
            Witness(
                vector=witness,
                kind="vertex",
                objective_value=outcome.objective_value,
                origin=self.name,
            )
        ]
        if outcome.unbounded:
            ray = Vector(
                outcome.ray.get(name, Fraction(0))
                for name in problem.difference_variables()
            )
            if not ray.is_zero():
                group.append(Witness(vector=ray, kind="ray", origin=self.name))
        self.statistics["candidates"] += 1
        return [group]


# ---------------------------------------------------------------------------
# Mapping disjunct generators into the stacked u-space
# ---------------------------------------------------------------------------


def difference_map(
    problem: TerminationProblem, disjunct
) -> Tuple[List[str], List[Vector]]:
    """The linear map from a disjunct's state space to the stacked u-space.

    Returns the disjunct's variable ordering and, per stacked coordinate,
    the row vector expressing that coordinate of ``u = e_k((x,1)) −
    e_{k'}((x',1))`` over the disjunct's variables (the constant part is
    handled separately by the caller through the @one coordinate).
    """
    variables = disjunct.variables()
    rows: List[Vector] = []
    for location in problem.cutset:
        for coordinate in problem.space_variables:
            entries = [0] * len(variables)
            if coordinate == ONE_COORDINATE:
                rows.append(Vector(entries))
                continue
            if location == disjunct.source and coordinate in variables:
                entries[variables.index(coordinate)] += 1
            primed = coordinate + "'"
            if location == disjunct.target and primed in variables:
                entries[variables.index(primed)] -= 1
            rows.append(Vector(entries))
    return variables, rows


def one_offsets(problem: TerminationProblem, disjunct) -> Vector:
    """The constant contribution of the @one coordinates to ``u``."""
    entries = []
    for location in problem.cutset:
        for coordinate in problem.space_variables:
            value = 0
            if coordinate == ONE_COORDINATE:
                if location == disjunct.source:
                    value += 1
                if location == disjunct.target:
                    value -= 1
            entries.append(value)
    return Vector(entries)


def disjunct_generators(
    problem: TerminationProblem, disjunct
) -> List[Tuple[str, Vector]]:
    """Vertices and rays of the disjunct, mapped into the stacked u-space."""
    from repro.polyhedra.dd import constraints_to_generators

    variables, rows = difference_map(problem, disjunct)
    offset = one_offsets(problem, disjunct)
    system = constraints_to_generators(disjunct.constraints, variables)
    generators: List[Tuple[str, Vector]] = []
    for vertex in system.vertices:
        image = Vector([row.dot(vertex) for row in rows]) + offset
        generators.append(("vertex", image))
    for ray in system.all_ray_like():
        image = Vector([row.dot(ray) for row in rows])
        if not image.is_zero():
            generators.append(("ray", image))
    return generators


def constraint_in_state_space(
    problem: TerminationProblem,
    constraint: Constraint,
    source: str,
    target: str,
) -> Constraint:
    """Rewrite a constraint over the ``u`` variables into a disjunct's space.

    The flatness restriction ``λ_{d'} · u = 0`` of Algorithm 2 mentions
    only the stacked difference variables; on one ``source → target``
    disjunct each ``u`` component is the fixed linear form
    ``e_source((x,1)) − e_target((x',1))``, so the constraint becomes a
    plain state-space row the double-description step can consume.
    """
    terms: Dict[str, Fraction] = {}
    constant = constraint.expr.constant_term
    for location in problem.cutset:
        for variable in problem.variables:
            coefficient = constraint.expr.coefficient(
                problem.difference_variable(location, variable)
            )
            if coefficient == 0:
                continue
            if location == source:
                terms[variable] = terms.get(variable, Fraction(0)) + coefficient
            if location == target:
                primed = prime_suffix(variable)
                terms[primed] = terms.get(primed, Fraction(0)) - coefficient
        one_coefficient = constraint.expr.coefficient(
            problem.difference_variable(location, ONE_COORDINATE)
        )
        if one_coefficient != 0:
            if location == source:
                constant += one_coefficient
            if location == target:
                constant -= one_coefficient
    terms = {name: value for name, value in terms.items() if value != 0}
    return Constraint(LinExpr(terms, constant), constraint.relation)


# ---------------------------------------------------------------------------
# Double-description enumeration oracle
# ---------------------------------------------------------------------------


@dataclass
class _Generator:
    """One enumerated generator with its provenance."""

    vector: Vector
    kind: str  # "vertex" | "ray"
    disjunct: int
    used: bool = field(default=False, compare=False)


class DdEnumerationOracle(CounterexampleOracle):
    """Lazy hand-out of eagerly enumerated vertex/ray generators.

    The component's restricted transition relation (including the
    lexicographic flatness constraints, translated into each disjunct's
    state space) is converted to generators once per :meth:`reset`; each
    :meth:`find` returns the not-yet-consumed generators violating the
    current candidate.  Exhaustion is confirmed with one complete SMT
    query, whose witness (if any) is returned like a normal candidate.
    """

    name = "dd"

    def reset(self, template, extra_constraints: Sequence = ()) -> None:
        super().reset(template, extra_constraints)
        self._names = template.problem.difference_variables()
        self._confirmation = SmtOptimizingOracle()
        self._confirmation.smt_statistics = self.smt_statistics
        self._confirmation.reset(template, extra_constraints)
        self._generators = self._enumerate(template, extra_constraints)
        self._vertices_by_disjunct: Dict[int, List[Vector]] = {}
        for generator in self._generators:
            if generator.kind == "vertex":
                self._vertices_by_disjunct.setdefault(
                    generator.disjunct, []
                ).append(generator.vector)

    def _enumerate(self, template, extra_constraints) -> List[_Generator]:
        # Imported lazily: the baselines package is built on the engine,
        # so the synthesis layer must not import it at module load time.
        from repro.baselines.dnf import TransitionDisjunct, expand_disjuncts

        problem = template.problem
        generators: List[_Generator] = []
        for position, disjunct in enumerate(expand_disjuncts(problem)):
            rows = list(disjunct.constraints)
            for constraint in extra_constraints:
                rows.append(
                    constraint_in_state_space(
                        problem, constraint, disjunct.source, disjunct.target
                    )
                )
            restricted = TransitionDisjunct(
                disjunct.source, disjunct.target, rows
            )
            for kind, vector in disjunct_generators(problem, restricted):
                if vector.is_zero():
                    # u = 0 is a stuttering step; AvoidSpace always
                    # excludes it and the end-of-loop check handles it.
                    continue
                generators.append(_Generator(vector, kind, position))
        return generators

    def _violates(
        self,
        generator: _Generator,
        request: OracleRequest,
        flat_basis: List[Vector],
    ) -> Optional[Fraction]:
        value = objective_on_vector(
            request.objective, generator.vector, self._names
        )
        if generator.kind == "vertex":
            if value > 0:
                return None
            if in_span(generator.vector, flat_basis):
                return None
        else:
            if value >= 0:
                return None
        return value

    def _make_group(
        self,
        index: int,
        generator: _Generator,
        value: Fraction,
        request: OracleRequest,
    ) -> WitnessGroup:
        return [
            Witness(
                vector=generator.vector,
                kind=generator.kind,
                objective_value=value,
                origin=self.name,
                token=index,
            )
        ]

    def find(self, request: OracleRequest) -> List[WitnessGroup]:
        self.statistics["queries"] += 1
        groups: List[WitnessGroup] = []
        flat_basis = list(request.flat_basis)
        for index, generator in enumerate(self._generators):
            if generator.used:
                continue
            value = self._violates(generator, request, flat_basis)
            if value is None:
                continue
            groups.append(self._make_group(index, generator, value, request))
            if not request.want_extremal:
                # A non-extremal strategy does not rank the candidates,
                # so further span/dot checks would be thrown away.
                break
        if groups:
            self.statistics["candidates"] += len(groups)
            return groups
        # No un-consumed generator violates: confirm exhaustion with the
        # complete query (covers degenerate DD output and interactions
        # between AvoidSpace and non-generator points).
        self.statistics["smt_queries"] += 1
        return self._confirmation.find(replace(request, want_extremal=True))

    def consumed(self, group: WitnessGroup) -> None:
        for witness in group:
            if witness.token is not None:
                self._generators[witness.token].used = True


# ---------------------------------------------------------------------------
# Seeded sampling oracle
# ---------------------------------------------------------------------------


class SamplingOracle(DdEnumerationOracle):
    """Interior-point (non-extremal) counterexamples, deterministically seeded.

    Enumerates generators like the DD oracle but perturbs every violating
    vertex towards another vertex of the same disjunct, returning a point
    *inside* the path polyhedron whenever one still violates the
    candidate.  This is the "what if counterexamples are not extremal"
    scenario of §4.2, reproducible via ``oracle_seed``.
    """

    name = "sampling"

    #: Mixing weights tried (largest first) when perturbing a vertex.
    MIX_WEIGHTS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 8))

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._resets = 0
        self._rng = random.Random(seed)

    def reset(self, template, extra_constraints: Sequence = ()) -> None:
        super().reset(template, extra_constraints)
        # Re-seed per component so a run is reproducible from
        # (oracle_seed, component) alone, independent of query counts.
        self._rng = random.Random((self.seed + 1) * 1000003 + self._resets)
        self._resets += 1

    def _make_group(
        self,
        index: int,
        generator: _Generator,
        value: Fraction,
        request: OracleRequest,
    ) -> WitnessGroup:
        if generator.kind != "vertex":
            return super()._make_group(index, generator, value, request)
        partners = [
            vector
            for vector in self._vertices_by_disjunct.get(generator.disjunct, [])
            if vector != generator.vector
        ]
        point, point_value = generator.vector, value
        if partners:
            partner = self._rng.choice(partners)
            for weight in self.MIX_WEIGHTS:
                mixed = generator.vector * (1 - weight) + partner * weight
                mixed_value = objective_on_vector(
                    request.objective, mixed, self._names
                )
                if mixed_value > 0 or mixed.is_zero():
                    continue
                if in_span(mixed, list(request.flat_basis)):
                    continue
                point, point_value = mixed, mixed_value
                break
        return [
            Witness(
                vector=point,
                kind="vertex",
                objective_value=point_value,
                origin=self.name,
                token=index,
            )
        ]


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------


def make_oracle(name, seed: int = 0) -> CounterexampleOracle:
    """Resolve an oracle name (or pass an instance through unchanged)."""
    if isinstance(name, CounterexampleOracle):
        return name
    if name == "smt":
        return SmtOptimizingOracle()
    if name == "dd":
        return DdEnumerationOracle()
    if name == "sampling":
        return SamplingOracle(seed=seed)
    raise ValueError(
        "unknown counterexample oracle %r (available: %s)"
        % (name, ", ".join(ORACLE_NAMES))
    )
