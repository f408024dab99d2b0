"""The generic CEGIS synthesis engine (Algorithms 1–3 of the paper).

The counterexample-guided loop of the paper lives here, decomposed into
four swappable pieces:

* a **template** (:mod:`repro.synthesis.templates`) — the candidate space
  and its LP (``LP(V, Constraints(I))``, Definition 11), plus the
  lexicographic composition rules of Algorithm 2;
* a **counterexample oracle** (:mod:`repro.synthesis.oracles`) — where
  counterexamples come from: the paper's optimising-SMT extremal-point
  search, double-description generator enumeration, or seeded sampling;
* a **refinement strategy** (:mod:`repro.synthesis.strategies`) — which
  of the oracle's candidates is turned into LP rows each iteration
  (extremal / arbitrary / random selection);
* **budgets and observers** — the iteration cap and a per-iteration event
  stream the analysis pipeline surfaces to its callers.

With the default configuration (``smt`` oracle, ``extremal`` strategy)
the engine replays the seed loop of the paper decision for
decision: one optimising SMT query per iteration, one generator row per
counterexample, flat directions accumulated into the ``AvoidSpace``
basis.  Every other oracle × strategy combination is an ablation the
paper discusses (§4.2: extremal vs. arbitrary counterexamples) or an
eager/lazy hybrid, and all of them are sound: the loop only concludes
from LP facts about genuine transition points and from oracle
exhaustion, which every oracle backs with a complete check.

:func:`eliminate_lexicographic` is the second loop shape the repository
kept re-implementing — the greedy "synthesise a component, discard what
it strictly decreases, repeat" elimination of the eager baselines — now
shared by ``eager_farkas``, ``eager_generators`` and the ``dnf`` prover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.core.lp_instance import LpStatistics
from repro.core.ranking import (
    AffineRankingFunction,
    LexicographicRankingFunction,
)
from repro.linalg.span import in_span
from repro.linalg.vector import Vector


class MaxIterationsExceeded(RuntimeError):
    """The synthesis loop exceeded its iteration budget.

    With an SMT solver returning generators of the transition polyhedra
    the loop provably terminates (Lemma 1); the budget is a safety net
    for the fallback paths of the reproduction's own OMT layer and for
    the non-extremal ablation strategies, whose counterexamples are not
    generators and therefore carry no termination guarantee.
    """


class SynthesisCancelled(RuntimeError):
    """The synthesis loop was cancelled through its ``should_stop`` hook.

    Raised co-operatively (between iterations, never mid-solve) when a
    caller racing several engines — e.g. termination against
    nontermination in the combined ``nonterm="auto"`` mode — has already
    obtained a verdict and asks the losers to stand down.
    """


@dataclass
class MonodimStatistics:
    """Counters for one run of the mono-dimensional loop.

    ``lp`` carries this component's own LP solve costs (pivots, warm vs
    cold solves) plus the unified engine counters (oracle queries,
    counterexample rows, flat directions) so the evaluation harness can
    report them through one :class:`~repro.core.lp_instance.LpStatistics`.
    """

    iterations: int = 0
    counterexamples: int = 0
    rays: int = 0
    flat_directions: int = 0
    lp: LpStatistics = field(default_factory=LpStatistics)


@dataclass
class MonodimResult:
    """Output of Algorithm 1/3: ``(λ, λ0, strict?)`` plus diagnostics."""

    ranking: AffineRankingFunction
    strict: bool
    flat_basis: List[Vector] = field(default_factory=list)
    statistics: MonodimStatistics = field(default_factory=MonodimStatistics)

    @property
    def is_trivial(self) -> bool:
        return self.ranking.is_trivial()


@dataclass
class MultidimResult:
    """Outcome of the lexicographic synthesis (Algorithm 2)."""

    success: bool
    ranking: Optional[LexicographicRankingFunction]
    components: List[MonodimResult] = field(default_factory=list)

    @property
    def dimension(self) -> int:
        return self.ranking.dimension if self.ranking else 0


@dataclass
class CegisEvent:
    """One engine event, delivered to the registered observers.

    ``kind`` is one of ``"component_start"``, ``"iteration"`` (one oracle
    query + LP re-solve round, with the row/flat counters of that round
    in ``payload``) and ``"component_end"``.  ``component`` is the
    0-based lexicographic dimension the event belongs to.
    """

    kind: str
    component: int
    iteration: int
    payload: Dict[str, object] = field(default_factory=dict)


#: An engine observer: called with every :class:`CegisEvent`.
CegisObserver = Callable[[CegisEvent], None]


class CegisEngine:
    """Template + oracle + strategy + budgets, composed into the loop."""

    def __init__(
        self,
        oracle,
        strategy,
        max_iterations: int = 200,
        lp_mode: str = "incremental",
        observers: Sequence[CegisObserver] = (),
        should_stop: Optional[Callable[[], bool]] = None,
    ):
        self.oracle = oracle
        self.strategy = strategy
        self.max_iterations = max_iterations
        self.lp_mode = lp_mode
        self.should_stop = should_stop
        self._observers: List[CegisObserver] = list(observers)

    def add_observer(self, observer: CegisObserver) -> None:
        self._observers.append(observer)

    def _emit(
        self, kind: str, component: int, iteration: int, **payload
    ) -> None:
        if not self._observers:
            return
        event = CegisEvent(kind, component, iteration, payload)
        for observer in self._observers:
            observer(event)

    # -- Algorithm 1 / 3: one quasi ranking function of maximal power --------------

    def synthesize_component(
        self,
        template,
        extra_constraints: Sequence = (),
        component: int = 0,
        lp_statistics: Optional[LpStatistics] = None,
    ) -> MonodimResult:
        """Synthesise one component over ``Φ ∧ extra_constraints``.

        This is the alternation of Algorithm 1: ask the oracle for
        counterexamples on which the current candidate fails to decrease
        strictly, add the rows the strategy selects to
        ``LP(V, Constraints(I))``, and re-solve for the quasi ranking
        function of maximal termination power — until the oracle is
        exhausted or the LP proves no collected generator separable.
        """
        statistics = MonodimStatistics()
        ranking_lp = template.make_lp(statistics.lp, self.lp_mode)
        flat_basis: List[Vector] = []
        smt_before = dict(self.oracle.smt_statistics)
        self._emit(
            "component_start",
            component,
            0,
            oracle=getattr(self.oracle, "name", ""),
            strategy=getattr(self.strategy, "name", ""),
        )
        try:
            current, deltas = self._refinement_loop(
                template,
                ranking_lp,
                statistics,
                extra_constraints,
                flat_basis,
                component,
            )
        finally:
            # Merge even when the iteration budget blows: the caller's
            # shared statistics must reflect the work actually performed.
            statistics.lp.record_smt(
                {
                    key: value - smt_before[key]
                    for key, value in self.oracle.smt_statistics.items()
                }
            )
            if lp_statistics is not None:
                lp_statistics.merge(statistics.lp)

        strict = bool(deltas) and all(value == 1 for value in deltas)
        if strict:
            strict = not template.has_stuttering_step(extra_constraints)
        current.strict = strict
        self._emit(
            "component_end",
            component,
            statistics.iterations,
            strict=strict,
            counterexamples=statistics.counterexamples,
        )
        return MonodimResult(
            ranking=current,
            strict=strict,
            flat_basis=flat_basis,
            statistics=statistics,
        )

    def _refinement_loop(
        self,
        template,
        ranking_lp,
        statistics: MonodimStatistics,
        extra_constraints: Sequence,
        flat_basis: List[Vector],
        component: int,
    ):
        """Oracle query → strategy selection → LP re-solve, until fixpoint."""
        # Imported here: the oracles module lazily reaches into the
        # baselines package, which itself builds on this engine.
        from repro.synthesis.oracles import OracleRequest

        current = template.initial_candidate()
        deltas: List[Fraction] = []
        self.oracle.reset(template, extra_constraints)

        while True:
            if self.should_stop is not None and self.should_stop():
                raise SynthesisCancelled(
                    "synthesis cancelled before iteration %d"
                    % (statistics.iterations + 1)
                )
            statistics.iterations += 1
            if statistics.iterations > self.max_iterations:
                raise MaxIterationsExceeded(
                    "mono-dimensional synthesis exceeded %d iterations"
                    % self.max_iterations
                )
            objective = template.objective(current)
            statistics.lp.oracle_queries += 1
            groups = self.oracle.find(
                OracleRequest(
                    objective=objective,
                    flat_basis=flat_basis,
                    want_extremal=self.strategy.wants_extremal,
                )
            )
            if not groups:
                self._emit("iteration", component, statistics.iterations,
                           exhausted=True)
                break

            chosen = self.strategy.select(groups)
            self.oracle.consumed(chosen)
            vertex_rows: List[Tuple[Vector, int]] = []
            rays_added = 0
            for witness in chosen:
                if witness.kind == "vertex":
                    statistics.counterexamples += 1
                    statistics.lp.cex_rows += 1
                    index = ranking_lp.add_counterexample(witness.vector)
                    vertex_rows.append((witness.vector, index))
                elif not witness.vector.is_zero():
                    statistics.rays += 1
                    statistics.lp.cex_rows += 1
                    ranking_lp.add_counterexample(witness.vector)
                    rays_added += 1

            solution = ranking_lp.solve()
            deltas = solution.deltas
            flats = 0
            if solution.all_gamma_zero and all(value == 0 for value in deltas):
                # No quasi ranking function separates any collected
                # generator: the component is finished (λ possibly 0).
                current = solution.ranking
                self._emit("iteration", component, statistics.iterations,
                           counterexamples=len(vertex_rows), rays=rays_added,
                           separable=False)
                break

            current = solution.ranking
            for vector, index in vertex_rows:
                if solution.delta_of(index) == 0:
                    if not vector.is_zero() and not in_span(vector, flat_basis):
                        flat_basis.append(vector)
                        statistics.flat_directions += 1
                        statistics.lp.flat_directions += 1
                        flats += 1
            self._emit("iteration", component, statistics.iterations,
                       counterexamples=len(vertex_rows), rays=rays_added,
                       flat_directions=flats)

        return current, deltas

    # -- Algorithm 2: lexicographic composition ------------------------------------

    def synthesize_lexicographic(
        self,
        template,
        lp_statistics: Optional[LpStatistics] = None,
    ) -> MultidimResult:
        """Run Algorithm 2 over *template* (a lexicographic template).

        One component is synthesised per dimension; before dimension
        ``d`` the transition relation is restricted to the steps on which
        every previous component is constant (``λ_{d'} · u = 0``).  The
        loop stops as soon as a component is strict (success) or when the
        new component is linearly dependent on the previous ones without
        being strict (failure — Theorem 1).
        """
        components: List[MonodimResult] = []
        stacked: List[Vector] = []
        flatness_constraints: List = []
        ranking = LexicographicRankingFunction()

        while True:
            result = self.synthesize_component(
                template,
                extra_constraints=flatness_constraints,
                component=len(components),
                lp_statistics=lp_statistics,
            )
            components.append(result)
            vector = template.stacked_vector(result.ranking)

            if not result.strict:
                if vector.is_zero() or in_span(vector, stacked):
                    # The new component adds nothing: by Theorem 1, no
                    # lexicographic linear ranking function exists
                    # relative to the invariant.
                    return MultidimResult(False, None, components)

            ranking.components.append(result.ranking)
            stacked.append(vector)

            if result.strict:
                return MultidimResult(True, ranking, components)

            if len(ranking.components) >= template.max_dimension:
                return MultidimResult(False, None, components)

            flatness_constraints.append(
                template.flatness_constraint(result.ranking)
            )


# ---------------------------------------------------------------------------
# The eager baselines' shared refinement loop
# ---------------------------------------------------------------------------

Item = TypeVar("Item")
Component = TypeVar("Component")


def eliminate_lexicographic(
    items: Sequence[Item],
    find_component: Callable[
        [List[Item]], Optional[Tuple[Component, Sequence[int]]]
    ],
    max_dimension: int,
) -> Tuple[List[Component], List[Item], bool]:
    """Greedy lexicographic elimination over *items*.

    The loop shape shared by the eager baselines (Rank-style Farkas,
    Ben-Amram & Genaim generator enumeration, per-disjunct DNF
    elimination): call ``find_component(remaining)`` for the next
    lexicographic component and the indices (into *remaining*) it
    strictly decreases, drop those items, and repeat until everything is
    eliminated (``proved``), no component makes progress, or the
    dimension cap is reached.

    Returns ``(components, remaining, proved)``; an empty *items* list is
    trivially proved with no components.
    """
    remaining = list(items)
    components: List[Component] = []
    proved = not remaining
    while remaining and len(components) < max_dimension:
        found = find_component(remaining)
        if found is None:
            break
        component, killed = found
        components.append(component)
        killed_set = set(killed)
        remaining = [
            item
            for index, item in enumerate(remaining)
            if index not in killed_set
        ]
        if not remaining:
            proved = True
            break
    return components, remaining, proved
