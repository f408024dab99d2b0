"""Eager generator enumeration (Ben-Amram & Genaim style).

The approach of Ben-Amram & Genaim (JACM 2014), as characterised in §1/§3
of the paper: take the transition relation in disjunctive normal form,
compute the vertices and rays of every disjunct *eagerly* with the
double-description method, and solve one ``LP(V, Constraints(I))``
instance over the full generator set (per lexicographic component).

Functionally this proves exactly the same programs as the lazy algorithm
relative to the same invariants (both are complete for lexicographic
linear ranking functions); the difference the paper measures is the cost:
the number of generators — hence LP rows — can be exponential in the
program, whereas the lazy loop only materialises the handful of extremal
counterexamples it actually needs.

The generator-to-u-space mapping is shared with the synthesis package's
double-description oracle (:func:`repro.synthesis.oracles.
disjunct_generators`), and the per-component elimination loop is the
generic :func:`repro.synthesis.engine.eliminate_lexicographic`.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.baselines.dnf import expand_disjuncts
from repro.baselines.result import BaselineResult
from repro.core.lp_instance import LpStatistics, RankingLp
from repro.core.problem import TerminationProblem
from repro.core.ranking import LexicographicRankingFunction
from repro.linalg.span import in_span
from repro.linalg.vector import Vector
from repro.synthesis.engine import eliminate_lexicographic
from repro.synthesis.oracles import disjunct_generators


def eager_generator_synthesis(
    problem: TerminationProblem,
    max_dimension: Optional[int] = None,
) -> BaselineResult:
    """Lexicographic synthesis with the full, eagerly computed generator set."""
    start = time.perf_counter()
    statistics = LpStatistics()
    if max_dimension is None:
        max_dimension = problem.stacked_dimension

    disjuncts = expand_disjuncts(problem)
    generators: List[Tuple[str, Vector]] = []
    for disjunct in disjuncts:
        generators.extend(disjunct_generators(problem, disjunct))

    stacked: List[Vector] = []

    def find_component(remaining):
        """One ``LP(V, Constraints(I))`` solve over the remaining generators."""
        ranking_lp = RankingLp(problem, statistics)
        for _, generator in remaining:
            ranking_lp.add_counterexample(generator)
        solution = ranking_lp.solve()
        component = solution.ranking
        vector = component.stacked_vector(problem.cutset)
        decreased = [
            index
            for index, delta in enumerate(solution.deltas)
            if delta == 1
        ]
        if not decreased:
            return None
        if vector.is_zero() or in_span(vector, stacked):
            return None
        stacked.append(vector)
        return component, decreased

    components, _, proved = eliminate_lexicographic(
        generators, find_component, max_dimension
    )
    if proved and components:
        components[-1].strict = True

    elapsed = time.perf_counter() - start
    ranking = LexicographicRankingFunction(components) if proved else None
    return BaselineResult(
        name="eager-generators (BG14-style)",
        proved=proved,
        ranking=ranking,
        time_seconds=elapsed,
        lp_statistics=statistics,
        details={
            "disjuncts": len(disjuncts),
            "generators": len(generators),
            "dimension": len(components),
        },
    )
