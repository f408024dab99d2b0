"""Refinement strategies: which counterexample becomes LP rows.

A strategy makes the decision the paper's §4.2 ablation is about: which
of the oracle's candidates to refine with — the extremal (most-violating)
one, an arbitrary one, or a seeded-random one.  Each iteration refines
with exactly one candidate group, as in the paper.

A strategy also declares :attr:`~RefinementStrategy.wants_extremal`, so
the SMT oracle knows whether to run the optimising query or settle for
an arbitrary model.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from repro.synthesis.oracles import WitnessGroup

#: Registry names of the built-in strategies.
STRATEGY_NAMES = ("extremal", "arbitrary", "random")


def _group_objective(group: WitnessGroup):
    """Sort key: the most violating objective value of the group."""
    values = [
        witness.objective_value
        for witness in group
        if witness.objective_value is not None
    ]
    if not values:
        return (1, Fraction(0))
    return (0, min(values))


def _group_canonical_key(group: WitnessGroup):
    """A total order on witness groups independent of oracle pool order.

    Keys only on the witness *content* (kind and exact vector entries),
    so two runs whose oracles enumerate the same candidate set in
    different orders still sample identically under the same seed.
    """
    return tuple(
        (
            witness.kind,
            tuple(
                (entry.numerator, entry.denominator)
                for entry in witness.vector
            ),
        )
        for witness in group
    )


class RefinementStrategy:
    """Selection policy over the oracle's candidate witness groups."""

    #: Stable registry name (the ``cex_strategy`` config value).
    name: str = ""
    #: Whether the oracle should optimise (extremal witnesses) or not.
    wants_extremal: bool = False

    def select(self, groups: Sequence[WitnessGroup]) -> WitnessGroup:
        """Pick the group to refine with this iteration (*groups* is non-empty)."""
        raise NotImplementedError


class ExtremalStrategy(RefinementStrategy):
    """The paper's choice: refine with the most extremal counterexample."""

    name = "extremal"
    wants_extremal = True

    def select(self, groups: Sequence[WitnessGroup]) -> WitnessGroup:
        # Canonical tiebreak: equally violating groups would otherwise be
        # picked by oracle enumeration order.
        return min(
            groups,
            key=lambda group: (
                _group_objective(group),
                _group_canonical_key(group),
            ),
        )


class ArbitraryStrategy(RefinementStrategy):
    """First-found counterexample, no optimisation (the ablation baseline)."""

    name = "arbitrary"
    wants_extremal = False

    def select(self, groups: Sequence[WitnessGroup]) -> WitnessGroup:
        return groups[0]


class RandomStrategy(RefinementStrategy):
    """Seeded-random selection among the violating candidates."""

    name = "random"
    wants_extremal = False

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)

    def select(self, groups: Sequence[WitnessGroup]) -> WitnessGroup:
        if len(groups) == 1:
            return groups[0]
        # Sample from a canonically ordered pool: the oracle's enumeration
        # order is an implementation detail (hash ordering, solver model
        # order), and sampling from it directly would let ``oracle_seed``
        # pin the RNG without pinning the run.
        return self._rng.choice(sorted(groups, key=_group_canonical_key))


def make_strategy(name, seed: int = 0) -> RefinementStrategy:
    """Resolve a strategy name (or pass an instance through unchanged)."""
    if isinstance(name, RefinementStrategy):
        return name
    if name == "extremal":
        return ExtremalStrategy()
    if name == "arbitrary":
        return ArbitraryStrategy()
    if name == "random":
        return RandomStrategy(seed=seed)
    raise ValueError(
        "unknown counterexample strategy %r (available: %s)"
        % (name, ", ".join(STRATEGY_NAMES))
    )
