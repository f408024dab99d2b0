"""Strategy selection policies: one witness group per iteration."""

from fractions import Fraction

import pytest

from repro.synthesis.oracles import Witness
from repro.synthesis.strategies import (
    ArbitraryStrategy,
    ExtremalStrategy,
    RandomStrategy,
    make_strategy,
)
from repro.linalg.vector import Vector


def group(value):
    return [
        Witness(
            vector=Vector([Fraction(value)]),
            kind="vertex",
            objective_value=Fraction(value),
        )
    ]


GROUPS = [group(-1), group(-5), group(-3), group(0)]


class TestExtremal:
    def test_picks_most_violating_first(self):
        chosen = ExtremalStrategy().select(GROUPS)
        assert chosen[0].objective_value == Fraction(-5)

    def test_declares_extremal_intent(self):
        assert ExtremalStrategy().wants_extremal
        assert not ArbitraryStrategy().wants_extremal
        assert not RandomStrategy().wants_extremal

    def test_groups_without_value_sort_last(self):
        anonymous = [Witness(vector=Vector([Fraction(0)]), kind="vertex")]
        chosen = ExtremalStrategy().select([anonymous, group(-2)])
        assert chosen[0].objective_value == Fraction(-2)


class TestArbitrary:
    def test_takes_first_in_order(self):
        assert ArbitraryStrategy().select(GROUPS) is GROUPS[0]


class TestRandom:
    def test_seeded_and_reproducible(self):
        first = RandomStrategy(seed=11).select(GROUPS)
        second = RandomStrategy(seed=11).select(GROUPS)
        assert first[0].objective_value == second[0].objective_value

    def test_small_pool_returned_whole(self):
        assert RandomStrategy(seed=0).select(GROUPS[:1]) is GROUPS[0]

    def test_seed_pins_selection_across_pool_orders(self):
        """The oracle's enumeration order must not influence sampling.

        The strategy sorts the pool by a canonical content key before
        sampling, so the same seed picks the same *witness* no matter
        how the oracle happened to order its candidates.
        """
        import itertools

        baseline = None
        for permutation in itertools.permutations(GROUPS):
            chosen = RandomStrategy(seed=7).select(list(permutation))
            picked = chosen[0].objective_value
            if baseline is None:
                baseline = picked
            assert picked == baseline


class TestBatchedExtremalDeterminism:
    def test_objective_ties_break_canonically(self):
        """Equally violating groups must not be picked by pool order."""
        import itertools

        tied = [
            [
                Witness(
                    vector=Vector([Fraction(value)]),
                    kind="vertex",
                    objective_value=Fraction(-2),
                )
            ]
            for value in (3, 1, 2)
        ]
        baseline = None
        for permutation in itertools.permutations(tied):
            chosen = ExtremalStrategy().select(list(permutation))
            if baseline is None:
                baseline = chosen[0].vector
            assert chosen[0].vector == baseline


class TestFactory:
    def test_batch_validation(self):
        # One group per iteration: the factory takes no batch size.
        with pytest.raises(TypeError):
            make_strategy("extremal", batch=2)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown counterexample strategy"):
            make_strategy("greedy")

    def test_instances_pass_through(self):
        instance = RandomStrategy(seed=5)
        assert make_strategy(instance) is instance

    def test_names_resolve(self):
        for name in ("extremal", "arbitrary", "random"):
            assert make_strategy(name).name == name
