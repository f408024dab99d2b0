"""The CEGIS engine: budgets, events, and the shared elimination loop."""

import pytest

from repro.api import Analysis
from repro.synthesis.engine import (
    CegisEngine,
    MaxIterationsExceeded,
    eliminate_lexicographic,
)
from repro.synthesis.oracles import make_oracle
from repro.synthesis.strategies import make_strategy
from repro.synthesis.templates import LexicographicTemplate, LinearTemplate


def build_problem(automaton):
    return Analysis(automaton).problem()


def make_engine(observers=(), max_iterations=200, oracle="smt",
                strategy="extremal"):
    return CegisEngine(
        make_oracle(oracle),
        make_strategy(strategy),
        max_iterations=max_iterations,
        observers=observers,
    )


class TestComponentSynthesis:
    def test_example1_strict_component(self, example1_automaton):
        problem = build_problem(example1_automaton)
        result = make_engine().synthesize_component(LinearTemplate(problem))
        assert result.strict
        assert not result.is_trivial
        assert result.statistics.counterexamples >= 1

    def test_stutter_gives_non_strict(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        result = make_engine().synthesize_component(LinearTemplate(problem))
        assert not result.strict

    def test_iteration_budget_enforced(self, example1_automaton):
        problem = build_problem(example1_automaton)
        with pytest.raises(MaxIterationsExceeded):
            make_engine(max_iterations=0).synthesize_component(
                LinearTemplate(problem)
            )

    def test_unified_counters_folded_into_lp_statistics(
        self, example1_automaton
    ):
        from repro.core.lp_instance import LpStatistics

        problem = build_problem(example1_automaton)
        shared = LpStatistics()
        result = make_engine().synthesize_component(
            LinearTemplate(problem), lp_statistics=shared
        )
        assert shared.oracle_queries == result.statistics.iterations
        assert shared.cex_rows == (
            result.statistics.counterexamples + result.statistics.rays
        )
        assert shared.flat_directions == result.statistics.flat_directions
        # The counters survive the JSON round-trip.
        assert (
            LpStatistics.from_dict(shared.to_dict()).oracle_queries
            == shared.oracle_queries
        )


class TestLexicographic:
    def test_example1_dimension_one(self, example1_automaton):
        problem = build_problem(example1_automaton)
        outcome = make_engine().synthesize_lexicographic(
            LexicographicTemplate(problem)
        )
        assert outcome.success
        assert outcome.dimension == 1

    def test_failure_reported(self, stutter_automaton):
        problem = build_problem(stutter_automaton)
        outcome = make_engine().synthesize_lexicographic(
            LexicographicTemplate(problem)
        )
        assert not outcome.success
        assert outcome.ranking is None

    def test_max_dimension_cap(self, lexicographic_automaton):
        problem = build_problem(lexicographic_automaton)
        outcome = make_engine().synthesize_lexicographic(
            LexicographicTemplate(problem, max_dimension=1)
        )
        assert outcome.dimension <= 1


class TestEvents:
    def test_event_stream_is_well_bracketed(self, example1_automaton):
        problem = build_problem(example1_automaton)
        events = []
        engine = make_engine(observers=[events.append])
        engine.synthesize_lexicographic(LexicographicTemplate(problem))

        kinds = [event.kind for event in events]
        assert kinds[0] == "component_start"
        assert kinds[-1] == "component_end"
        assert kinds.count("component_start") == kinds.count("component_end")
        iterations = [e for e in events if e.kind == "iteration"]
        assert iterations, "no per-iteration events emitted"
        # Iterations are numbered 1.. within their component.
        for component in {event.component for event in iterations}:
            numbers = [
                event.iteration
                for event in iterations
                if event.component == component
            ]
            assert numbers == list(range(1, len(numbers) + 1))

    def test_component_start_names_oracle_and_strategy(
        self, countdown_automaton
    ):
        problem = build_problem(countdown_automaton)
        events = []
        engine = make_engine(
            observers=[events.append], oracle="dd", strategy="arbitrary"
        )
        engine.synthesize_component(LinearTemplate(problem))
        start = events[0]
        assert start.payload["oracle"] == "dd"
        assert start.payload["strategy"] == "arbitrary"


class TestEliminateLexicographic:
    def test_empty_items_trivially_proved(self):
        components, remaining, proved = eliminate_lexicographic(
            [], lambda remaining: pytest.fail("must not be called"), 4
        )
        assert proved and not components and not remaining

    def test_eliminates_until_done(self):
        calls = []

        def find(remaining):
            calls.append(list(remaining))
            return ("c%d" % len(calls), [0])

        components, remaining, proved = eliminate_lexicographic(
            ["a", "b", "c"], find, 10
        )
        assert proved
        assert components == ["c1", "c2", "c3"]
        assert calls == [["a", "b", "c"], ["b", "c"], ["c"]]

    def test_stops_without_progress(self):
        components, remaining, proved = eliminate_lexicographic(
            ["a", "b"], lambda remaining: None, 10
        )
        assert not proved
        assert remaining == ["a", "b"]
        assert components == []

    def test_dimension_cap(self):
        components, remaining, proved = eliminate_lexicographic(
            ["a", "b", "c"], lambda remaining: ("c", [0]), 2
        )
        assert not proved
        assert len(components) == 2
        assert remaining == ["c"]

    def test_batch_elimination(self):
        components, remaining, proved = eliminate_lexicographic(
            ["a", "b", "c"], lambda remaining: ("c", list(range(len(remaining)))), 4
        )
        assert proved and len(components) == 1 and not remaining


class TestSeedDeterminism:
    """``oracle_seed`` must fully pin the run, including event payloads."""

    def _event_stream(self, problem, seed):
        from repro.synthesis.oracles import make_oracle
        from repro.synthesis.strategies import make_strategy

        events = []
        engine = CegisEngine(
            make_oracle("dd", seed=seed),
            make_strategy("random", seed=seed),
            max_iterations=200,
            observers=[events.append],
        )
        engine.synthesize_lexicographic(LexicographicTemplate(problem))
        return [
            (event.kind, event.component, event.iteration, repr(event.payload))
            for event in events
        ]

    def test_same_seed_identical_event_streams(self, example1_automaton):
        problem = build_problem(example1_automaton)
        first = self._event_stream(problem, seed=13)
        second = self._event_stream(problem, seed=13)
        assert first == second

    def test_same_seed_identical_streams_sampling_oracle(
        self, lexicographic_automaton
    ):
        from repro.synthesis.oracles import make_oracle
        from repro.synthesis.strategies import make_strategy

        problem = build_problem(lexicographic_automaton)
        streams = []
        for _ in range(2):
            events = []
            engine = CegisEngine(
                make_oracle("sampling", seed=5),
                make_strategy("random", seed=5),
                max_iterations=200,
                observers=[events.append],
            )
            engine.synthesize_lexicographic(LexicographicTemplate(problem))
            streams.append(
                [
                    (e.kind, e.component, e.iteration, repr(e.payload))
                    for e in events
                ]
            )
        assert streams[0] == streams[1]
