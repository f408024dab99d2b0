"""Regression tests: the incremental (warm-started) ranking LP.

The contract: across the whole counterexample loop, warm-started solves
of ``LP(V, Constraints(I))`` return the exact optimum (Fraction equality)
of the from-scratch formulation, the provers' verdicts are identical in
every mode, and the warm path spends fewer simplex pivots than rebuilding
cold each iteration.  ``mode="audit"`` enforces the optimum equality
inside :class:`RankingLp` itself — every solve shadow-solves cold and
raises on any mismatch — so simply running the prover in audit mode *is*
the bit-exactness check.
"""

import pytest

from repro.api import Analysis, AnalysisConfig, analyze
from repro.benchsuite import get_suite
from repro.core.lp_instance import LP_MODES, LpStatistics, RankingLp
from repro.synthesis.engine import CegisEngine
from repro.synthesis.oracles import make_oracle
from repro.synthesis.strategies import make_strategy
from repro.synthesis.templates import LexicographicTemplate, LinearTemplate


def _problem(automaton):
    return Analysis(automaton, config=AnalysisConfig(check_certificates=False)).problem()


def _engine(lp_mode):
    return CegisEngine(make_oracle("smt"), make_strategy("extremal"), lp_mode=lp_mode)


def synthesize_component(problem, lp_mode="incremental"):
    return _engine(lp_mode).synthesize_component(LinearTemplate(problem))


def synthesize_lexicographic(problem, lp_mode="incremental", lp_statistics=None):
    return _engine(lp_mode).synthesize_lexicographic(
        LexicographicTemplate(problem), lp_statistics=lp_statistics
    )


def _prove(automaton, **config):
    return analyze(automaton, tool="termite", config=AnalysisConfig(**config))


class TestRankingLpModes:
    def test_unknown_mode_rejected(self, countdown_automaton):
        with pytest.raises(ValueError):
            RankingLp(_problem(countdown_automaton), mode="lukewarm")

    def test_modes_are_exported(self):
        assert set(LP_MODES) == {"incremental", "cold", "audit"}

    def test_incremental_solution_matches_cold(self, example1_automaton):
        """Same generators in, same optimum out, fewer pivots spent."""
        problem = _problem(example1_automaton)
        warm_stats, cold_stats = LpStatistics(), LpStatistics()
        warm = RankingLp(problem, warm_stats, mode="incremental")
        cold = RankingLp(problem, cold_stats, mode="cold")

        from repro.linalg.vector import Vector
        from fractions import Fraction

        generators = [
            Vector([Fraction(1), Fraction(-1)] + [Fraction(0)] * (problem.stacked_dimension - 2)),
            Vector([Fraction(-1), Fraction(-1)] + [Fraction(0)] * (problem.stacked_dimension - 2)),
        ]
        for generator in generators:
            warm.add_counterexample(generator)
            cold.add_counterexample(generator)
            warm_solution = warm.solve()
            cold_solution = cold.solve()
            assert sum(warm_solution.deltas) == sum(cold_solution.deltas)
            assert warm_solution.all_gamma_zero == cold_solution.all_gamma_zero
        assert warm_stats.warm_solves == 1
        assert warm_stats.cold_solves == 1
        assert cold_stats.warm_solves == 0
        assert warm_stats.pivots <= cold_stats.pivots


class TestAuditModeAcrossTheLoop:
    """audit mode raises on any warm/cold divergence — none may occur."""

    def test_monodim_loop_audits_clean(self, example1_automaton):
        problem = _problem(example1_automaton)
        result = synthesize_component(problem, lp_mode="audit")
        lp = result.statistics.lp
        assert lp.pivots_saved >= 0
        assert lp.warm_solves + lp.cold_solves == lp.instances

    def test_multidim_loop_audits_clean(self, lexicographic_automaton):
        problem = _problem(lexicographic_automaton)
        shared = LpStatistics()
        result = synthesize_lexicographic(
            problem, lp_mode="audit", lp_statistics=shared
        )
        assert result.success
        assert shared.instances >= 1

    @pytest.mark.parametrize("suite,count", [("termcomp", 6), ("wtc", 6)])
    def test_provers_audit_clean_on_benchmarks(self, suite, count):
        warm_solves = 0
        for program in get_suite(suite)[:count]:
            result = _prove(
                program.build(), check_certificates=False, lp_mode="audit"
            )
            assert result.status in ("terminating", "unknown")
            assert result.lp_statistics.pivots_saved >= 0
            warm_solves += result.lp_statistics.warm_solves
        # The slice contains programs whose loops iterate, so warm
        # restarts must actually have happened (and audited clean).
        assert warm_solves >= 1


class TestVerdictsAndSavings:
    def test_identical_verdicts_and_fewer_pivots_on_benchmarks(self):
        """The acceptance criterion, in miniature: same verdicts, fewer
        total pivots, on a representative slice of two suites."""
        total_warm = total_cold = 0
        for suite in ("termcomp", "wtc"):
            for program in get_suite(suite)[:6]:
                warm = _prove(
                    program.build(), check_certificates=True, lp_mode="incremental"
                )
                cold = _prove(
                    program.build(), check_certificates=True, lp_mode="cold"
                )
                assert warm.proved == cold.proved, program.name
                total_warm += warm.lp_statistics.pivots
                total_cold += cold.lp_statistics.pivots
        assert total_warm < total_cold

    def test_monodim_statistics_carry_lp_counters(self, countdown_automaton):
        problem = _problem(countdown_automaton)
        result = synthesize_component(problem)
        lp = result.statistics.lp
        assert lp.instances >= 1
        assert lp.cold_solves >= 1
        assert lp.pivots == lp.pivots  # present and an int
        assert isinstance(lp.pivots, int)

    def test_shared_statistics_accumulate_across_dimensions(
        self, lexicographic_automaton
    ):
        problem = _problem(lexicographic_automaton)
        shared = LpStatistics()
        result = synthesize_lexicographic(problem, lp_statistics=shared)
        assert result.success
        per_component = LpStatistics()
        for component in result.components:
            per_component.merge(component.statistics.lp)
        assert shared.instances == per_component.instances
        assert shared.pivots == per_component.pivots
        assert shared.warm_solves == per_component.warm_solves


class TestStatisticsSurviveIterationBudget:
    def test_lp_statistics_merged_when_budget_blows(self, example3_automaton):
        """Hitting max_iterations must not lose the LP work already done."""
        result = _prove(
            example3_automaton, check_certificates=False, max_iterations=1
        )
        assert result.status == "unknown"
        assert result.lp_statistics.instances >= 1
        assert result.lp_statistics.cold_solves >= 1


class TestStatisticsMergeAndSerialisation:
    def test_merge_includes_solver_counters(self):
        a, b = LpStatistics(), LpStatistics()
        a.record_solve(5, warm=False)
        b.record_solve(2, warm=True)
        b.pivots_saved = 3
        a.merge(b)
        assert a.pivots == 7
        assert a.warm_solves == 1
        assert a.cold_solves == 1
        assert a.pivots_saved == 3


class TestRepeatSolveAccounting:
    def test_cached_resolve_not_double_counted(self, example1_automaton):
        """A repeat solve with no new counterexample reuses the cached
        optimum and must not inflate the pivot/solve counters."""
        from fractions import Fraction

        from repro.linalg.vector import Vector

        problem = _problem(example1_automaton)
        statistics = LpStatistics()
        lp = RankingLp(problem, statistics, mode="incremental")
        lp.add_counterexample(
            Vector(
                [Fraction(1), Fraction(-1)]
                + [Fraction(0)] * (problem.stacked_dimension - 2)
            )
        )
        first = lp.solve()
        pivots = statistics.pivots
        solves = statistics.warm_solves + statistics.cold_solves
        instances = statistics.instances
        second = lp.solve()
        assert second.gammas == first.gammas and second.deltas == first.deltas
        assert statistics.pivots == pivots
        assert statistics.warm_solves + statistics.cold_solves == solves
        assert statistics.instances == instances

    def test_audit_mode_repeat_solve_does_not_inflate_savings(
        self, example1_automaton
    ):
        from fractions import Fraction

        from repro.linalg.vector import Vector

        problem = _problem(example1_automaton)
        statistics = LpStatistics()
        lp = RankingLp(problem, statistics, mode="audit")
        lp.add_counterexample(
            Vector(
                [Fraction(1), Fraction(-1)]
                + [Fraction(0)] * (problem.stacked_dimension - 2)
            )
        )
        lp.solve()
        saved = statistics.pivots_saved
        instances = statistics.instances
        lp.solve()  # cached: no shadow cold solve, no extra instance
        assert statistics.pivots_saved == saved
        assert statistics.instances == instances
