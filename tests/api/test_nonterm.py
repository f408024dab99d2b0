"""Nontermination through the API: config knobs, results, pipeline, race."""

import json
from pathlib import Path

import pytest

from repro.api import (
    AnalysisConfig,
    AnalysisResult,
    AnalysisStatus,
    Analysis,
    ConfigError,
    NONTERM_MODES,
    analyze,
    available_provers,
)

NONTERM = "var x; while (x >= 0) { x = x + 1; }"
TERM = "var x; while (x > 0) { x = x - 1; }"
LISTING1 = Path(__file__).resolve().parents[2] / "examples" / "listing1.imp"


class TestConfig:
    def test_default_is_off(self):
        config = AnalysisConfig()
        assert config.nonterm == "off"
        assert config.nonterm_budget == 64

    @pytest.mark.parametrize("mode", NONTERM_MODES)
    def test_modes_round_trip(self, mode):
        config = AnalysisConfig(nonterm=mode, nonterm_budget=7)
        replica = AnalysisConfig.from_json(config.to_json())
        assert replica == config

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(nonterm="race")

    @pytest.mark.parametrize("budget", [0, -1, True, "many"])
    def test_invalid_budget_rejected(self, budget):
        with pytest.raises(ConfigError):
            AnalysisConfig(nonterm_budget=budget)


class TestRegistry:
    def test_termite_advertises_nontermination(self):
        assert "termite" in available_provers("nontermination")

    def test_baselines_do_not(self):
        assert available_provers("nontermination") == ["termite"]


class TestResultSerialisation:
    def test_lasso_round_trips_exactly(self):
        result = analyze(NONTERM, config=AnalysisConfig(nonterm="only"))
        assert result.status is AnalysisStatus.NONTERMINATING
        assert result.lasso is not None
        document = json.loads(result.to_json())
        assert document["lasso"] == result.lasso.to_dict()
        replica = AnalysisResult.from_json(result.to_json())
        assert replica == result
        assert replica.lasso == result.lasso

    def test_lasso_key_absent_without_witness(self):
        result = analyze(TERM)
        assert "lasso" not in result.to_dict()

    def test_disproved_property(self):
        result = AnalysisResult(status="nonterminating")
        assert result.disproved and not result.proved


class TestPipeline:
    def test_only_mode_certifies_the_lasso(self):
        analysis = Analysis(NONTERM, config=AnalysisConfig(nonterm="only"))
        result = analysis.run("termite")
        assert result.status is AnalysisStatus.NONTERMINATING
        assert result.certificate_checked
        assert result.details["lasso_verdict"]["status"] == "valid"
        assert result.stage_seconds("certificate") >= 0
        assert any(stage.name == "certificate" for stage in result.stages)

    def test_only_mode_on_terminating_program_is_unknown(self):
        result = analyze(TERM, config=AnalysisConfig(nonterm="only"))
        assert result.status is AnalysisStatus.UNKNOWN
        assert result.lasso is None

    def test_off_mode_never_attaches_a_lasso(self):
        result = analyze(NONTERM)
        assert result.status is AnalysisStatus.UNKNOWN
        assert result.lasso is None

    def test_baseline_prover_ignores_nonterm(self):
        result = analyze(
            NONTERM, tool="heuristic", config=AnalysisConfig(nonterm="auto")
        )
        assert result.status is AnalysisStatus.UNKNOWN


class TestRace:
    def test_auto_mode_disproves_the_nonterminating_loop(self):
        result = analyze(NONTERM, config=AnalysisConfig(nonterm="auto"))
        assert result.status is AnalysisStatus.NONTERMINATING
        assert result.lasso is not None
        assert result.certificate_checked

    def test_auto_mode_still_proves_the_terminating_loop(self):
        result = analyze(TERM, config=AnalysisConfig(nonterm="auto"))
        assert result.status is AnalysisStatus.TERMINATING
        assert result.ranking is not None
        assert result.certificate_checked

    def test_auto_mode_unknown_keeps_both_messages(self):
        # Neither side can decide this one within the tiny budgets.
        source = (
            "var x, y; while (x + y > 0) "
            "{ x = nondet(); y = nondet(); assume(x + y < 100); }"
        )
        result = analyze(
            source,
            config=AnalysisConfig(
                nonterm="auto", max_iterations=3, nonterm_budget=1
            ),
        )
        assert result.status in (
            AnalysisStatus.UNKNOWN,
            AnalysisStatus.NONTERMINATING,
        )

    def test_acyclic_program_short_circuits(self):
        result = analyze("var x; x = 1;", config=AnalysisConfig(nonterm="auto"))
        assert result.status is AnalysisStatus.TERMINATING


def _fuzz_countdown():
    from repro.checking.generator import ProgramGenerator

    (program,) = ProgramGenerator(1).programs(1)
    assert program.name == "fuzz-1-0-countdown"
    return program.source


class TestRaceCounters:
    """A race result counts the simplex work of both lanes.

    The termination lane wins these programs and runs to completion, so
    an ``auto`` result holds at least the work of the ``off`` one.  The
    nontermination lane makes no SMT calls, so the ``smt_*`` counts agree.
    """

    @pytest.mark.parametrize(
        "source",
        [LISTING1.read_text, _fuzz_countdown],
        ids=["listing1", "fuzz-1-0-countdown"],
    )
    def test_auto_counts_at_least_the_termination_lane(self, source):
        program = source()
        off, auto = (
            analyze(program, config=AnalysisConfig(nonterm=mode))
            for mode in ("off", "auto")
        )
        assert off.proved and auto.proved
        off_lp, auto_lp = off.lp_statistics.to_dict(), auto.lp_statistics.to_dict()
        assert auto_lp["row_pivots"] >= off_lp["row_pivots"]
        assert auto_lp["resolved_exact"] >= off_lp["resolved_exact"]
        smt = [key for key in off_lp if key.startswith("smt_")]
        assert len(smt) == 5
        assert {key: auto_lp[key] for key in smt} == {key: off_lp[key] for key in smt}


class TestCorpusSlice:
    def test_nonterm_certifies_every_verdict(self):
        """``nonterm="only"`` over generated nonterminating gadgets and the
        possibly-nonterminating WTC programs: every NONTERMINATING verdict
        carries a lasso the independent recurrence checker accepted."""
        from repro.benchsuite import get_suite
        from repro.checking.generator import NONTERMINATING, ProgramGenerator

        gadgets = [
            program
            for program in ProgramGenerator(0).programs(60)
            if program.expected == NONTERMINATING
        ][:4]
        wtc = [p for p in get_suite("wtc") if not p.terminating][:2]
        config = AnalysisConfig(nonterm="only")
        nonterminating = 0
        for name, program in [(g.name, g.source) for g in gadgets] + [
            (p.name, p.build()) for p in wtc
        ]:
            result = analyze(program, tool="termite", config=config, name=name)
            assert result.status in (
                AnalysisStatus.NONTERMINATING,
                AnalysisStatus.UNKNOWN,
            ), (name, result.status, result.message)
            if result.disproved:
                nonterminating += 1
                assert result.lasso is not None, name
                assert result.certificate_checked, name
        assert nonterminating > 0
