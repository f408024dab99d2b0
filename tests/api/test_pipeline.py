"""The staged pipeline: hook ordering, problem caching, batch execution."""

import pytest

from repro.api import (
    Analysis,
    AnalysisConfig,
    STAGES,
    analyze_many,
)
from repro.api.pipeline import run_tools_on_program
from repro.frontend import compile_program

COUNTDOWN = "var x; while (x > 0) { x = x - 1; }"
NESTED = """
var i, j, n;
assume(n >= 0 and n <= 1000);
i = 0;
while (i < n) {
    j = 0;
    while (j < n) { j = j + 1; }
    i = i + 1;
}
"""


class TestStageHooks:
    def test_events_arrive_in_pipeline_order(self):
        events = []
        analysis = Analysis(
            COUNTDOWN,
            observers=[lambda event, stage, seconds: events.append((event, stage))],
        )
        analysis.run("termite")
        expected = []
        for stage in STAGES:
            expected.extend([("start", stage), ("end", stage)])
        assert events == expected

    def test_end_events_carry_seconds(self):
        seconds = []
        analysis = Analysis(
            COUNTDOWN,
            observers=[
                lambda event, stage, elapsed: seconds.append(elapsed)
                if event == "end"
                else None
            ],
        )
        analysis.run("termite")
        assert len(seconds) == len(STAGES)
        assert all(value >= 0.0 for value in seconds)

    def test_certificate_stage_skipped_when_disabled(self):
        events = []
        analysis = Analysis(
            COUNTDOWN,
            config=AnalysisConfig(check_certificates=False),
            observers=[lambda event, stage, seconds: events.append(stage)],
        )
        result = analysis.run("termite")
        assert result.proved
        assert "certificate" not in events

    def test_build_stages_fire_once_across_tools(self):
        events = []
        analysis = Analysis(
            COUNTDOWN,
            observers=[
                lambda event, stage, seconds: events.append(stage)
                if event == "start"
                else None
            ],
        )
        analysis.run("termite")
        analysis.run("heuristic")
        assert events.count("invariants") == 1
        assert events.count("synthesis") == 2


class TestProblemCache:
    def test_problem_is_cached_and_shared(self):
        analysis = Analysis(NESTED)
        first = analysis.problem()
        assert analysis.problem_built
        assert analysis.problem() is first
        analysis.run("heuristic")
        assert analysis.problem() is first

    def test_results_share_build_timings(self):
        analysis = Analysis(NESTED, config=AnalysisConfig(check_certificates=False))
        termite = analysis.run("termite")
        heuristic = analysis.run("heuristic")
        build = [(s.name, s.seconds) for s in termite.stages if s.name != "synthesis"]
        other = [(s.name, s.seconds) for s in heuristic.stages if s.name != "synthesis"]
        assert build == other
        assert analysis.build_seconds() > 0

    def test_automaton_input_records_zero_cost_frontend(self):
        automaton = compile_program(COUNTDOWN, "countdown")
        result = Analysis(automaton).run("termite")
        assert result.stage_seconds("frontend") == 0.0
        assert result.proved

    def test_rejects_unknown_program_type(self):
        with pytest.raises(TypeError):
            Analysis(42)


class TestProjectionSavingsAttribution:
    def test_build_savings_reappear_in_every_result(self):
        # Like the shared build-stage timings, the LP calls the pruned
        # projection saved while building the problem belong to every
        # result of the Analysis, not just whichever tool ran first.
        analysis = Analysis(
            NESTED,
            config=AnalysisConfig(check_certificates=False),
            name="nested",
        )
        first = analysis.run("termite")
        second = analysis.run("heuristic")
        build_share = analysis._build_lp_saved
        assert build_share > 0
        assert first.lp_statistics.redundancy_lp_saved >= build_share
        assert second.lp_statistics.redundancy_lp_saved >= build_share


class TestBatchExecution:
    def test_run_tools_on_program_shares_one_build(self):
        results = run_tools_on_program(
            COUNTDOWN, ["termite", "heuristic", "dnf"],
            AnalysisConfig(check_certificates=False), name="countdown",
        )
        assert [r.tool for r in results] == ["termite", "heuristic", "dnf"]
        assert all(r.proved for r in results)
        builds = {
            tuple(
                (s.name, s.seconds) for s in r.stages if s.name != "synthesis"
            )
            for r in results
        }
        assert len(builds) == 1  # one shared problem build

    def test_build_failure_yields_error_result_per_tool(self):
        results = run_tools_on_program(
            "var x; while (", ["termite", "heuristic"], name="broken"
        )
        assert len(results) == 2
        assert all(r.status == "error" for r in results)
        assert all(r.error for r in results)

    def test_analyze_many_is_program_major_and_deterministic(self):
        inline = analyze_many(
            [COUNTDOWN, NESTED], tools=["heuristic", "dnf"],
            names=["countdown", "nested"],
        )
        assert [(r.program, r.tool) for r in inline] == [
            ("countdown", "heuristic"),
            ("countdown", "dnf"),
            ("nested", "heuristic"),
            ("nested", "dnf"),
        ]
        parallel = analyze_many(
            [COUNTDOWN, NESTED], tools=["heuristic", "dnf"],
            names=["countdown", "nested"], jobs=2, timeout=120,
        )
        assert [(r.program, r.tool, r.proved) for r in parallel] == [
            (r.program, r.tool, r.proved) for r in inline
        ]
