"""Tests for the parallel benchmark engine and the reworked suite runner.

Covers the three guarantees of :mod:`repro.reporting.parallel` (hard
timeouts, crash isolation, deterministic ordering) plus the runner-level
robustness requirements: a crashing or hanging benchmark records a failed
:class:`~repro.api.AnalysisResult` instead of aborting the table, empty/filtered
suites produce empty reports, and the JSON serialisation round-trips.
"""

import functools
import json
import os
import time

import pytest

from repro.benchsuite import get_suite
from repro.benchsuite.program import BenchmarkProgram
from repro.reporting import (
    reports_to_json_dict,
    run_suite,
    run_table1,
    run_tasks,
)
from repro.reporting.runner import select_programs


# ---------------------------------------------------------------------------
# Engine-level behaviour (module-level thunk helpers: picklable under any
# start method, inherited directly under fork)
# ---------------------------------------------------------------------------


def _identity(value):
    return value


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


def _raise_value_error():
    raise ValueError("deliberate failure")


def _hard_exit():
    os._exit(3)


class TestRunTasks:
    def test_inline_path_preserves_order_and_values(self):
        thunks = [functools.partial(_identity, i) for i in range(5)]
        results = run_tasks(thunks, jobs=1)
        assert [r.value for r in results] == list(range(5))
        assert all(r.ok for r in results)

    def test_parallel_results_come_back_in_submission_order(self):
        # Later tasks finish first; the result list must not reorder.
        delays = [0.3, 0.2, 0.1, 0.0]
        thunks = [
            functools.partial(_sleep_then_return, delay, index)
            for index, delay in enumerate(delays)
        ]
        results = run_tasks(thunks, jobs=4, timeout=30)
        assert [r.value for r in results] == [0, 1, 2, 3]

    def test_exception_becomes_error_result(self):
        results = run_tasks([_raise_value_error], jobs=2, timeout=30)
        assert results[0].kind == "error"
        assert "deliberate failure" in results[0].message

    def test_inline_exception_becomes_error_result(self):
        results = run_tasks([_raise_value_error], jobs=1)
        assert results[0].kind == "error"

    def test_timeout_kills_the_worker(self):
        thunks = [
            functools.partial(_sleep_then_return, 30, "never"),
            functools.partial(_identity, "fast"),
        ]
        start = time.monotonic()
        results = run_tasks(thunks, jobs=2, timeout=1.0)
        elapsed = time.monotonic() - start
        assert results[0].kind == "timeout"
        assert results[1].ok and results[1].value == "fast"
        assert elapsed < 20  # the sleeper was killed, not awaited

    def test_worker_death_is_reported_as_crash(self):
        results = run_tasks([_hard_exit], jobs=2, timeout=30)
        assert results[0].kind == "crash"
        assert "exit code" in results[0].message

    def test_more_tasks_than_jobs_all_complete(self):
        thunks = [functools.partial(_identity, i) for i in range(10)]
        results = run_tasks(thunks, jobs=3, timeout=60)
        assert [r.value for r in results] == list(range(10))


# ---------------------------------------------------------------------------
# Runner-level behaviour
# ---------------------------------------------------------------------------


def _explosive_automaton():
    raise RuntimeError("this benchmark cannot even be built")


def _sleepy_automaton():
    time.sleep(30)
    raise AssertionError("unreachable: the engine kills us first")


CRASHING = BenchmarkProgram(
    name="crasher", suite="synthetic", terminating=True,
    factory=_explosive_automaton,
)
HANGING = BenchmarkProgram(
    name="hanger", suite="synthetic", terminating=True,
    factory=_sleepy_automaton,
)


class TestRunSuiteRobustness:
    def test_empty_suite_yields_empty_report(self):
        report = run_suite("empty", [], tool="termite")
        assert report.total == 0
        assert report.successes == 0
        assert report.average_time_ms == 0.0
        assert report.unsound == []

    def test_unknown_tool_rejected(self):
        with pytest.raises(KeyError):
            run_suite("wtc", [], tool="no-such-tool")

    def test_crashing_program_records_failed_outcome(self):
        healthy = get_suite("wtc")[:1]
        report = run_suite(
            "mixed", [CRASHING] + healthy, tool="heuristic", jobs=2, timeout=60
        )
        assert report.total == 2
        crashed, ok = report.outcomes
        assert crashed.program == "crasher"
        assert not crashed.proved
        assert "cannot even be built" in crashed.error
        assert ok.error is None

    def test_crashing_program_handled_inline_too(self):
        report = run_suite("mixed", [CRASHING], tool="heuristic")
        assert report.outcomes[0].error is not None

    def test_timeout_records_failed_outcome_in_order(self):
        healthy = get_suite("wtc")[:1]
        report = run_suite(
            "mixed", [HANGING] + healthy, tool="heuristic", jobs=2, timeout=1.0
        )
        assert [o.program for o in report.outcomes] == [
            "hanger",
            healthy[0].name,
        ]
        hung = report.outcomes[0]
        assert hung.timed_out and not hung.proved
        assert "timeout" in hung.error
        assert report.timeouts == 1

    def test_parallel_and_sequential_agree(self):
        programs = get_suite("wtc")[:3]
        sequential = run_suite("wtc", programs, tool="heuristic")
        parallel = run_suite(
            "wtc", programs, tool="heuristic", jobs=3, timeout=120
        )
        assert [o.program for o in sequential.outcomes] == [
            o.program for o in parallel.outcomes
        ]
        assert [o.proved for o in sequential.outcomes] == [
            o.proved for o in parallel.outcomes
        ]


class TestSelectionAndTable1:
    def test_select_programs_filters_then_limits(self):
        programs = get_suite("wtc")
        named = select_programs(programs, name_filter=programs[0].name)
        assert named and all(programs[0].name in p.name for p in named)
        assert select_programs(programs, limit=2) == list(programs)[:2]
        assert select_programs(programs, name_filter="zzz-no-match") == []

    def test_run_table1_emits_empty_rows_for_filtered_cells(self):
        reports = run_table1(
            {"wtc": get_suite("wtc")},
            ["termite", "heuristic"],
            name_filter="zzz-no-match",
        )
        assert [(r.suite, r.tool) for r in reports] == [
            ("wtc", "termite"),
            ("wtc", "heuristic"),
        ]
        assert all(r.total == 0 for r in reports)

    def test_run_table1_groups_and_orders_cells(self):
        suites = {
            "wtc": get_suite("wtc")[:2],
            "sorts": get_suite("sorts")[:1],
        }
        reports = run_table1(suites, ["heuristic"], jobs=2, timeout=120)
        assert [(r.suite, r.tool) for r in reports] == [
            ("wtc", "heuristic"),
            ("sorts", "heuristic"),
        ]
        assert reports[0].total == 2
        assert reports[1].total == 1

    def test_json_document_round_trips(self):
        reports = run_table1(
            {"wtc": get_suite("wtc")[:2]}, ["heuristic"], jobs=2, timeout=120
        )
        document = reports_to_json_dict(reports, meta={"jobs": 2})
        text = json.dumps(document)
        parsed = json.loads(text)
        assert parsed["schema_version"] == 2
        assert parsed["meta"]["jobs"] == 2
        assert parsed["totals"]["programs"] == 2
        suite = parsed["suites"][0]
        assert suite["suite"] == "wtc"
        assert len(suite["outcomes"]) == 2
        for outcome in suite["outcomes"]:
            assert set(outcome) >= {"program", "proved", "time_ms", "lp", "stages"}

    def test_problem_sharing_reported_across_tools(self):
        # Two tools on the same programs: the problem is built once per
        # program and every additional tool's rebuild is accounted as saved.
        reports = run_table1(
            {"wtc": get_suite("wtc")[:2]}, ["heuristic", "dnf"]
        )
        document = reports_to_json_dict(reports)
        sharing = document["totals"]["problem_sharing"]
        assert sharing["problem_builds"] == 2
        assert sharing["rebuilds_avoided"] == 2
        assert sharing["seconds_saved"] > 0.0
        # The shared build stages appear identically in both tools' outcomes.
        heuristic, dnf = reports
        for left, right in zip(heuristic.outcomes, dnf.outcomes):
            build = [s for s in left.stages if s.name != "synthesis"]
            other = [s for s in right.stages if s.name != "synthesis"]
            assert [(s.name, s.seconds) for s in build] == [
                (s.name, s.seconds) for s in other
            ]


class TestToolsViewAndConfig:
    def test_tools_is_a_live_registry_view(self):
        from repro.api import available_provers
        from repro.reporting import TOOLS

        assert list(TOOLS) == available_provers()
        assert "termite" in TOOLS and TOOLS["termite"].name == "termite"
        assert "eager-farkas" in TOOLS  # hyphenated lookups resolve too

    def test_conflicting_lp_mode_and_config_rejected(self):
        from repro.api import AnalysisConfig

        with pytest.raises(ValueError, match="lp_mode"):
            run_suite(
                "wtc", [], tool="termite",
                lp_mode="cold", config=AnalysisConfig(),
            )
