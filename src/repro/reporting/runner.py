"""Run the provers over benchmark suites and aggregate Table-1 statistics.

The engine behind ``benchmarks/table1.py``, ``repro table1`` and the CI
benchmark smoke job, rebuilt on the unified analysis API: tools are
resolved through the **prover registry** (:func:`repro.api.get_prover` —
no per-tool dispatch glue here), every outcome is a unified
:class:`~repro.api.result.AnalysisResult`, and each scheduled task is
*one program with all requested tools*, so the staged pipeline builds the
:class:`~repro.core.problem.TerminationProblem` (invariants, cut-set,
large blocks) **once per program** and shares it across tools — even
across worker-process boundaries.  The wall-clock that sharing saves is
reported in the JSON summary (``totals.problem_sharing``).

A prover crash or timeout records a failed outcome instead of aborting
the table, and the whole run serialises to machine-readable JSON for CI.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.api.config import AnalysisConfig
from repro.api.pipeline import (
    BUILD_STAGES,
    results_from_task,
    run_tools_on_program,
)
from repro.api.registry import available_provers, canonical_name, get_prover
from repro.api.result import AnalysisResult
from repro.benchsuite.program import BenchmarkProgram
from repro.reporting.parallel import run_tasks


class _ToolsView(Mapping):
    """A live, read-only view of the prover registry.

    Always consistent with :func:`repro.api.available_provers` — provers
    registered after import appear immediately.  Note this intentionally
    differs from the pre-registry shape: keys are canonical underscore
    names (hyphenated spellings still resolve on lookup) and the values
    are :class:`~repro.api.registry.Prover` objects, not
    ``(program, lp_mode)`` callables — see ``docs/MIGRATION.md``.
    """

    def __getitem__(self, name: str):
        return get_prover(name)

    def __iter__(self) -> Iterator[str]:
        return iter(available_provers())

    def __len__(self) -> int:
        return len(available_provers())

    def __repr__(self) -> str:
        return "TOOLS(%s)" % ", ".join(available_provers())


#: The tool column of Table 1 (registry name → prover object), as a live
#: registry view.  Scheduling goes through the registry.
TOOLS: Mapping = _ToolsView()


def _benchmark_config(
    lp_mode: str, config: Optional[AnalysisConfig]
) -> AnalysisConfig:
    """The effective benchmark config.

    With no explicit *config*, benchmark runs measure synthesis, not the
    (separately tested) certifier.  A non-default *lp_mode* combined
    with an explicit *config* is rejected rather than silently dropped —
    a mislabelled warm-vs-cold ablation is worse than an error.
    """
    if config is not None:
        if lp_mode != "incremental":
            raise ValueError(
                "pass lp_mode inside the explicit config (got lp_mode=%r "
                "alongside config with lp_mode=%r)" % (lp_mode, config.lp_mode)
            )
        return config
    return AnalysisConfig(lp_mode=lp_mode, check_certificates=False)


@dataclass
class SuiteReport:
    """Aggregate of one tool over one suite (one cell row of Table 1)."""

    suite: str
    tool: str
    outcomes: List[AnalysisResult] = field(default_factory=list)
    unsound: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def successes(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.proved)

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error is not None)

    @property
    def timeouts(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.timed_out)

    @property
    def average_time_ms(self) -> float:
        if not self.outcomes:
            return 0.0
        return 1000.0 * sum(o.time_seconds for o in self.outcomes) / len(self.outcomes)

    @property
    def average_lp_rows(self) -> float:
        sizes = [
            o.lp_statistics.average_rows
            for o in self.outcomes
            if o.lp_statistics.instances
        ]
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def average_lp_cols(self) -> float:
        sizes = [
            o.lp_statistics.average_cols
            for o in self.outcomes
            if o.lp_statistics.instances
        ]
        return sum(sizes) / len(sizes) if sizes else 0.0

    @property
    def total_pivots(self) -> int:
        return sum(o.lp_statistics.pivots for o in self.outcomes)

    @property
    def warm_solves(self) -> int:
        return sum(o.lp_statistics.warm_solves for o in self.outcomes)

    @property
    def cold_solves(self) -> int:
        return sum(o.lp_statistics.cold_solves for o in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "tool": self.tool,
            "total": self.total,
            "successes": self.successes,
            "failures": self.failures,
            "timeouts": self.timeouts,
            "unsound": list(self.unsound),
            "average_time_ms": round(self.average_time_ms, 3),
            "average_lp_rows": round(self.average_lp_rows, 3),
            "average_lp_cols": round(self.average_lp_cols, 3),
            "total_pivots": self.total_pivots,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
        }


def select_programs(
    programs: Sequence[BenchmarkProgram],
    limit: Optional[int] = None,
    name_filter: Optional[str] = None,
) -> List[BenchmarkProgram]:
    """Apply the harness' program filters (substring match, then limit)."""
    selected = list(programs)
    if name_filter:
        selected = [p for p in selected if name_filter in p.name]
    if limit is not None:
        selected = selected[: max(0, limit)]
    return selected


def _run_cells(
    cells: List[tuple],
    tools: List[str],
    config: AnalysisConfig,
    jobs: int,
    timeout: Optional[float],
) -> Dict[tuple, List[AnalysisResult]]:
    """Execute ``(suite, index, program)`` cells; each runs *all* tools
    sharing one built problem.  Returns per-cell result lists aligned
    with *tools*, keyed by ``(suite, index)`` (positions, not names — two
    same-named programs must not collide)."""
    thunks = [
        functools.partial(run_tools_on_program, program, tools, config)
        for _suite, _index, program in cells
    ]
    tasks = run_tasks(thunks, jobs=jobs, timeout=timeout)
    outcomes: Dict[tuple, List[AnalysisResult]] = {}
    for (suite, index, program), task in zip(cells, tasks):
        outcomes[(suite, index)] = results_from_task(
            task, tools, program.name, timeout
        )
    return outcomes


def _collate(
    suites_programs: Dict[str, List[BenchmarkProgram]],
    tools: List[str],
    cell_outcomes: Dict[tuple, List[AnalysisResult]],
) -> List[SuiteReport]:
    """Group per-program result lists into (suite, tool) reports, ordered
    suite-major then tool, with programs in selection order."""
    reports: List[SuiteReport] = []
    for suite, programs in suites_programs.items():
        for position, tool in enumerate(tools):
            report = SuiteReport(suite=suite, tool=tool)
            for index, program in enumerate(programs):
                outcome = cell_outcomes[(suite, index)][position]
                report.outcomes.append(outcome)
                if outcome.proved and not program.terminating:
                    report.unsound.append(program.name)
            reports.append(report)
    return reports


def run_suite(
    suite: str,
    programs: Sequence[BenchmarkProgram],
    tool: str = "termite",
    limit: Optional[int] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    lp_mode: str = "incremental",
    config: Optional[AnalysisConfig] = None,
) -> SuiteReport:
    """Run *tool* over *programs* and aggregate the Table-1 statistics.

    ``limit`` restricts the run to the first *limit* programs; ``jobs``
    runs that many programs concurrently in crash-isolated processes;
    ``timeout`` kills any single program after that many wall-clock
    seconds and records a failed outcome in its place.  An empty (or
    fully filtered) suite yields an empty report, not an error.
    """
    tools = [canonical_name(tool)]
    selected = select_programs(programs, limit)
    cells = [(suite, index, program) for index, program in enumerate(selected)]
    cell_outcomes = _run_cells(
        cells, tools, _benchmark_config(lp_mode, config), jobs, timeout
    )
    reports = _collate({suite: selected}, tools, cell_outcomes)
    return reports[0]


def run_table1(
    suites: Dict[str, Sequence[BenchmarkProgram]],
    tools: Sequence[str],
    limit: Optional[int] = None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    lp_mode: str = "incremental",
    name_filter: Optional[str] = None,
    config: Optional[AnalysisConfig] = None,
) -> List[SuiteReport]:
    """Run every (suite, tool) cell of Table 1 through one shared task pool.

    One task per *program* covers **all requested tools**: the termination
    problem (invariants + large blocks) is built once inside the worker
    and shared, instead of being rebuilt per tool — the historical
    behaviour this replaces.  ``timeout`` is therefore the per-program
    budget across its tools.  Reports come back grouped and ordered by
    (suite, tool) submission order, programs in selection order,
    deterministically regardless of ``jobs``.
    """
    canonical = [canonical_name(tool) for tool in tools]
    selected_by_suite = {
        suite: select_programs(programs, limit, name_filter)
        for suite, programs in suites.items()
    }
    cells = [
        (suite, index, program)
        for suite, programs in selected_by_suite.items()
        for index, program in enumerate(programs)
    ]
    cell_outcomes = _run_cells(
        cells, canonical, _benchmark_config(lp_mode, config), jobs, timeout
    )
    return _collate(selected_by_suite, canonical, cell_outcomes)


def _problem_sharing_totals(reports: Sequence[SuiteReport]) -> dict:
    """How much wall-clock the shared problem build saved.

    Outcomes of the same (suite, program) across tools carry identical
    build-stage timings (the build ran once); every tool beyond the first
    therefore avoided one rebuild worth ``build_seconds``.  Programs are
    identified by their position within the suite's outcome list (aligned
    across that suite's tools), not by name — two same-named programs
    must not be merged.
    """
    by_program: Dict[tuple, List[AnalysisResult]] = {}
    for report in reports:
        for position, outcome in enumerate(report.outcomes):
            if outcome.stages:  # failed envelopes carry no stage breakdown
                by_program.setdefault((report.suite, position), []).append(
                    outcome
                )
    builds = 0
    reuses = 0
    seconds_saved = 0.0
    for outcomes in by_program.values():
        build_seconds = sum(
            outcomes[0].stage_seconds(stage) for stage in BUILD_STAGES
        )
        builds += 1
        reuses += len(outcomes) - 1
        seconds_saved += build_seconds * (len(outcomes) - 1)
    return {
        "problem_builds": builds,
        "rebuilds_avoided": reuses,
        "seconds_saved": round(seconds_saved, 6),
    }


def reports_to_json_dict(
    reports: Sequence[SuiteReport], meta: Optional[dict] = None
) -> dict:
    """The machine-readable run summary consumed by CI and the dashboards.

    ``schema_version`` 2: outcomes are full
    :meth:`~repro.api.result.AnalysisResult.to_dict` documents (supersets
    of the v1 shape) and ``totals.problem_sharing`` reports the wall-clock
    saved by building each program's termination problem once across
    tools.
    """
    document = {
        "schema_version": 2,
        "generator": "repro.reporting.runner",
        "suites": [report.to_dict() for report in reports],
        "totals": {
            "programs": sum(report.total for report in reports),
            "successes": sum(report.successes for report in reports),
            "failures": sum(report.failures for report in reports),
            "timeouts": sum(report.timeouts for report in reports),
            "unsound": sum(len(report.unsound) for report in reports),
            "total_pivots": sum(report.total_pivots for report in reports),
            "warm_solves": sum(report.warm_solves for report in reports),
            "cold_solves": sum(report.cold_solves for report in reports),
            "problem_sharing": _problem_sharing_totals(reports),
        },
    }
    if meta:
        document["meta"] = dict(meta)
    return document
