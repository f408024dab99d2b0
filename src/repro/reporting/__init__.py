"""Result collection and table rendering for the evaluation harness."""

from repro.reporting.parallel import TaskResult, run_tasks
from repro.reporting.runner import (
    SuiteReport,
    TOOLS,
    reports_to_json_dict,
    run_suite,
    run_table1,
)
from repro.reporting.table import format_table, format_table1_row

__all__ = [
    "SuiteReport",
    "TaskResult",
    "run_suite",
    "run_table1",
    "run_tasks",
    "reports_to_json_dict",
    "TOOLS",
    "format_table",
    "format_table1_row",
]
