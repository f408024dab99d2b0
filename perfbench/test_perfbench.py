"""Tests of the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from metrics import Tally, nearest_rank, span_coverage, spread, tail  # noqa: E402
from spans import (  # noqa: E402
    TASK_SPAN,
    Tracer,
    caller_of,
    covered_seconds,
    layer_totals,
    self_seconds,
)
from workloads import CONTRADICTION, DECIDED, FAILED, UNDECIDED, judge  # noqa: E402


# -- the tail-percentile rule ---------------------------------------------------


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    assert tail(list(range(11))) == (0, pytest.approx(100 / 11))


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(100))
    value, percentile = tail(values)
    assert value == 89
    assert sum(v > value for v in values) == 10
    assert percentile == 90.0


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 0.0, 10.0, 11.0]
    assert tail(values) == (1.0, pytest.approx(100 * 2 / 12))


def test_nearest_rank():
    assert nearest_rank([3, 1, 2], 50) == 2
    assert nearest_rank(list(range(1, 11)), 90) == 9
    assert nearest_rank([7], 90) == 7


def test_spread_is_quartile_distance_over_median():
    assert spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# -- self time -------------------------------------------------------------------


def _span(span_id, parent, name, start, end, thread=1, attr=None):
    return (span_id, parent, name, start, end, thread, "a", attr)


def test_self_time_subtracts_children():
    spans = [
        _span(1, 0, "outer", 0.0, 10.0),
        _span(2, 1, "inner", 1.0, 3.0),
        _span(3, 1, "inner", 4.0, 8.0),
    ]
    selfs = self_seconds(spans)
    assert selfs == {1: pytest.approx(4.0), 2: 2.0, 3: 4.0}


def test_self_time_with_overlapping_thread_spans():
    # Two lanes run at once under one parent (the nonterm race); a third
    # span on another thread overlaps in time but is no descendant.
    spans = [
        _span(1, 0, "prove", 0.0, 10.0, thread=1),
        _span(2, 1, "lane", 1.0, 9.0, thread=2),
        _span(3, 1, "lane", 2.0, 6.0, thread=3),
        _span(4, 0, "other", 0.0, 10.0, thread=4),
        _span(5, 2, "leaf", 2.0, 5.0, thread=2),
    ]
    selfs = self_seconds(spans)
    assert selfs[1] == pytest.approx(2.0)  # the lanes cover 1..9 once
    assert selfs[2] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(10.0)  # not reduced by unrelated spans
    assert all(value >= 0 for value in selfs.values())


def test_covered_seconds_merges_overlaps():
    assert covered_seconds([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered_seconds([]) == 0


def test_layer_totals_count_recursion_once():
    spans = [
        _span(1, 0, "lp", 0.0, 4.0),
        _span(2, 1, "lp", 1.0, 2.0),
        _span(3, 0, "sat", 5.0, 6.0),
    ]
    totals = layer_totals(spans)
    assert totals["lp"]["calls"] == 2
    assert totals["lp"]["incl_s"] == pytest.approx(4.0)
    assert totals["lp"]["self_s"] == pytest.approx(4.0)


def test_caller_is_nearest_layer():
    spans = [
        _span(1, 0, "api.prove.heuristic", 0, 10),
        _span(2, 1, "polyhedra.entails", 1, 2),
        _span(3, 2, "lp.solve_lp", 1, 2),
        _span(4, 1, "lp.solve_lp", 3, 4),
        _span(5, 0, "smt.theory", 5, 6),
        _span(6, 5, "lp.solve_ilp", 5, 6),
        _span(7, 6, "lp.solve_lp", 5, 6),
    ]
    by_id = {span[0]: span for span in spans}
    assert caller_of(by_id[3], by_id) == "polyhedra"
    assert caller_of(by_id[4], by_id) == "baselines"
    assert caller_of(by_id[7], by_id) == "smt_theory"


def test_span_coverage_charges_only_root_glue():
    spans = [
        _span(1, 0, TASK_SPAN, 1.0, 9.0),
        _span(2, 1, "invariants.compute_invariants", 1.0, 4.0),
        _span(3, 1, "api.prove.termite", 4.0, 8.0),
    ]
    assert span_coverage(spans, wall=10.0) == pytest.approx(0.9)


def test_tracer_keeps_one_stack_per_thread():
    tracer = Tracer()
    tracer.reset()

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.wrap("leaf", leaf)

    def lane():
        traced_leaf()

    def prove():
        threads = [threading.Thread(target=lane) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    tracer.wrap("root", prove)()
    root = next(span for span in tracer.spans if span[2] == "root")
    leaves = [span for span in tracer.spans if span[2] == "leaf"]
    assert len(leaves) == 2
    # Each lane's first span hangs under the span open on the task thread.
    assert all(span[1] == root[0] for span in leaves)
    assert len({span[5] for span in leaves}) == 2
    assert len({span[0] for span in tracer.spans}) == 3  # ids are unique
    assert self_seconds(tracer.spans)[root[0]] >= 0


def test_tracer_records_attributes_and_exceptions():
    tracer = Tracer()
    tracer.reset()

    def fails():
        raise ValueError("boom")

    traced = tracer.wrap(
        "f", fails, before=lambda args, kwargs: 3, after=lambda a, k, r, b: b
    )
    with pytest.raises(ValueError):
        traced()
    assert tracer.spans[0][2] == "f"
    assert tracer.spans[0][7] == 3


def test_install_traces_a_real_analysis():
    import run
    import spans

    assert run.use_checkout_source()
    spans.install()
    from repro.api import pipeline

    results = pipeline.run_tools_on_program(
        "var x; while (x > 0) { x = x - 1; }", ["termite"], name="countdown"
    )
    assert results[0].status.value == "terminating"
    shipped = spans.spans_of(results)
    names = {span[2] for span in shipped}
    assert {spans.TASK_SPAN, "api.prove.termite", "smt.theory", "lp.solve_lp"} <= names
    by_id = {span[0]: span for span in shipped}
    callers = {
        caller_of(span, by_id) for span in shipped if span[2] == "lp.solve_lp"
    }
    assert "smt_theory" in callers
    assert all(value > -1e-9 for value in self_seconds(shipped).values())
    assert not spans.spans_of(results)  # shipped once


# -- the failure tally -------------------------------------------------------------


def _result(status, checked=False):
    return SimpleNamespace(status=status, certificate_checked=checked)


@pytest.mark.parametrize(
    "status, checked, expected, outcome",
    [
        ("terminating", True, "terminating", DECIDED),
        ("terminating", False, "terminating", FAILED),
        ("terminating", True, "nonterminating", CONTRADICTION),
        ("nonterminating", True, "terminating", CONTRADICTION),
        ("nonterminating", True, "nonterminating", DECIDED),
        ("nonterminating", False, "unknown", FAILED),
        ("terminating", True, "unknown", DECIDED),
        ("unknown", False, "terminating", UNDECIDED),
        ("timeout", False, "terminating", FAILED),
        ("error", False, "unknown", FAILED),
    ],
)
def test_judge(status, checked, expected, outcome):
    assert judge(_result(status, checked), expected) == outcome


def test_tally_counts_contradictions_as_failures():
    tally = Tally()
    for outcome in (DECIDED, DECIDED, UNDECIDED, FAILED, CONTRADICTION):
        tally.add(outcome)
    assert tally.attempted == 5
    assert tally.decided == 2
    assert tally.failed == 2
    assert tally.contradictions == 1
    assert tally.share(tally.decided) == pytest.approx(0.4)
    assert Tally().share(0) == 0.0
