"""The benchmark's arithmetic: timing percentiles, the failure tally and
the per-layer metrics derived from spans and from the program's own
counters."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from spans import CALLERS, TASK_SPAN, caller_of, layer_totals, self_seconds
from workloads import CONTRADICTION, DECIDED, FAILED

#: Pipeline stages reported as ``api.stage.<stage>_s``.
STAGES = ("frontend", "invariants", "cutset", "large_block", "synthesis", "certificate")
BUILD_STAGES = STAGES[:4]

#: Tools reported as ``api.prove.<tool>.incl_s``.
TOOLS = (
    "termite",
    "eager_farkas",
    "eager_generators",
    "podelski_rybalchenko",
    "heuristic",
    "dnf",
)

#: Spans reported as ``<span>.{calls,self_s,incl_s}``.
SPAN_LAYERS = (
    "frontend.compile_program",
    "invariants.compute_invariants",
    "polyhedra.join",
    "polyhedra.widen",
    "polyhedra.includes",
    "polyhedra.fourier_motzkin",
    "polyhedra.remove_redundant",
    "polyhedra.entails",
    "polyhedra.constraints_to_generators",
    "synthesis.component",
    "smt.optimize",
    "smt.check",
    "smt.sat",
    "smt.theory",
    "lp.solve_lp",
    "lp.solve_ilp",
    "lp.ranking",
    "core.check_certificate",
    "checking.check_ranking",
    "checking.check_recurrence",
    "nontermination.synthesize_recurrence",
)

LP_CALLERS = tuple(dict.fromkeys(caller for _, caller in CALLERS))

#: ``lp_statistics`` fields summed into per-layer counters.
COUNTERS = (
    ("synthesis.oracle_queries", "oracle_queries"),
    ("synthesis.cex_rows", "cex_rows"),
    ("synthesis.flat_directions", "flat_directions"),
    ("linalg.resolved_packed", "resolved_packed"),
    ("linalg.resolved_exact", "resolved_exact"),
    ("linalg.stacked_pivots", "stacked_pivots"),
    ("linalg.row_pivots", "row_pivots"),
    ("linalg.overflow_fallbacks", "overflow_fallbacks"),
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if "width" in name:
        return "columns"
    return "count"


#: Per-layer metrics where a higher value is better.
HIGHER_IS_BETTER = {
    "polyhedra.lp_saved_ratio",
    "smt.theory.consistent_ratio",
    "nontermination.found_ratio",
    "trace.span_coverage_ratio",
}


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    names = ["api.stage.%s_s" % stage for stage in STAGES]
    names += ["api.prove.%s.incl_s" % tool for tool in TOOLS]
    names.append("reporting.engine_overhead_s")
    for layer in SPAN_LAYERS:
        names += ["%s.calls" % layer, "%s.self_s" % layer, "%s.incl_s" % layer]
    names.append("lp.solve_lp.pivots")
    names += ["lp.solve_lp.by_caller.%s_s" % caller for caller in LP_CALLERS]
    names += ["lp.solve_lp.width_p50", "lp.solve_lp.width_p90", "lp.solve_lp.width_max"]
    names.append("lp.ranking.pivots")
    names.append("polyhedra.lp_saved_ratio")
    names += [name for name, _ in COUNTERS]
    names.append("synthesis.cex_per_component")
    names.append("smt.theory.consistent_ratio")
    names.append("linalg.fallback_ratio")
    names.append("nontermination.found_ratio")
    names += [
        "trace.overhead_ratio",
        "trace.span_coverage_ratio",
        "trace.verdict_mismatches",
    ]
    return names


def per_layer_spec() -> List[dict]:
    """The ``per_layer`` entries of ``BENCHMARK.json``."""
    return [
        {
            "name": name,
            "unit": _unit(name),
            "better": "higher" if name in HIGHER_IS_BETTER else "lower",
        }
        for name in per_layer_names()
    ]


# ---------------------------------------------------------------------------
# end-to-end arithmetic
# ---------------------------------------------------------------------------


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` of the highest percentile that still has at
    least *beyond* samples above it, or ``None`` with too few samples.

    With ``n`` samples that is the ``(n - beyond)``-th smallest, the
    ``100 * (n - beyond) / n``-th percentile.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile of *values* (no interpolation)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


@dataclass
class Tally:
    """Outcomes of the analyses a run attempted."""

    outcomes: Counter = field(default_factory=Counter)

    def add(self, outcome: str) -> None:
        self.outcomes[outcome] += 1

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def decided(self) -> int:
        return self.outcomes[DECIDED]

    @property
    def failed(self) -> int:
        """Errors, timeouts, unchecked certificates and contradictions."""
        return self.outcomes[FAILED] + self.outcomes[CONTRADICTION]

    @property
    def contradictions(self) -> int:
        return self.outcomes[CONTRADICTION]

    def share(self, count: int) -> float:
        return count / self.attempted if self.attempted else 0.0


def task_analysis_seconds(results: Sequence) -> float:
    """Seconds the pipeline itself reports for one task.

    Results of one task share the problem build, whose stage timings
    reappear in each; they are counted once.  A timed-out or crashed task
    reports only its elapsed time.
    """
    if not any(result.stages for result in results):
        return max(result.time_seconds for result in results)
    return sum(stage_seconds(results).values())


def stage_seconds(results: Sequence) -> Dict[str, float]:
    """Per-stage seconds of one task, the shared build counted once."""
    totals = {stage: 0.0 for stage in STAGES}
    for index, result in enumerate(results):
        for stage in result.stages:
            if stage.name in BUILD_STAGES and index > 0:
                continue
            totals[stage.name] = totals.get(stage.name, 0.0) + stage.seconds
    return totals


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(spans: Sequence, tasks: Sequence[Sequence]) -> Dict[str, float]:
    """Per-layer metrics of a traced pass: *spans* of every task, and each
    task's results."""
    metrics: Dict[str, float] = {}
    totals = layer_totals(spans)
    for layer in SPAN_LAYERS:
        entry = totals.get(layer, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        for stat in ("calls", "self_s", "incl_s"):
            metrics["%s.%s" % (layer, stat)] = entry[stat]
    for tool in TOOLS:
        metrics["api.prove.%s.incl_s" % tool] = totals.get(
            "api.prove." + tool, {"incl_s": 0.0}
        )["incl_s"]

    by_id = {span[0]: span for span in spans}
    by_caller = {caller: 0.0 for caller in LP_CALLERS}
    widths: List[int] = []
    lp_pivots = ranking_pivots = 0
    consistent = theory_checks = found = searches = polyhedra_lps = 0
    for span in spans:
        name = span[2]
        if name == "lp.solve_lp":
            width, pivots = span[7]
            widths.append(width)
            lp_pivots += pivots
            parent = by_id.get(span[1])
            if parent is not None and parent[2] in (
                "polyhedra.remove_redundant",
                "polyhedra.entails",
            ):
                polyhedra_lps += 1
            # Nested solves (solve_ilp's relaxations) count by outermost
            # call only, so the split adds up to the layer's time.
            if _has_ancestor(span, by_id, "lp.solve_lp"):
                continue
            by_caller[caller_of(span, by_id)] += span[4] - span[3]
        elif name == "lp.ranking":
            ranking_pivots += span[7] or 0
        elif name == "smt.theory":
            theory_checks += 1
            consistent += bool(span[7])
        elif name == "nontermination.synthesize_recurrence":
            searches += 1
            found += bool(span[7])
    for caller, seconds in by_caller.items():
        metrics["lp.solve_lp.by_caller.%s_s" % caller] = seconds
    metrics["lp.solve_lp.pivots"] = lp_pivots
    metrics["lp.solve_lp.width_p50"] = nearest_rank(widths, 50) if widths else 0
    metrics["lp.solve_lp.width_p90"] = nearest_rank(widths, 90) if widths else 0
    metrics["lp.solve_lp.width_max"] = max(widths) if widths else 0
    metrics["lp.ranking.pivots"] = ranking_pivots
    metrics["smt.theory.consistent_ratio"] = _ratio(consistent, theory_checks)
    metrics["nontermination.found_ratio"] = _ratio(found, searches)

    counters = program_counters(tasks)
    metrics.update(
        (name, counters[name]) for name, _ in COUNTERS
    )
    metrics["synthesis.cex_per_component"] = _ratio(
        counters["synthesis.cex_rows"], metrics["synthesis.component.calls"]
    )
    metrics["linalg.fallback_ratio"] = _ratio(
        counters["linalg.overflow_fallbacks"], counters["linalg.stacked_pivots"]
    )
    saved = counters["polyhedra.lp_saved"]
    metrics["polyhedra.lp_saved_ratio"] = _ratio(saved, saved + polyhedra_lps)
    return metrics


def _has_ancestor(span, by_id, name: str) -> bool:
    ancestor = by_id.get(span[1])
    while ancestor is not None:
        if ancestor[2] == name:
            return True
        ancestor = by_id.get(ancestor[1])
    return False


def program_counters(tasks: Sequence[Sequence]) -> Dict[str, int]:
    """The program's own counters, summed over every analysis.

    ``polyhedra.lp_saved`` takes one value per task (the largest of its
    analyses): each analysis of a task repeats the shared build's share.
    """
    counters = {name: 0 for name, _ in COUNTERS}
    counters["polyhedra.lp_saved"] = 0
    counters["lp_statistics.pivots"] = 0
    for results in tasks:
        for result in results:
            stats = result.lp_statistics
            for name, attribute in COUNTERS:
                counters[name] += getattr(stats, attribute)
            counters["lp_statistics.pivots"] += stats.pivots
        counters["polyhedra.lp_saved"] += max(
            (result.lp_statistics.redundancy_lp_saved for result in results), default=0
        )
    return counters


def stage_metrics(tasks: Sequence[Sequence], wall: float) -> Dict[str, float]:
    """``api.stage.*`` and ``reporting.engine_overhead_s`` of a pass."""
    totals = {stage: 0.0 for stage in STAGES}
    for results in tasks:
        for stage, seconds in stage_seconds(results).items():
            totals[stage] += seconds
    metrics = {"api.stage.%s_s" % stage: totals[stage] for stage in STAGES}
    metrics["reporting.engine_overhead_s"] = wall - sum(
        task_analysis_seconds(results) for results in tasks
    )
    return metrics


def span_coverage(spans: Sequence, wall: float) -> float:
    """Share of *wall* that a layer span or the engine accounts for.

    What a task's root span covers beyond its children is pipeline glue
    that no layer claims; everything else -- layer spans, and engine time
    outside the task -- counts.
    """
    selfs = self_seconds(spans)
    glue = sum(selfs[span[0]] for span in spans if span[2] == TASK_SPAN)
    return _ratio(wall - glue, wall)


def spread(values: Sequence[float]) -> float:
    """Quartile distance of *values* as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return _ratio(q3 - q1, median)
