"""Outside-in tracing: spans recorded around calls into the program's layers.

Nothing in the program is changed.  :func:`install` replaces each public
function named in :data:`TARGETS` by a wrapper that records a span, and
rebinds every ``repro.*`` module attribute that still holds the original
object (callers use ``from repro.lp.simplex import solve_lp`` and the
like, so patching the defining module alone would miss them).  Methods
are patched on their class.

A span is the tuple ``(id, parent, name, start, end, thread, analysis,
attr)``.  Every thread keeps its own stack of open spans: the
``nonterm="auto"`` race runs two lanes at once, and one shared stack
would interleave them.  A lane thread's first span takes as its parent
the innermost span open on the thread that runs the task, so the lanes
hang under ``api.prove.termite``.  ``attr`` carries per-call facts read
from the call's arguments or result (a ``solve_lp`` width and pivots,
whether a theory check was satisfiable, ...).

The worker that runs a task ships its spans back to the benchmark on the
task's first result (see :func:`spans_of`).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Attribute under which a task's spans ride back on its first result.
SPANS_ATTR = "_perfbench_spans"

#: Name of the span around one whole task (all tools of one program).
TASK_SPAN = "api.run_tools_on_program"

Span = Tuple[int, int, str, float, float, int, str, object]


class Tracer:
    """Spans of the task running in this process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.analysis = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._task_stack: List[int] = []

    def reset(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self.analysis = ""
        self._local = threading.local()
        self._task_stack = self._stack()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        function: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """*function* recording a span named *name* around every call.

        ``before(args, kwargs)`` runs ahead of the call; ``after(args,
        kwargs, result, before_value)`` computes the span's ``attr``.
        """
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._task_stack and tracer._task_stack:
                parent = tracer._task_stack[-1]
            else:
                parent = 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            prior = before(args, kwargs) if before is not None else None
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attr = (
                    after(args, kwargs, result, prior) if after is not None else None
                )
                tracer.spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        threading.get_ident(),
                        tracer.analysis,
                        attr,
                    )
                )

        return traced


# ---------------------------------------------------------------------------
# what is traced
# ---------------------------------------------------------------------------


def _lp_width(args, kwargs) -> int:
    objective, constraints = args[0], args[1]
    variables = kwargs.get("variables", args[3] if len(args) > 3 else None)
    if variables is None:
        names = set(objective.variables())
        for constraint in constraints:
            names.update(constraint.variables())
        variables = names
    return len(variables) + len(constraints)


def _lp_after(args, kwargs, result, width):
    return (width, result.pivots if result is not None else 0)


def _pivots_before(args, kwargs):
    return args[0].statistics.pivots


def _pivots_after(args, kwargs, result, before):
    return args[0].statistics.pivots - before


def _satisfiable(args, kwargs, result, before):
    return bool(result is not None and result.satisfiable)


def _success(args, kwargs, result, before):
    return bool(result is not None and result.success)


#: ``(span name, module, attribute path, before hook, after hook)``.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable], Optional[Callable]], ...] = (
    ("frontend.compile_program", "repro.frontend.lowering", "compile_program", None, None),
    ("invariants.compute_invariants", "repro.invariants.analyzer", "compute_invariants", None, None),
    ("polyhedra.join", "repro.polyhedra.polyhedron", "Polyhedron.join", None, None),
    ("polyhedra.widen", "repro.polyhedra.polyhedron", "Polyhedron.widen", None, None),
    ("polyhedra.includes", "repro.polyhedra.polyhedron", "Polyhedron.includes", None, None),
    ("polyhedra.fourier_motzkin", "repro.polyhedra.projection", "fourier_motzkin", None, None),
    ("polyhedra.remove_redundant", "repro.polyhedra.projection", "remove_redundant", None, None),
    ("polyhedra.entails", "repro.polyhedra.projection", "entails", None, None),
    ("polyhedra.constraints_to_generators", "repro.polyhedra.dd", "constraints_to_generators", None, None),
    ("synthesis.component", "repro.synthesis.engine", "CegisEngine.synthesize_component", None, None),
    ("smt.optimize", "repro.smt.optimize", "OptimizingSmtSolver.minimize", None, None),
    ("smt.check", "repro.smt.solver", "SmtSolver.check", None, None),
    ("smt.sat", "repro.smt.sat", "SatSolver.solve", None, None),
    ("smt.theory", "repro.smt.theory", "check_conjunction", None, _satisfiable),
    ("lp.solve_lp", "repro.lp.simplex", "solve_lp", _lp_width, _lp_after),
    ("lp.solve_ilp", "repro.lp.branch_bound", "solve_ilp", None, None),
    ("lp.ranking", "repro.core.lp_instance", "RankingLp.solve", _pivots_before, _pivots_after),
    ("core.check_certificate", "repro.core.certificate", "check_certificate", None, None),
    ("checking.check_ranking", "repro.checking.checker", "check_ranking", None, None),
    ("checking.check_recurrence", "repro.checking.recurrence", "check_recurrence", None, None),
    ("nontermination.synthesize_recurrence", "repro.nontermination.engine", "synthesize_recurrence", None, _success),
)

#: Every module that must be loaded before patching, so that each one's
#: imported references to a traced function are found and rebound.
PRELOAD = (
    "repro.api",
    "repro.api.provers",
    "repro.benchsuite",
    "repro.baselines",
    "repro.checking.checker",
    "repro.checking.recurrence",
    "repro.checking.generator",
    "repro.nontermination",
    "repro.lp",
    "repro.polyhedra",
    "repro.smt",
    "repro.synthesis",
)

TRACER = Tracer()
_installed = False


def _rebind(original: object, replacement: object) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def install(tracer: Tracer = TRACER) -> None:
    """Wrap every target (and the task and analysis entry points).

    The wrapping lasts for the life of the process.
    """
    global _installed
    if _installed:
        return
    _installed = True
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    for name, module_name, path, before, after in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = vars(owner)[method]
            setattr(owner, method, tracer.wrap(name, original, before, after))
        else:
            original = getattr(module, path)
            _rebind(original, tracer.wrap(name, original, before, after))
    _install_api(tracer)


def _install_api(tracer: Tracer) -> None:
    from repro.api import available_provers, get_prover, pipeline

    for name in available_provers():
        prover = get_prover(name)
        prover.prove = tracer.wrap("api.prove." + prover.name, prover.prove)

    run = pipeline.Analysis.run

    @functools.wraps(run)
    def traced_run(analysis, tool="termite"):
        tracer.analysis = "%s/%s" % (analysis.name, tool)
        return run(analysis, tool)

    problem = pipeline.Analysis.problem

    @functools.wraps(problem)
    def traced_problem(analysis):
        if not analysis.problem_built:
            tracer.analysis = "%s/build" % analysis.name
        return problem(analysis)

    pipeline.Analysis.run = traced_run
    pipeline.Analysis.problem = traced_problem

    run_tools = pipeline.run_tools_on_program
    traced_tools = tracer.wrap(TASK_SPAN, run_tools)

    @functools.wraps(run_tools)
    def task(*args, **kwargs):
        tracer.reset()
        results = traced_tools(*args, **kwargs)
        if results:
            setattr(results[0], SPANS_ATTR, tracer.spans)
        tracer.reset()
        return results

    _rebind(run_tools, task)


def spans_of(results: Sequence, base: int = 0) -> List[Span]:
    """Remove and return the spans a task shipped back on its results.

    Every task is forked from the same parent, so span ids restart in
    each; they are shifted by *base* to keep them unique across tasks.
    """
    spans: List[Span] = []
    for result in results:
        for span in result.__dict__.pop(SPANS_ATTR, ()):
            parent = span[1] + base if span[1] else 0
            spans.append((span[0] + base, parent) + tuple(span[2:]))
    return spans


# ---------------------------------------------------------------------------
# arithmetic over spans
# ---------------------------------------------------------------------------


def covered_seconds(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of the ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_seconds(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the time its children cover.

    Children are found by their parent link, never by time overlap, so a
    span running concurrently on another thread is not subtracted unless
    it descends from the span; children that overlap each other (the two
    lanes of a race) are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[3], span[4]))
    return {
        span[0]: (span[4] - span[3]) - covered_seconds(children.get(span[0], ()))
        for span in spans
    }


def layer_totals(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``self_s`` and ``incl_s``.

    ``incl_s`` counts a span only when no ancestor has the same name, so
    a recursive layer's time is not counted twice.
    """
    by_id = {span[0]: span for span in spans}
    selfs = self_seconds(spans)
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = totals.setdefault(span[2], {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[span[0]]
        ancestor = by_id.get(span[1])
        while ancestor is not None and ancestor[2] != span[2]:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            entry["incl_s"] += span[4] - span[3]
    return totals


#: Span-name prefixes that count as the calling layer of an LP solve.
CALLERS = (
    ("smt.theory", "smt_theory"),
    ("smt.optimize", "smt_optimize"),
    ("polyhedra.", "polyhedra"),
    ("invariants.", "polyhedra"),
    ("nontermination.", "nontermination"),
    ("api.prove.termite", "other"),
    ("api.prove.", "baselines"),
)


def caller_of(span: Span, by_id: Dict[int, Span]) -> str:
    """The nearest calling layer of *span* (see :data:`CALLERS`)."""
    ancestor = by_id.get(span[1])
    while ancestor is not None:
        for prefix, caller in CALLERS:
            if ancestor[2].startswith(prefix):
                return caller
        ancestor = by_id.get(ancestor[1])
    return "other"
