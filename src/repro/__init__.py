"""Reproduction of "Synthesis of ranking functions using extremal counterexamples".

The package implements the Termite termination analysis (Gonnord,
Monniaux & Radanne, PLDI 2015) and every substrate it needs — exact linear
programming, a lazy optimising SMT solver for linear arithmetic, convex
polyhedra, abstract-interpretation-based invariant generation, a small
imperative front-end — plus the eager and heuristic baselines the paper
compares against and the benchmark suites of its evaluation.

The public surface is the unified analysis API of :mod:`repro.api`: a
typed :class:`AnalysisConfig`, a prover registry (:func:`get_prover` /
:func:`available_provers`), one JSON-serializable :class:`AnalysisResult`
for every tool, and the staged :class:`Analysis` pipeline behind
:func:`analyze` / :func:`analyze_many`.  A ``repro`` command line
(``python -m repro``) sits on top.

Quickstart::

    from repro import AnalysisConfig, analyze

    result = analyze('''
        var x, y;
        assume(y >= 1);
        while (x > 0) { x = x - y; }
    ''', tool="termite", config=AnalysisConfig())
    assert result.proved
    print(result.ranking.pretty())

``docs/MIGRATION.md`` maps the removed historical entry points onto this
API.
"""

from repro.api import (
    Analysis,
    AnalysisConfig,
    AnalysisRequest,
    AnalysisResult,
    AnalysisStatus,
    ConfigError,
    Provenance,
    RequestError,
    analyze,
    analyze_many,
    available_provers,
    get_prover,
    register_prover,
)
from repro.core import LexicographicRankingFunction
from repro.frontend import compile_program, parse_program
from repro.program import AutomatonBuilder, ControlFlowAutomaton, simple_loop

__version__ = "0.3.0"  # keep in sync with pyproject.toml

__all__ = [
    # unified analysis API
    "Analysis",
    "AnalysisConfig",
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisStatus",
    "ConfigError",
    "Provenance",
    "RequestError",
    "analyze",
    "analyze_many",
    "available_provers",
    "get_prover",
    "register_prover",
    "LexicographicRankingFunction",
    # front-end and automata
    "compile_program",
    "parse_program",
    "AutomatonBuilder",
    "ControlFlowAutomaton",
    "simple_loop",
    "__version__",
]
