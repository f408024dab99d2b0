"""The built-in provers, registered under their stable names.

Importing this module (which :mod:`repro.api` does) populates the
registry with the six tools of the evaluation:

========================  =====================================================
``termite``               the paper's lazy counterexample-guided synthesis
``eager_farkas``          Rank/ADFG-style global eager Farkas synthesis
``eager_generators``      Ben-Amram & Genaim-style generator enumeration
``podelski_rybalchenko``  complete monodimensional synthesis (VMCAI 2004)
``heuristic``             Loopus-style syntactic candidate guessing
``dnf``                   per-disjunct greedy lexicographic elimination
========================  =====================================================

Hyphenated spellings (``eager-farkas``, …) are accepted by every lookup
(:func:`repro.api.canonical_name` normalises them) for backwards
compatibility with the historical Table-1 command lines.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.api.config import AnalysisConfig
from repro.api.registry import Prover, register_prover
from repro.api.result import AnalysisResult, AnalysisStatus
from repro.baselines import (
    dnf_prover,
    eager_farkas_lexicographic,
    eager_generator_synthesis,
    heuristic_prover,
    podelski_rybalchenko,
)
from repro.baselines.result import BaselineResult
from repro.core.certificate import check_certificate
from repro.core.lp_instance import LpStatistics
from repro.core.problem import TerminationProblem
from repro.core.ranking import LexicographicRankingFunction
from repro.synthesis.engine import CegisEngine, MaxIterationsExceeded
from repro.synthesis.oracles import make_oracle
from repro.synthesis.strategies import make_strategy
from repro.synthesis.templates import LexicographicTemplate


class TermiteProver(Prover):
    """The paper's contribution: lazy, counterexample-guided synthesis.

    The counterexample source and refinement policy are swappable
    through ``config.cex_oracle`` / ``cex_strategy`` / ``oracle_seed``
    (see :mod:`repro.synthesis`); *observer*, when given, receives the
    engine's per-iteration :class:`~repro.synthesis.engine.CegisEvent`
    stream.
    """

    name = "termite"
    supports_certificates = True
    extra_capabilities = frozenset(
        {
            "cex-oracles",
            "cex-strategies",
            "lp-modes",
            "max-dimension",
            "events",
            "nontermination",
        }
    )
    summary = (
        "lazy multidimensional synthesis from extremal counterexamples "
        "(Gonnord, Monniaux & Radanne, PLDI 2015)"
    )

    def prove(
        self,
        problem: TerminationProblem,
        config: AnalysisConfig,
        observer=None,
        automaton=None,
    ) -> AnalysisResult:
        start = time.perf_counter()
        lp_statistics = LpStatistics()
        if not problem.blocks:
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.TERMINATING,
                ranking=LexicographicRankingFunction(),
                time_seconds=time.perf_counter() - start,
                dimension=0,
                lp_statistics=lp_statistics,
                message="no cycle through the cut-set",
            )
        mode = config.nonterm if automaton is not None else "off"
        if mode == "only":
            return self._prove_nontermination(
                config, automaton, observer, start, lp_statistics
            )
        if mode == "auto":
            return self._race(
                problem, config, automaton, observer, start, lp_statistics
            )
        return self._prove_termination(
            problem, config, observer, start, lp_statistics
        )

    def _prove_termination(
        self,
        problem: TerminationProblem,
        config: AnalysisConfig,
        observer,
        start: float,
        lp_statistics: LpStatistics,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> AnalysisResult:
        template = LexicographicTemplate(
            problem,
            integer_mode=config.integer_mode,
            smt_mode=config.search_mode,
            max_dimension=config.max_dimension,
            lp_mode=config.lp_mode,
        )
        engine = CegisEngine(
            make_oracle(config.cex_oracle, seed=config.oracle_seed),
            make_strategy(config.cex_strategy, seed=config.oracle_seed),
            max_iterations=config.max_iterations,
            lp_mode=config.lp_mode,
            observers=(observer,) if observer is not None else (),
            should_stop=should_stop,
        )
        try:
            outcome = engine.synthesize_lexicographic(
                template, lp_statistics=lp_statistics
            )
        except MaxIterationsExceeded as error:
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.UNKNOWN,
                time_seconds=time.perf_counter() - start,
                lp_statistics=lp_statistics,
                message=str(error),
            )
        elapsed = time.perf_counter() - start
        iterations = sum(
            component.statistics.iterations for component in outcome.components
        )
        if not outcome.success:
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.UNKNOWN,
                time_seconds=elapsed,
                iterations=iterations,
                lp_statistics=lp_statistics,
                message="no lexicographic linear ranking function "
                "relative to the computed invariant",
            )
        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.TERMINATING,
            ranking=outcome.ranking,
            time_seconds=elapsed,
            iterations=iterations,
            dimension=outcome.dimension,
            lp_statistics=lp_statistics,
        )

    def _prove_nontermination(
        self,
        config: AnalysisConfig,
        automaton,
        observer,
        start: float,
        lp_statistics: LpStatistics,
        should_stop: Optional[Callable[[], bool]] = None,
    ) -> AnalysisResult:
        # Imported lazily so the prover table stays importable even if
        # the nontermination package is stripped from a deployment.
        from repro.nontermination import synthesize_recurrence

        outcome = synthesize_recurrence(
            automaton,
            budget=config.nonterm_budget,
            observers=(observer,) if observer is not None else (),
            should_stop=should_stop,
        )
        elapsed = time.perf_counter() - start
        if outcome.success:
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.NONTERMINATING,
                lasso=outcome.lasso,
                time_seconds=elapsed,
                iterations=outcome.iterations,
                lp_statistics=lp_statistics,
                message=outcome.lasso.describe(),
                details={"nonterm": outcome.statistics.to_dict()},
            )
        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.UNKNOWN,
            time_seconds=elapsed,
            iterations=outcome.iterations,
            lp_statistics=lp_statistics,
            message="no recurrence set found (%s)" % outcome.message,
            details={"nonterm": outcome.statistics.to_dict()},
        )

    def _race(
        self,
        problem: TerminationProblem,
        config: AnalysisConfig,
        automaton,
        observer,
        start: float,
        lp_statistics: LpStatistics,
    ) -> AnalysisResult:
        """Race termination against nontermination; first verdict wins.

        Each lane runs in its own thread with a co-operative
        ``should_stop`` hook; the lane that reaches a definitive verdict
        sets the shared event and the loser stands down at its next
        iteration boundary (raising
        :class:`~repro.synthesis.engine.SynthesisCancelled`, absorbed
        here).  Soundness makes the race deterministic: on a given
        program at most one lane can ever succeed, so which thread is
        scheduled first only affects wall time, never the verdict.
        """
        from repro.synthesis.engine import SynthesisCancelled

        stop = threading.Event()
        outcomes: dict = {}

        def lane(label: str, run: Callable[[], AnalysisResult], wins) -> None:
            try:
                result = run()
            except SynthesisCancelled:
                outcomes[label] = None
                return
            except BaseException as error:  # re-raised on the caller thread
                outcomes[label] = error
                stop.set()
                return
            outcomes[label] = result
            if wins(result):
                stop.set()

        threads = [
            threading.Thread(
                target=lane,
                args=(
                    "termination",
                    lambda: self._prove_termination(
                        problem,
                        config,
                        observer,
                        start,
                        lp_statistics,
                        should_stop=stop.is_set,
                    ),
                    lambda result: result.proved,
                ),
                daemon=True,
            ),
            threading.Thread(
                target=lane,
                args=(
                    "nontermination",
                    lambda: self._prove_nontermination(
                        config,
                        automaton,
                        observer,
                        start,
                        lp_statistics,
                        should_stop=stop.is_set,
                    ),
                    lambda result: result.disproved,
                ),
                daemon=True,
            ),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        term = outcomes.get("termination")
        nonterm = outcomes.get("nontermination")
        term_ok = isinstance(term, AnalysisResult) and term.proved
        nonterm_ok = isinstance(nonterm, AnalysisResult) and nonterm.disproved
        if term_ok and nonterm_ok:
            # Both lanes claiming is a soundness bug somewhere; refuse to
            # pick a side so the harness flags it loudly.
            return AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.ERROR,
                time_seconds=time.perf_counter() - start,
                lp_statistics=lp_statistics,
                error="termination and nontermination both claimed a verdict",
            )
        if term_ok:
            return term
        if nonterm_ok:
            return nonterm
        for outcome in (term, nonterm):
            if isinstance(outcome, BaseException):
                raise outcome
        merged = (
            term
            if isinstance(term, AnalysisResult)
            else AnalysisResult(
                tool=self.name,
                status=AnalysisStatus.UNKNOWN,
                lp_statistics=lp_statistics,
            )
        )
        merged.time_seconds = time.perf_counter() - start
        if isinstance(nonterm, AnalysisResult):
            merged.details["nonterm"] = nonterm.details.get("nonterm", {})
            if nonterm.message:
                merged.message = (
                    "%s; %s" % (merged.message, nonterm.message)
                    if merged.message
                    else nonterm.message
                )
        return merged

    def certify(
        self,
        problem: TerminationProblem,
        result: AnalysisResult,
        config: AnalysisConfig,
    ) -> bool:
        if result.ranking is None:
            return False
        return check_certificate(
            problem, result.ranking, integer_mode=config.integer_mode
        )


class BaselineProver(Prover):
    """Adapter putting one baseline function behind the prover interface.

    The baselines are fixed published methods reproduced as-is; the only
    config knob they honour is ``max_dimension`` (where the method is
    lexicographic at all — Podelski–Rybalchenko is inherently
    monodimensional).  Their rankings are certified by the independent
    Farkas checker of :mod:`repro.checking`, whose per-transition
    Definition-6 obligations accept every sound lexicographic style (the
    SMT-based check of :mod:`repro.core.certificate` assumes Termite's
    globally-nonnegative components).
    """

    supports_certificates = True

    def __init__(
        self,
        name: str,
        summary: str,
        function: Callable[..., BaselineResult],
        accepts_max_dimension: bool = True,
    ):
        self.name = name
        self.summary = summary
        self._function = function
        self._accepts_max_dimension = accepts_max_dimension
        self.extra_capabilities = (
            frozenset({"max-dimension"}) if accepts_max_dimension else frozenset()
        )

    def prove(
        self, problem: TerminationProblem, config: AnalysisConfig
    ) -> AnalysisResult:
        kwargs = {}
        if self._accepts_max_dimension and config.max_dimension is not None:
            kwargs["max_dimension"] = config.max_dimension
        outcome = self._function(problem, **kwargs)
        return AnalysisResult(
            tool=self.name,
            status=AnalysisStatus.TERMINATING
            if outcome.proved
            else AnalysisStatus.UNKNOWN,
            ranking=outcome.ranking,
            time_seconds=outcome.time_seconds,
            dimension=outcome.ranking.dimension if outcome.ranking else 0,
            lp_statistics=outcome.lp_statistics,
            details=dict(outcome.details),
        )

    def certify(
        self,
        problem: TerminationProblem,
        result: AnalysisResult,
        config: AnalysisConfig,
    ) -> bool:
        # Imported lazily: repro.checking sits above the api layering.
        from repro.checking.checker import CertificateVerdict, check_ranking

        if result.ranking is None:
            return False
        # Budget overruns surface as an "inconclusive" verdict from
        # check_ranking itself; anything else the checker raises is a
        # checker bug and must propagate loudly (the pipeline records it
        # as an error result) — a second opinion that fails silently is
        # no opinion.  The full verdict lands in the result details so
        # JSON consumers can tell invalid / inconclusive / unchecked
        # apart, not just see certificate_checked=False.
        verdict = check_ranking(
            problem, result.ranking, integer_mode=config.integer_mode
        )
        result.details["certificate_verdict"] = verdict.to_dict()
        return verdict.status == CertificateVerdict.VALID


register_prover(TermiteProver())
register_prover(
    BaselineProver(
        "eager_farkas",
        "eager global Farkas synthesis over the DNF expansion "
        "(Rank / Alias-Darte-Feautrier-Gonnord style)",
        eager_farkas_lexicographic,
    )
)
register_prover(
    BaselineProver(
        "eager_generators",
        "eager vertex/ray enumeration via double description "
        "(Ben-Amram & Genaim style)",
        eager_generator_synthesis,
    )
)
register_prover(
    BaselineProver(
        "podelski_rybalchenko",
        "complete monodimensional linear ranking synthesis (VMCAI 2004)",
        podelski_rybalchenko,
        accepts_max_dimension=False,
    )
)
register_prover(
    BaselineProver(
        "heuristic",
        "Loopus-style syntactic candidate guessing over loop guards",
        heuristic_prover,
    )
)
register_prover(
    BaselineProver(
        "dnf",
        "greedy per-disjunct lexicographic elimination over the eager DNF",
        dnf_prover,
    )
)
