"""The pluggable CEGIS synthesis engine.

This package owns the counterexample-guided loop of the paper
(Algorithms 1–3), decomposed into swappable pieces:

* :mod:`repro.synthesis.engine` — the loop itself (budgets, flat-basis
  bookkeeping, per-iteration events) plus the greedy elimination loop
  the eager baselines share;
* :mod:`repro.synthesis.oracles` — where counterexamples come from
  (optimising SMT, double-description enumeration, seeded sampling);
* :mod:`repro.synthesis.strategies` — which counterexamples become LP
  rows (extremal / arbitrary / random selection);
* :mod:`repro.synthesis.templates` — the candidate spaces (linear
  per-cutpoint, lexicographic multidimensional).

The ``termite`` prover of :mod:`repro.api.provers` assembles these
pieces; the ``cex_oracle`` / ``cex_strategy`` / ``oracle_seed`` fields
of :class:`repro.api.AnalysisConfig` (and the matching ``repro prove
--oracle/--cex-strategy`` flags) select them end to end.
"""

from repro.synthesis.engine import (
    CegisEngine,
    CegisEvent,
    CegisObserver,
    MaxIterationsExceeded,
    MonodimResult,
    MonodimStatistics,
    MultidimResult,
    SynthesisCancelled,
    eliminate_lexicographic,
)
from repro.synthesis.oracles import (
    CounterexampleOracle,
    DdEnumerationOracle,
    ORACLE_NAMES,
    OracleRequest,
    SamplingOracle,
    SmtOptimizingOracle,
    Witness,
    avoid_space,
    make_oracle,
)
from repro.synthesis.strategies import (
    ArbitraryStrategy,
    ExtremalStrategy,
    RandomStrategy,
    RefinementStrategy,
    STRATEGY_NAMES,
    make_strategy,
)
from repro.synthesis.templates import LexicographicTemplate, LinearTemplate

__all__ = [
    "CegisEngine",
    "CegisEvent",
    "CegisObserver",
    "MaxIterationsExceeded",
    "MonodimResult",
    "MonodimStatistics",
    "MultidimResult",
    "SynthesisCancelled",
    "eliminate_lexicographic",
    "CounterexampleOracle",
    "OracleRequest",
    "Witness",
    "SmtOptimizingOracle",
    "DdEnumerationOracle",
    "SamplingOracle",
    "ORACLE_NAMES",
    "avoid_space",
    "make_oracle",
    "RefinementStrategy",
    "ExtremalStrategy",
    "ArbitraryStrategy",
    "RandomStrategy",
    "STRATEGY_NAMES",
    "make_strategy",
    "LinearTemplate",
    "LexicographicTemplate",
]
