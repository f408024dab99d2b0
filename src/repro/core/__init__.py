"""The paper's contribution: the data of ranking-function synthesis.

The counterexample-guided loop itself (Algorithms 1–3) lives in
:mod:`repro.synthesis`, and :func:`repro.api.analyze` is the entry point
that drives it.  This package holds what that loop works on:

* :mod:`repro.core.problem` — the termination problem: cut-set, large
  blocks, invariants and the stacked ``u``-space of §5.
* :mod:`repro.core.lp_instance` — ``LP(V, Constraints(I))`` of
  Definition 11 and its statistics (the LP sizes reported in Table 1).
* :mod:`repro.core.ranking` — affine and lexicographic ranking functions.
* :mod:`repro.core.certificate` — an independent checker that the returned
  ranking function really is one (decrease + nonnegativity).
"""

from repro.core.ranking import AffineRankingFunction, LexicographicRankingFunction
from repro.core.problem import TerminationProblem
from repro.core.lp_instance import RankingLp, LpStatistics
from repro.core.certificate import check_certificate
from repro.core.splitting import split_location

__all__ = [
    "AffineRankingFunction",
    "LexicographicRankingFunction",
    "TerminationProblem",
    "RankingLp",
    "LpStatistics",
    "check_certificate",
    "split_location",
]
