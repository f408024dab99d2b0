"""The typed, serializable analysis configuration.

:class:`AnalysisConfig` is the single place every knob of the analysis
pipeline lives.  It is

* **frozen** — a config is a value, safe to share between threads, cache
  keys, and worker processes;
* **validated** — every field is checked at construction time, so a typo
  like ``lp_mode="warm"`` fails immediately with a :class:`ConfigError`
  instead of deep inside the synthesis loop;
* **exactly JSON round-trippable** — ``from_dict(json.loads(json.dumps(
  cfg.to_dict()))) == cfg`` holds field for field, which is what lets a
  config travel through the crash-isolated parallel engine, CI artifacts,
  and the ``repro`` command line unchanged.

Non-serializable inputs (a prepared :class:`~repro.invariants.domain.
AbstractDomain` instance, externally supplied invariants or cut-sets) are
deliberately *not* part of the config; they are advanced overrides passed
directly to :class:`repro.api.pipeline.Analysis`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional

from repro.core.lp_instance import LP_MODES
from repro.smt.optimize import SearchMode
from repro.synthesis.oracles import ORACLE_NAMES
from repro.synthesis.strategies import STRATEGY_NAMES

#: Valid values of :attr:`AnalysisConfig.smt_mode`.
SMT_MODES = tuple(mode.value for mode in SearchMode)

#: Valid values of :attr:`AnalysisConfig.domain`.
DOMAINS = ("polyhedra", "intervals")

#: Valid values of :attr:`AnalysisConfig.cex_oracle`.
CEX_ORACLES = tuple(ORACLE_NAMES)

#: Valid values of :attr:`AnalysisConfig.cex_strategy`.
CEX_STRATEGIES = tuple(STRATEGY_NAMES)

#: Valid values of :attr:`AnalysisConfig.nonterm`.
NONTERM_MODES = ("off", "auto", "only")


class ConfigError(ValueError):
    """An :class:`AnalysisConfig` field failed validation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class AnalysisConfig:
    """Every knob of the termination analysis, as one immutable value.

    ``docs/MIGRATION.md`` maps the keyword arguments of the removed
    ``TerminationProver`` constructor onto these fields and lists every
    knob that was removed.
    """

    #: Counterexample search strategy of the optimising SMT oracle:
    #: ``"local"`` (per-disjunct optimisation) or ``"global"``.
    smt_mode: str = SearchMode.LOCAL.value
    #: How ``LP(V, Constraints(I))`` is re-solved across counterexample
    #: iterations: ``"incremental"`` (warm-started persistent tableau),
    #: ``"cold"`` (rebuild from scratch) or ``"audit"`` (both + cross-check;
    #: also re-checks every incremental SMT conflict core cold).
    lp_mode: str = "incremental"
    #: Tighten strict inequalities over integer-valued variables.
    integer_mode: bool = False
    #: Iteration budget of one monodimensional synthesis loop.
    max_iterations: int = 200
    #: Cap on the lexicographic dimension (``None``: the stacked dimension).
    max_dimension: Optional[int] = None
    #: Independently re-check the synthesised ranking function.
    check_certificates: bool = True
    #: Restrict invariants to the states that can still reach a cycle.
    restrict_to_guarded: bool = True
    #: Abstract domain of the invariant generator: ``"polyhedra"`` or
    #: ``"intervals"``.
    domain: str = "polyhedra"
    #: Counterexample oracle of the CEGIS engine: ``"smt"`` (the paper's
    #: optimising extremal-point query), ``"dd"`` (double-description
    #: vertex/ray enumeration) or ``"sampling"`` (seeded interior points).
    cex_oracle: str = "smt"
    #: Counterexample selection strategy: ``"extremal"`` (the paper's
    #: choice), ``"arbitrary"`` (first found, no optimisation) or
    #: ``"random"`` (seeded pick) — the §4.2 ablation axis.
    cex_strategy: str = "extremal"
    #: Seed of the sampling oracle and the random strategy.
    oracle_seed: int = 0
    #: Nontermination analysis: ``"off"`` (termination only — the
    #: historical behaviour), ``"auto"`` (race recurrence-set synthesis
    #: against termination; first definitive verdict wins) or ``"only"``
    #: (recurrence-set synthesis alone).  Only provers advertising the
    #: ``"nontermination"`` capability honour it.
    nonterm: str = "off"
    #: Cap on recurrence-set candidates (cycle x guard-conjunct x havoc
    #: choice combinations) examined per program.
    nonterm_budget: int = 64

    def __post_init__(self) -> None:
        _require(
            self.smt_mode in SMT_MODES,
            "smt_mode must be one of %s, got %r" % (", ".join(SMT_MODES), self.smt_mode),
        )
        _require(
            self.lp_mode in LP_MODES,
            "lp_mode must be one of %s, got %r" % (", ".join(LP_MODES), self.lp_mode),
        )
        _require(
            isinstance(self.integer_mode, bool),
            "integer_mode must be a bool, got %r" % (self.integer_mode,),
        )
        _require(
            isinstance(self.max_iterations, int)
            and not isinstance(self.max_iterations, bool)
            and self.max_iterations >= 1,
            "max_iterations must be a positive int, got %r" % (self.max_iterations,),
        )
        _require(
            self.max_dimension is None
            or (
                isinstance(self.max_dimension, int)
                and not isinstance(self.max_dimension, bool)
                and self.max_dimension >= 1
            ),
            "max_dimension must be None or a positive int, got %r"
            % (self.max_dimension,),
        )
        _require(
            isinstance(self.check_certificates, bool),
            "check_certificates must be a bool, got %r" % (self.check_certificates,),
        )
        _require(
            isinstance(self.restrict_to_guarded, bool),
            "restrict_to_guarded must be a bool, got %r" % (self.restrict_to_guarded,),
        )
        _require(
            self.domain in DOMAINS,
            "domain must be one of %s, got %r" % (", ".join(DOMAINS), self.domain),
        )
        _require(
            self.cex_oracle in CEX_ORACLES,
            "cex_oracle must be one of %s, got %r"
            % (", ".join(CEX_ORACLES), self.cex_oracle),
        )
        _require(
            self.cex_strategy in CEX_STRATEGIES,
            "cex_strategy must be one of %s, got %r"
            % (", ".join(CEX_STRATEGIES), self.cex_strategy),
        )
        _require(
            isinstance(self.oracle_seed, int)
            and not isinstance(self.oracle_seed, bool)
            and self.oracle_seed >= 0,
            "oracle_seed must be a nonnegative int, got %r"
            % (self.oracle_seed,),
        )
        _require(
            self.nonterm in NONTERM_MODES,
            "nonterm must be one of %s, got %r"
            % (", ".join(NONTERM_MODES), self.nonterm),
        )
        _require(
            isinstance(self.nonterm_budget, int)
            and not isinstance(self.nonterm_budget, bool)
            and self.nonterm_budget >= 1,
            "nonterm_budget must be a positive int, got %r"
            % (self.nonterm_budget,),
        )

    # -- derived views -----------------------------------------------------------

    @property
    def search_mode(self) -> SearchMode:
        """The :attr:`smt_mode` as the solver's :class:`SearchMode` enum."""
        return SearchMode(self.smt_mode)

    def replace(self, **changes) -> "AnalysisConfig":
        """A copy with *changes* applied (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """A plain-JSON dictionary; inverse of :meth:`from_dict`."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Unknown keys are rejected (a config written by a newer version
        must not be silently misread), missing keys take their defaults.
        """
        if not isinstance(data, dict):
            raise ConfigError("config must be a dict, got %r" % type(data).__name__)
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError("invalid config JSON: %s" % error) from None
        return cls.from_dict(data)
