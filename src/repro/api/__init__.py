"""The unified analysis API.

Everything an integrator needs sits behind four pillars:

* :class:`AnalysisConfig` — one frozen, validated, JSON round-trippable
  value for every knob of the pipeline;
* the **prover registry** — :func:`get_prover` / :func:`available_provers`
  over the six tools of the evaluation (``termite`` plus five baselines);
* :class:`AnalysisResult` — one JSON-serializable result type for every
  tool, batch runner, and the CLI;
* :class:`Analysis` — the staged pipeline (frontend → invariants → cutset
  → large_block → synthesis → certificate) with per-stage timing,
  observer hooks, and a shared problem cache, topped by the
  :func:`analyze` / :func:`analyze_many` entry points.

Quickstart::

    from repro.api import AnalysisConfig, analyze

    result = analyze(
        "var x; while (x > 0) { x = x - 1; }",
        tool="termite",
        config=AnalysisConfig(lp_mode="incremental"),
    )
    assert result.proved
    print(result.ranking.pretty())
"""

from repro.api.config import (
    AnalysisConfig,
    CEX_ORACLES,
    CEX_STRATEGIES,
    ConfigError,
    DOMAINS,
    NONTERM_MODES,
    SMT_MODES,
)
from repro.api.registry import (
    CAPABILITIES,
    Prover,
    available_provers,
    canonical_name,
    get_prover,
    prover_capabilities,
    prover_summaries,
    register_prover,
)
from repro.api.request import (
    AnalysisRequest,
    RequestError,
    canonical_program_text,
)
from repro.api.result import (
    AnalysisResult,
    AnalysisStatus,
    CACHE_DISPOSITIONS,
    Provenance,
    StageTiming,
    ranking_from_dict,
    ranking_to_dict,
)
from repro.api.pipeline import (
    Analysis,
    BUILD_STAGES,
    EngineObserver,
    STAGES,
    analyze,
    analyze_many,
    results_from_task,
    run_tools_on_program,
)

# Importing the provers module is what populates the registry.
from repro.api import provers as _provers  # noqa: F401

__all__ = [
    "AnalysisConfig",
    "ConfigError",
    "SMT_MODES",
    "DOMAINS",
    "CEX_ORACLES",
    "CEX_STRATEGIES",
    "NONTERM_MODES",
    "CAPABILITIES",
    "Prover",
    "register_prover",
    "get_prover",
    "canonical_name",
    "available_provers",
    "prover_summaries",
    "prover_capabilities",
    "AnalysisRequest",
    "RequestError",
    "canonical_program_text",
    "AnalysisResult",
    "AnalysisStatus",
    "CACHE_DISPOSITIONS",
    "Provenance",
    "StageTiming",
    "ranking_to_dict",
    "ranking_from_dict",
    "Analysis",
    "EngineObserver",
    "STAGES",
    "BUILD_STAGES",
    "analyze",
    "analyze_many",
    "run_tools_on_program",
    "results_from_task",
]
