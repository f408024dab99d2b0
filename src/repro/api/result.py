"""The unified, JSON-serializable analysis result.

One result type for every tool: Termite, the five baselines, the batch
runner, and the CLI all produce :class:`AnalysisResult`.  The baselines'
internal :class:`~repro.baselines.result.BaselineResult` is converted into
it at the prover boundary.

The result round-trips through JSON **exactly**:
``AnalysisResult.from_dict(json.loads(json.dumps(r.to_dict()))) == r``,
including the synthesised ranking function (whose exact-rational
coefficients are serialised as fraction strings) and the LP statistics.
That property is what lets results cross the crash-isolated worker
boundary, land in CI artifacts, and be reloaded for offline analysis
without loss.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from repro.core.lp_instance import LpStatistics
from repro.core.ranking import (
    AffineRankingFunction,
    LexicographicRankingFunction,
)
from repro.linalg.vector import Vector
from repro.nontermination.witness import Lasso


class AnalysisStatus(str, enum.Enum):
    """Outcome classification of one analysis run.

    The enum inherits :class:`str`, so ``result.status == "terminating"``
    keeps working for callers written against the old string field.
    """

    TERMINATING = "terminating"
    NONTERMINATING = "nonterminating"
    UNKNOWN = "unknown"
    ERROR = "error"
    TIMEOUT = "timeout"


@dataclass
class StageTiming:
    """Wall-clock seconds spent in one pipeline stage."""

    name: str
    seconds: float

    def to_dict(self) -> dict:
        return {"name": self.name, "seconds": self.seconds}

    @classmethod
    def from_dict(cls, data: dict) -> "StageTiming":
        return cls(name=data["name"], seconds=data["seconds"])


#: Valid values of :attr:`Provenance.cache`.
CACHE_DISPOSITIONS = ("hit", "miss", "bypass")


@dataclass
class Provenance:
    """How a result was served, stamped by the analysis service.

    Results obtained through direct library calls carry no provenance
    (``result.provenance is None``); the service front door of
    :mod:`repro.service` stamps every response it serves:

    * ``cache`` — ``"hit"`` (served from the content-addressed cache),
      ``"miss"`` (computed, then stored) or ``"bypass"`` (computed with
      caching disabled);
    * ``key`` — the content address (:meth:`repro.api.request.
      AnalysisRequest.cache_key`) of the request;
    * ``revalidated`` — ``True`` iff the independent certificate checker
      re-validated the served certificate (always checked before a proved
      cache hit is served; vacuously true for proved results with no
      proof obligations);
    * ``worker_pid`` — the pid of the process that produced the payload
      (a pool worker on a miss, the serving process on a hit);
    * ``degraded`` — the load-shedding degradations the service applied
      before computing (empty when the request ran exactly as asked).
      Under overload pressure the admission gate may drop a
      ``nonterm="auto"`` race to termination-only
      (``"nonterm:auto->off"``); every such trade is stamped here so a
      caller can always tell a full answer from a degraded one.

    :meth:`from_dict` ignores unknown keys, so provenance written before
    the ``kernel`` field was removed still loads.
    """

    cache: str = "miss"
    key: str = ""
    revalidated: bool = False
    worker_pid: int = 0
    degraded: tuple = ()

    def __post_init__(self) -> None:
        if self.cache not in CACHE_DISPOSITIONS:
            raise ValueError(
                "cache must be one of %s, got %r"
                % (", ".join(CACHE_DISPOSITIONS), self.cache)
            )
        object.__setattr__(self, "degraded", tuple(self.degraded))

    def to_dict(self) -> dict:
        return {
            "cache": self.cache,
            "key": self.key,
            "revalidated": self.revalidated,
            "worker_pid": self.worker_pid,
            "degraded": list(self.degraded),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Provenance":
        return cls(
            cache=data.get("cache", "miss"),
            key=data.get("key", ""),
            revalidated=data.get("revalidated", False),
            worker_pid=data.get("worker_pid", 0),
            degraded=tuple(data.get("degraded", ())),
        )


# -- exact serialisation of ranking functions --------------------------------------


def _fraction_to_str(value: Fraction) -> str:
    return str(value)


def ranking_to_dict(ranking: LexicographicRankingFunction) -> dict:
    """Serialise a ranking function with exact rational coefficients."""
    return {
        "components": [
            {
                "variables": list(component.variables),
                "coefficients": {
                    location: [_fraction_to_str(entry) for entry in vector]
                    for location, vector in component.coefficients.items()
                },
                "offsets": {
                    location: _fraction_to_str(offset)
                    for location, offset in component.offsets.items()
                },
                "strict": component.strict,
            }
            for component in ranking.components
        ]
    }


def ranking_from_dict(data: dict) -> LexicographicRankingFunction:
    """Inverse of :func:`ranking_to_dict` (exact, Fraction-for-Fraction)."""
    components = []
    for entry in data.get("components", []):
        components.append(
            AffineRankingFunction(
                variables=tuple(entry["variables"]),
                coefficients={
                    location: Vector(Fraction(text) for text in entries)
                    for location, entries in entry["coefficients"].items()
                },
                offsets={
                    location: Fraction(text)
                    for location, text in entry["offsets"].items()
                },
                strict=entry.get("strict", False),
            )
        )
    return LexicographicRankingFunction(components)


@dataclass
class AnalysisResult:
    """Outcome of running one prover on one program.

    ``status`` is the single source of truth; ``proved`` is a derived
    view kept for compatibility with the historical result types.
    """

    tool: str = "termite"
    program: str = ""
    status: AnalysisStatus = AnalysisStatus.UNKNOWN
    ranking: Optional[LexicographicRankingFunction] = None
    time_seconds: float = 0.0
    iterations: int = 0
    dimension: int = 0
    lp_statistics: LpStatistics = field(default_factory=LpStatistics)
    certificate_checked: bool = False
    problem_statistics: Dict[str, int] = field(default_factory=dict)
    stages: List[StageTiming] = field(default_factory=list)
    message: str = ""
    error: Optional[str] = None
    timed_out: bool = False
    details: Dict[str, object] = field(default_factory=dict)
    lasso: Optional[Lasso] = None
    provenance: Optional[Provenance] = None

    def __post_init__(self) -> None:
        # Accept plain strings for convenience; store the enum.
        if not isinstance(self.status, AnalysisStatus):
            self.status = AnalysisStatus(self.status)

    # -- derived views -----------------------------------------------------------

    @property
    def proved(self) -> bool:
        return self.status is AnalysisStatus.TERMINATING

    @property
    def disproved(self) -> bool:
        """Whether the analysis established *non*-termination."""
        return self.status is AnalysisStatus.NONTERMINATING

    def stage_seconds(self, name: str) -> float:
        """Total seconds recorded for the stage called *name*."""
        return sum(stage.seconds for stage in self.stages if stage.name == name)

    def __repr__(self) -> str:
        return "AnalysisResult(%s, %s, dim=%d, %.1f ms, LP avg (%.1f, %.1f))" % (
            self.tool,
            self.status.value,
            self.dimension,
            self.time_seconds * 1000.0,
            self.lp_statistics.average_rows,
            self.lp_statistics.average_cols,
        )

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON dictionary; inverse of :meth:`from_dict`.

        ``proved`` and ``time_ms`` are derived convenience keys for
        dashboards and the Table-1 JSON consumers; :meth:`from_dict`
        recomputes them from the raw fields.  The ``lasso`` key is only
        present on NONTERMINATING results, keeping the document shape of
        every pre-existing status byte-identical.
        """
        document = {
            "tool": self.tool,
            "program": self.program,
            "status": self.status.value,
            "proved": self.proved,
            "ranking": ranking_to_dict(self.ranking) if self.ranking is not None else None,
            "time_seconds": self.time_seconds,
            "time_ms": round(self.time_seconds * 1000.0, 3),
            "iterations": self.iterations,
            "dimension": self.dimension,
            "lp": self.lp_statistics.to_dict(),
            "certificate_checked": self.certificate_checked,
            "problem_statistics": dict(self.problem_statistics),
            "stages": [stage.to_dict() for stage in self.stages],
            "message": self.message,
            "error": self.error,
            "timed_out": self.timed_out,
            "details": dict(self.details),
            "provenance": (
                self.provenance.to_dict() if self.provenance is not None else None
            ),
        }
        if self.lasso is not None:
            document["lasso"] = self.lasso.to_dict()
        return document

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisResult":
        ranking = data.get("ranking")
        provenance = data.get("provenance")
        lasso = data.get("lasso")
        return cls(
            tool=data.get("tool", "termite"),
            program=data.get("program", ""),
            status=AnalysisStatus(data.get("status", "unknown")),
            ranking=ranking_from_dict(ranking) if ranking is not None else None,
            time_seconds=data.get("time_seconds", 0.0),
            iterations=data.get("iterations", 0),
            dimension=data.get("dimension", 0),
            lp_statistics=LpStatistics.from_dict(data.get("lp", {})),
            certificate_checked=data.get("certificate_checked", False),
            problem_statistics=dict(data.get("problem_statistics", {})),
            stages=[StageTiming.from_dict(s) for s in data.get("stages", [])],
            message=data.get("message", ""),
            error=data.get("error"),
            timed_out=data.get("timed_out", False),
            details=dict(data.get("details", {})),
            lasso=Lasso.from_dict(lasso) if lasso is not None else None,
            provenance=(
                Provenance.from_dict(provenance) if provenance is not None else None
            ),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisResult":
        return cls.from_dict(json.loads(text))
