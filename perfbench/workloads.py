"""The benchmark's workloads: which programs, which tools, which config.

A workload turns ``--seed`` into one pass: a fixed program list in an
order drawn from the seed, so every seed measures the same work.  Each
input carries its ground truth, which :func:`judge` holds every verdict
against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

#: The five baselines of Table 1.
BASELINES = (
    "eager_farkas",
    "eager_generators",
    "podelski_rybalchenko",
    "heuristic",
    "dnf",
)

#: ``twosided`` analyses the first programs of one generator seed: nine
#: turns of the generator's seven shapes.  Seed 1 includes the known
#: runaway ``fuzz-1-61-random``, which must show as a timeout.  A fresh
#: draw per benchmark seed spread ``analyses_per_s`` by 17% between seeds.
TWOSIDED_GENERATOR_SEED = 1
TWOSIDED_PROGRAMS = 63

#: ``loopnest`` keeps the loop nests with variables x locations at most
#: this; the larger ones take 7.5-19 s each, so a handful would fill a run.
LOOPNEST_MAX_SIZE = 48


@dataclass
class Input:
    """One program to analyse and what its verdicts must agree with.

    ``expected`` is ``"terminating"``, ``"nonterminating"`` or
    ``"unknown"`` (judged by its certificate alone).
    """

    name: str
    program: object
    expected: str


@dataclass
class Workload:
    name: str
    tools: Sequence[str]
    config: Callable[[], object]
    timeout: float
    #: ``inputs(seed)``: one pass, in an order drawn from the seed.
    inputs: Callable[[int], List[Input]]


def _default_config():
    from repro.api import AnalysisConfig

    return AnalysisConfig()


def _twosided_config():
    from repro.api import AnalysisConfig

    return AnalysisConfig(nonterm="auto", check_certificates=True)


def _suite_inputs(programs) -> List[Input]:
    return [
        Input(
            program.name,
            program,
            "terminating" if program.terminating else "nonterminating",
        )
        for program in programs
    ]


def _shuffled(items: List[Input], seed: int) -> List[Input]:
    random.Random("perfbench:%d" % seed).shuffle(items)
    return items


def wtc_inputs(seed: int) -> List[Input]:
    from repro.benchsuite import get_suite

    return _shuffled(_suite_inputs(get_suite("wtc")), seed)


def loopnest_inputs(seed: int) -> List[Input]:
    from repro.benchsuite import get_suite

    programs = [
        program
        for program in get_suite("sorts") + get_suite("polybench")
        if _size(program) <= LOOPNEST_MAX_SIZE
    ]
    return _shuffled(_suite_inputs(programs), seed)


def _size(program) -> int:
    automaton = program.build()
    return len(automaton.variables) * len(automaton.locations)


def twosided_inputs(seed: int) -> List[Input]:
    from repro.checking.generator import ProgramGenerator

    generator = ProgramGenerator(TWOSIDED_GENERATOR_SEED)
    return _shuffled(
        [
            Input(generated.name, generated.source, generated.expected)
            for generated in generator.programs(TWOSIDED_PROGRAMS)
        ],
        seed,
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("wtc", ("termite",), _default_config, 60.0, wtc_inputs),
        Workload("loopnest", ("termite",), _default_config, 60.0, loopnest_inputs),
        Workload("twosided", ("termite",), _twosided_config, 4.0, twosided_inputs),
        Workload("baselines", BASELINES, _default_config, 60.0, wtc_inputs),
    )
}


# ---------------------------------------------------------------------------
# the verdict and certificate gate
# ---------------------------------------------------------------------------

DECIDED = "decided"
UNDECIDED = "undecided"
FAILED = "failed"
CONTRADICTION = "contradiction"


def judge(result, expected: str) -> str:
    """Classify one analysis against its program's ground truth.

    * ``contradiction`` — a verdict opposite to the ground truth (a
      soundness bug: the benchmark exits non-zero);
    * ``failed`` — an error, a timeout, or a verdict whose certificate
      was not checked (a rejected ranking or a lasso whose replay failed);
    * ``decided`` — a verdict with a checked certificate;
    * ``undecided`` — UNKNOWN.
    """
    status = getattr(result.status, "value", result.status)
    if status in ("terminating", "nonterminating"):
        opposite = "nonterminating" if status == "terminating" else "terminating"
        if expected == opposite:
            return CONTRADICTION
        return DECIDED if result.certificate_checked else FAILED
    if status == "unknown":
        return UNDECIDED
    return FAILED
