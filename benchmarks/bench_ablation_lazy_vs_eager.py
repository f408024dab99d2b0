"""Ablation: lazy counterexample enumeration vs eager generator enumeration.

Both are complete for lexicographic linear ranking functions relative to
the same invariants (Ben-Amram & Genaim eagerly compute every vertex/ray;
Termite discovers only the extremal counterexamples it needs), so the
comparison isolates the cost of eagerness: number of generators
materialised and end-to-end time.

A second axis compares warm-started vs cold LP re-solving *within* the
lazy loop: ``lp_mode="incremental"`` keeps one simplex tableau alive per
dimension and re-solves each new generator row from the previous optimal
basis, while ``lp_mode="cold"`` rebuilds the LP from scratch every
iteration (the seed behaviour).  The total pivot counters exposed by
:class:`~repro.core.lp_instance.LpStatistics` make the saving visible.
"""


from repro.api import Analysis, AnalysisConfig, analyze
from repro.baselines import eager_generator_synthesis
from repro.benchsuite import get_suite

PROGRAMS = [p for p in get_suite("termcomp") if p.terminating][:4]


def _run_lazy(lp_mode="incremental"):
    proved = 0
    pivots = 0
    warm = 0
    cold = 0
    for program in PROGRAMS:
        config = AnalysisConfig(check_certificates=False, lp_mode=lp_mode)
        result = analyze(program.build(), tool="termite", config=config)
        proved += int(result.proved)
        pivots += result.lp_statistics.pivots
        warm += result.lp_statistics.warm_solves
        cold += result.lp_statistics.cold_solves
    return proved, pivots, warm, cold


def _run_eager():
    proved = 0
    generators = 0
    for program in PROGRAMS:
        config = AnalysisConfig(check_certificates=False)
        problem = Analysis(program.build(), config=config).problem()
        result = eager_generator_synthesis(problem)
        proved += int(result.proved)
        generators += int(result.details.get("generators", 0))
    return proved, generators


def test_lazy_enumeration(benchmark):
    proved, pivots, warm, cold = benchmark.pedantic(
        _run_lazy, rounds=1, iterations=1
    )
    print(
        "\nlazy (Termite, warm-started LP): proved %d/%d, "
        "%d pivots (%d warm / %d cold solves)"
        % (proved, len(PROGRAMS), pivots, warm, cold)
    )
    assert proved >= 1


def test_lazy_enumeration_cold_lp(benchmark):
    proved, pivots, warm, cold = benchmark.pedantic(
        _run_lazy, args=("cold",), rounds=1, iterations=1
    )
    print(
        "\nlazy (Termite, cold LP rebuilds): proved %d/%d, "
        "%d pivots (%d warm / %d cold solves)"
        % (proved, len(PROGRAMS), pivots, warm, cold)
    )
    assert proved >= 1


def test_warm_start_reduces_pivots():
    """The headline number: warm starts must not cost extra pivots.

    On any program whose counterexample loop iterates, they save a
    multiple; the verdicts must be identical either way.
    """
    proved_warm, pivots_warm, warm_solves, _ = _run_lazy("incremental")
    proved_cold, pivots_cold, _, _ = _run_lazy("cold")
    print(
        "\nwarm-start ablation: %d pivots (warm) vs %d pivots (cold), "
        "%d warm solves" % (pivots_warm, pivots_cold, warm_solves)
    )
    assert proved_warm == proved_cold
    assert pivots_warm < pivots_cold


def test_eager_enumeration(benchmark):
    proved, generators = benchmark.pedantic(_run_eager, rounds=1, iterations=1)
    print(
        "\neager (BG14-style): proved %d/%d using %d generators"
        % (proved, len(PROGRAMS), generators)
    )
    assert proved >= 1
