"""The §9 LP-size comparison: Termite's lazy instances vs Rank's eager ones.

The paper reports that Rank's average LP is (584, 229) rows×columns on the
WTC suite while Termite's is (5, 2): the lazy construction is 1–2 orders
of magnitude smaller.  The benchmark measures both constructions on the
same problems and asserts the ordering (eager ≫ lazy).
"""


from repro.api import Analysis, AnalysisConfig, analyze
from repro.baselines import eager_farkas_lexicographic
from repro.benchsuite import get_suite

PROGRAMS = [p for p in get_suite("wtc") if p.terminating][:4]
CONFIG = AnalysisConfig(check_certificates=False)


def _lazy_sizes():
    rows = cols = count = 0
    for program in PROGRAMS:
        result = analyze(program.build(), tool="termite", config=CONFIG)
        if result.lp_statistics.instances:
            rows += result.lp_statistics.average_rows
            cols += result.lp_statistics.average_cols
            count += 1
    return (rows / count, cols / count) if count else (0.0, 0.0)


def _eager_sizes():
    rows = cols = count = 0
    for program in PROGRAMS:
        problem = Analysis(program.build(), config=CONFIG).problem()
        result = eager_farkas_lexicographic(problem)
        if result.lp_statistics.instances:
            rows += result.lp_statistics.average_rows
            cols += result.lp_statistics.average_cols
            count += 1
    return (rows / count, cols / count) if count else (0.0, 0.0)


def test_lazy_lp_sizes(benchmark):
    rows, cols = benchmark.pedantic(_lazy_sizes, rounds=1, iterations=1)
    print("\nTermite (lazy) average LP size: (%.1f, %.1f)" % (rows, cols))
    assert rows < 50


def test_eager_lp_sizes(benchmark):
    rows, cols = benchmark.pedantic(_eager_sizes, rounds=1, iterations=1)
    print("\nRank-style (eager Farkas) average LP size: (%.1f, %.1f)" % (rows, cols))
    lazy_rows, lazy_cols = _lazy_sizes()
    assert rows > lazy_rows, "eager construction should need more constraint rows"
