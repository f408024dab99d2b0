"""Oracle × strategy differential equivalence against the seed path.

Two properties anchor the pluggable engine to the paper's algorithm:

* **Verdict identity** — swapping the counterexample *oracle* (SMT
  extremal search → DD enumeration → seeded sampling) never changes a
  verdict: both alternative oracles back exhaustion with a complete SMT
  check, so every oracle × strategy combination built on them is
  verdict-identical to the seed extremal path on the whole corpus.
* **Soundness under ablation** — the non-extremal *strategies* on the
  SMT oracle (``arbitrary``/``random``) are the paper's §4.2 ablation:
  they are *expected* to cost more iterations and may conclude
  differently (an arbitrary counterexample can escape a dead end the
  extremal heuristic walks into, and conversely can exhaust the budget).
  Whenever they do diverge, the divergence must be sound: every extra
  ``TERMINATING`` verdict carries a ranking the independent Farkas
  checker validates, and a lost verdict is only ever ``UNKNOWN``, never
  a wrong claim.

A seeded fuzz campaign over every combination closes the loop: zero
soundness violations tolerated.
"""

import itertools

import pytest

from repro.api import Analysis, AnalysisConfig
from repro.checking.checker import CertificateVerdict, check_ranking
from repro.checking.corpus import load_corpus
from repro.checking.differential import default_fuzz_config, fuzz

CORPUS = load_corpus("tests/corpus")

#: Combinations that must be verdict-identical to the seed extremal path.
IDENTICAL_COMBOS = [
    ("smt", "extremal"),
    ("dd", "extremal"),
    ("dd", "arbitrary"),
    ("dd", "random"),
    ("sampling", "extremal"),
    ("sampling", "arbitrary"),
    ("sampling", "random"),
]

#: The §4.2 ablation: may diverge, but only soundly.
ABLATION_COMBOS = [
    ("smt", "arbitrary"),
    ("smt", "random"),
]

BASE_CONFIG = AnalysisConfig(
    check_certificates=False, max_iterations=200, max_dimension=4
)


def run_corpus(config):
    """{program: (status, ranking, problem)} over the checked-in corpus."""
    outcomes = {}
    for entry in CORPUS:
        analysis = Analysis(entry.source, config=config, name=entry.name)
        problem = analysis.problem()
        result = analysis.run("termite")
        outcomes[entry.name] = (result.status.value, result.ranking, problem)
    return outcomes


@pytest.fixture(scope="module")
def baseline():
    """The seed path: SMT oracle, extremal counterexamples, one row each."""
    return run_corpus(BASE_CONFIG)


class TestVerdictIdentity:
    @pytest.mark.parametrize("oracle,strategy", IDENTICAL_COMBOS)
    def test_combo_matches_seed_extremal_path(self, baseline, oracle, strategy):
        config = BASE_CONFIG.replace(cex_oracle=oracle, cex_strategy=strategy)
        for name, (status, _, _) in run_corpus(config).items():
            assert status == baseline[name][0], (
                "%s: %s/%s gave %s, seed extremal path gave %s"
                % (name, oracle, strategy, status, baseline[name][0])
            )


class TestAblationSoundness:
    @pytest.mark.parametrize("oracle,strategy", ABLATION_COMBOS)
    def test_divergence_is_only_ever_sound(self, baseline, oracle, strategy):
        config = BASE_CONFIG.replace(cex_oracle=oracle, cex_strategy=strategy)
        for name, (status, ranking, problem) in run_corpus(config).items():
            base_status = baseline[name][0]
            if status == base_status:
                continue
            # Divergences must stay within {unknown, terminating} and a
            # new TERMINATING claim must carry an independently valid
            # certificate — the ablation may cost or gain power, it must
            # never lie.
            assert {status, base_status} <= {"unknown", "terminating"}, (
                "%s: unexpected divergence %s vs %s"
                % (name, status, base_status)
            )
            if status == "terminating":
                assert ranking is not None
                verdict = check_ranking(problem, ranking)
                assert verdict.status == CertificateVerdict.VALID, (
                    "%s: %s/%s proof rejected by the independent checker"
                    % (name, oracle, strategy)
                )


#: The §4.2 ablation as run end to end on the WTC Table-1 slice: the
#: paper's default, the two counterexample-selection ablations and the
#: two alternative oracles.
WTC_ABLATION_VARIANTS = [
    ("smt", "extremal"),
    ("smt", "arbitrary"),
    ("smt", "random"),
    ("dd", "extremal"),
    ("sampling", "random"),
]


class TestWtcAblation:
    def test_cegis_ablation_variants_agree_on_verdicts(self):
        from repro.api import analyze
        from repro.benchsuite import get_suite

        programs = [p for p in get_suite("wtc") if p.terminating][:2]
        proved = {}
        for oracle, strategy in WTC_ABLATION_VARIANTS:
            config = AnalysisConfig(
                check_certificates=False,
                cex_oracle=oracle,
                cex_strategy=strategy,
                oracle_seed=0,
            )
            iterations = cex_rows = oracle_queries = 0
            proved[oracle, strategy] = 0
            for program in programs:
                result = analyze(
                    program.build(), tool="termite", config=config,
                    name=program.name,
                )
                proved[oracle, strategy] += int(result.proved)
                iterations += result.iterations
                cex_rows += result.lp_statistics.cex_rows
                oracle_queries += result.lp_statistics.oracle_queries
            assert iterations > 0, (oracle, strategy)
            assert cex_rows > 0, (oracle, strategy)
            assert oracle_queries >= iterations, (oracle, strategy)
        # The strategies change the cost profile, never the verdicts on
        # this slice: every variant proves the same number of programs.
        assert len(set(proved.values())) == 1, proved


class TestFuzzSeedZero:
    @pytest.mark.parametrize(
        "oracle,strategy",
        list(itertools.product(("smt", "dd", "sampling"),
                               ("extremal", "arbitrary", "random"))),
    )
    def test_no_soundness_violations(self, oracle, strategy):
        config = default_fuzz_config().replace(
            cex_oracle=oracle, cex_strategy=strategy
        )
        report = fuzz(
            seed=0, count=20, tools=["termite"], config=config, shrink=False
        )
        assert report.ok, "violations: %r, build errors: %r" % (
            report.violations,
            report.build_errors,
        )
        assert not report.violations
