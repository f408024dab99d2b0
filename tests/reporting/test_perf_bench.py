"""The ``repro bench`` micro-suite and its JSON schema."""

import json
import subprocess
import sys

import pytest

from repro.reporting.perf import (
    CEGIS_ABLATION_VARIANTS,
    DEFAULT_SUITES,
    SCHEMA_VERSION,
    SUITE_RUNNERS,
    bench_cegis_ablation,
    bench_nonterm,
    bench_projection,
    bench_service,
    bench_simplex,
    merge_bench_documents,
    run_suite,
)

EXPECTED_SUITES = {
    "simplex",
    "projection",
    "table1_wtc",
    "cegis_ablation",
}


class TestSuites:
    def test_simplex_reports_pivots(self):
        report = bench_simplex(quick=True)
        assert report["lps_solved"] > 0
        assert report["pivots"] > 0
        assert report["warm_solves"] > 0

    def test_projection_reports_eliminations(self):
        report = bench_projection(quick=True)
        assert report["variables_eliminated"] > 0
        assert report["rows_eliminated"] >= 0
        assert report["lp_calls_saved"] >= 0

    def test_run_suite_document_shape(self):
        document = run_suite(quick=True)
        assert document["schema_version"] == SCHEMA_VERSION
        assert document["quick"] is True
        names = {suite["suite"] for suite in document["suites"]}
        assert names == EXPECTED_SUITES
        assert document["total_wall_seconds"] >= 0
        wtc = next(
            suite
            for suite in document["suites"]
            if suite["suite"] == "table1_wtc"
        )
        assert wtc["proved"] > 0

    def test_cegis_ablation_variants_agree_on_verdicts(self):
        report = bench_cegis_ablation(quick=True)
        assert report["suite"] == "cegis_ablation"
        variants = report["variants"]
        assert {(v["oracle"], v["strategy"]) for v in variants} == set(
            CEGIS_ABLATION_VARIANTS
        )
        # The strategies change the cost profile, never the verdicts on
        # this slice — every variant proves the same programs.
        assert len({v["proved"] for v in variants}) == 1
        for variant in variants:
            assert variant["iterations"] > 0
            assert variant["lp_rows"] > 0
            assert variant["oracle_queries"] >= variant["iterations"]

    def test_nonterm_certifies_every_verdict(self):
        report = bench_nonterm(quick=True)
        assert report["suite"] == "nonterm"
        assert report["nonterminating"] > 0
        assert report["errors"] == 0
        assert report["lassos_checked"] == report["nonterminating"]
        assert report["lassos_valid"] == report["lassos_checked"]

    def test_deterministic_counters_across_runs(self):
        # Wall-clock varies; the seeded workload counters must not.
        first = bench_simplex(quick=True, seed=5)
        second = bench_simplex(quick=True, seed=5)
        assert first["pivots"] == second["pivots"]
        assert first["lps_solved"] == second["lps_solved"]


class TestSuiteSelection:
    def test_default_suites_match_the_committed_document(self):
        assert set(DEFAULT_SUITES) == EXPECTED_SUITES
        # service, nonterm and service_chaos are opt-in suites: runnable
        # by name, kept out of the default selection (and so out of CI's
        # perf smoke).
        assert set(DEFAULT_SUITES) | {
            "service", "nonterm", "service_chaos"
        } == set(
            SUITE_RUNNERS
        )

    def test_run_suite_with_a_selection(self):
        document = run_suite(quick=True, suites=["simplex"])
        assert [s["suite"] for s in document["suites"]] == ["simplex"]

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite(quick=True, suites=["simplex", "nope"])

    def test_merge_replaces_and_preserves(self):
        previous = {
            "schema_version": SCHEMA_VERSION,
            "quick": False,
            "seed": 0,
            "total_wall_seconds": 3.0,
            "suites": [
                {"suite": "projection", "wall_seconds": 1.0, "operations": 9},
                {"suite": "simplex", "wall_seconds": 2.0},
            ],
            "baseline": {"kept": True},
        }
        current = {
            "schema_version": SCHEMA_VERSION,
            "quick": True,
            "seed": 7,
            "total_wall_seconds": 0.5,
            "suites": [
                {"suite": "simplex", "wall_seconds": 0.25},
                {"suite": "service", "wall_seconds": 0.25},
            ],
        }
        merged = merge_bench_documents(previous, current)
        assert [s["suite"] for s in merged["suites"]] == [
            "projection",
            "simplex",
            "service",
        ]
        assert merged["suites"][1]["wall_seconds"] == 0.25
        assert merged["suites"][0]["operations"] == 9
        assert merged["baseline"] == {"kept": True}
        assert merged["quick"] is True and merged["seed"] == 7
        assert merged["total_wall_seconds"] == 1.5
        # The inputs are not mutated.
        assert previous["suites"][1]["wall_seconds"] == 2.0


class TestServiceSuite:
    def test_quick_service_bench_holds_the_headline_claims(self):
        report = bench_service(quick=True)
        assert report["suite"] == "service"
        assert report["cold_requests"] > 0 and report["warm_requests"] > 0
        # Every cold request misses, every warm request is a served hit.
        assert report["cache_misses"] == report["cold_requests"]
        assert report["cache_hits"] == report["warm_requests"]
        # The committed acceptance claims, counted rather than timed: a
        # warm hit is served without dispatching an analysis to the pool,
        # every cold request dispatches exactly one, and no cached
        # certificate ever failed its independent re-check.
        assert report["warm_pool_tasks"] == 0
        assert report["cold_pool_tasks"] == report["cold_requests"]
        assert report["cold_p99_seconds"] > 0 and report["warm_p99_seconds"] > 0
        assert report["revalidations"] == report["warm_requests"]
        assert report["revalidation_failures"] == 0
        assert report["warm_programs_per_second"] > (
            report["cold_programs_per_second"]
        )


class TestCommandLine:
    def test_repro_bench_quick_writes_json(self, tmp_path):
        target = tmp_path / "bench.json"
        completed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "bench",
                "--quick",
                "--json",
                str(target),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        document = json.loads(target.read_text())
        assert document["schema_version"] == SCHEMA_VERSION
        assert {s["suite"] for s in document["suites"]} == EXPECTED_SUITES

    def test_repro_bench_print_only(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--quick", "--json", "-"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "table1_wtc" in completed.stdout
        assert "wrote" not in completed.stdout
