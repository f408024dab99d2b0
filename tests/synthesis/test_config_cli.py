"""Oracle/strategy selection round-trips: AnalysisConfig JSON and the CLI."""

import itertools
import json

import pytest

from repro.api import (
    AnalysisConfig,
    CEX_ORACLES,
    CEX_STRATEGIES,
    ConfigError,
    available_provers,
    prover_capabilities,
)
from repro.cli import _config_from_arguments, build_parser

ALL_COMBOS = list(itertools.product(CEX_ORACLES, CEX_STRATEGIES))

#: ``AnalysisResult.to_dict()`` of the countdown loop as written by the
#: last release with the ``kernel`` knob (service provenance stamped).
PARENT_RESULT_JSON = """
{"certificate_checked": true, "details": {}, "dimension": 1, "error": null,
 "iterations": 2,
 "lp": {"average_cols": 3.0, "average_rows": 1.0, "cex_rows": 1,
        "cold_solves": 1, "flat_directions": 0, "instances": 1,
        "kernel_chosen": "exact", "max_cols": 3, "max_rows": 1,
        "oracle_queries": 2, "overflow_fallbacks": 0, "pivots": 2,
        "pivots_saved": 0, "redundancy_lp_saved": 0, "resolved_exact": 49,
        "resolved_packed": 0, "row_pivots": 49, "smt_core_literals": 15,
        "smt_sat_calls": 7, "smt_theory_checks": 6,
        "smt_theory_conflicts": 5, "smt_theory_pivots": 10,
        "stacked_pivots": 0, "total_cols": 3, "total_rows": 1,
        "warm_solves": 0},
 "message": "",
 "problem_statistics": {"blocks": 1, "cut_points": 1, "invariant_rows": 2,
                        "paths_summarised": 1, "variables": 1},
 "program": "program", "proved": true,
 "provenance": {"cache": "miss", "degraded": ["kernel:packed->auto"],
                "kernel": "exact", "key": "k", "revalidated": false,
                "worker_pid": 1},
 "ranking": {"components": [{"coefficients": {"loop_head_1": ["1"]},
                             "offsets": {"loop_head_1": "-1"},
                             "strict": true, "variables": ["x"]}]},
 "stages": [{"name": "frontend", "seconds": 0.0006648750022577588},
            {"name": "invariants", "seconds": 0.00632434699946316},
            {"name": "cutset", "seconds": 4.475899913813919e-05},
            {"name": "large_block", "seconds": 0.0009760259999893606},
            {"name": "synthesis", "seconds": 0.01224969000031706},
            {"name": "certificate", "seconds": 0.0020629110003937967}],
 "status": "terminating", "time_ms": 22.323,
 "time_seconds": 0.022322608001559274, "timed_out": false, "tool": "termite"}
"""


class TestConfigValidation:
    def test_defaults_replay_the_paper(self):
        config = AnalysisConfig()
        assert config.cex_oracle == "smt"
        assert config.cex_strategy == "extremal"
        assert config.oracle_seed == 0

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ConfigError, match="cex_oracle"):
            AnalysisConfig(cex_oracle="crystal-ball")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigError, match="cex_strategy"):
            AnalysisConfig(cex_strategy="greedy")

    def test_cex_batch_is_rejected(self):
        # Every iteration refines with one counterexample; a config that
        # still names a batch size fails loudly instead of being ignored.
        with pytest.raises(TypeError):
            AnalysisConfig(cex_batch=1)
        with pytest.raises(ConfigError, match="cex_batch"):
            AnalysisConfig.from_dict({"cex_batch": 1})

    def test_seed_must_be_nonnegative(self):
        with pytest.raises(ConfigError, match="oracle_seed"):
            AnalysisConfig(oracle_seed=-1)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("oracle,strategy", ALL_COMBOS)
    def test_every_combination_round_trips_exactly(self, oracle, strategy):
        config = AnalysisConfig(
            cex_oracle=oracle,
            cex_strategy=strategy,
            oracle_seed=17,
        )
        assert (
            AnalysisConfig.from_dict(json.loads(json.dumps(config.to_dict())))
            == config
        )
        assert AnalysisConfig.from_json(config.to_json()) == config


class TestCliRoundTrip:
    @pytest.mark.parametrize("oracle,strategy", ALL_COMBOS)
    def test_prove_flags_reach_the_config(self, oracle, strategy):
        parser = build_parser()
        arguments = parser.parse_args(
            [
                "prove",
                "program.imp",
                "--oracle",
                oracle,
                "--cex-strategy",
                strategy,
                "--oracle-seed",
                "9",
            ]
        )
        config = _config_from_arguments(arguments)
        assert config.cex_oracle == oracle
        assert config.cex_strategy == strategy
        assert config.oracle_seed == 9

    def test_config_file_baseline_with_flag_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            AnalysisConfig(cex_oracle="dd", cex_strategy="random").to_json()
        )
        parser = build_parser()
        arguments = parser.parse_args(
            ["prove", "p.imp", "--config", str(path), "--cex-strategy", "arbitrary"]
        )
        config = _config_from_arguments(arguments)
        assert config.cex_oracle == "dd"  # from the file
        assert config.cex_strategy == "arbitrary"  # the flag wins

    def test_invalid_choice_rejected_by_argparse(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["prove", "p.imp", "--oracle", "magic"])
        assert "invalid choice" in capsys.readouterr().err


class TestCapabilityFlags:
    def test_termite_advertises_swappable_oracles(self):
        capabilities = prover_capabilities()
        assert "cex-oracles" in capabilities["termite"]
        assert "cex-strategies" in capabilities["termite"]
        assert "events" in capabilities["termite"]

    def test_capability_filter(self):
        assert available_provers("cex-oracles") == ["termite"]
        everyone = available_provers("certificates")
        assert set(everyone) == set(available_provers())

    def test_unknown_capability_rejected(self):
        with pytest.raises(KeyError, match="unknown capability"):
            available_provers("telepathy")

    def test_baselines_ignore_but_do_not_advertise(self):
        capabilities = prover_capabilities()
        for name in available_provers():
            if name == "termite":
                continue
            assert "cex-oracles" not in capabilities[name]


class TestPipelineEngineObservers:
    def test_engine_events_flow_through_analysis(self):
        from repro.api import Analysis

        source = "var x; while (x > 0) { x = x - 1; }"
        events = []
        analysis = Analysis(source, name="countdown")
        analysis.add_engine_observer(events.append)
        result = analysis.run("termite")
        assert result.proved
        kinds = {event.kind for event in events}
        assert {"component_start", "iteration", "component_end"} <= kinds

    def test_no_events_without_capability(self):
        from repro.api import Analysis

        source = "var x; while (x > 0) { x = x - 1; }"
        events = []
        analysis = Analysis(source, name="countdown")
        analysis.add_engine_observer(events.append)
        analysis.run("heuristic")
        assert events == []


class TestRemovedAliases:
    """The deprecation shims are gone; repro.synthesis is the one path."""

    def test_core_avoid_space_alias_removed(self):
        import importlib.util

        assert importlib.util.find_spec("repro.core.monodim") is None
        from repro.synthesis.oracles import avoid_space  # noqa: F401

    def test_compatibility_layer_removed(self):
        import importlib.util

        import repro
        import repro.core
        import repro.linalg
        import repro.reporting

        for module in (
            "repro.core.termination",
            "repro.core.monodim",
            "repro.core.multidim",
            "repro.linalg.matrix",
        ):
            assert importlib.util.find_spec(module) is None, module
        for package, name in (
            (repro, "TerminationProver"),
            (repro, "TerminationResult"),
            (repro, "prove_termination"),
            (repro.core, "synthesize_monodim"),
            (repro.core, "synthesize_multidim"),
            (repro.reporting, "ProgramOutcome"),
            (repro.linalg, "Matrix"),
            (repro.linalg, "complete_basis"),
            (repro.linalg, "linearly_independent"),
        ):
            assert not hasattr(package, name), name
        from repro.linalg import in_span, orthogonal_complement  # noqa: F401
        with pytest.raises(SystemExit):
            build_parser().parse_args(["prove", "p.imp", "--cex-batch", "2"])

    def test_kernel_knob_removed(self):
        import importlib.util

        import repro.api

        with pytest.raises(ConfigError, match="kernel"):
            AnalysisConfig.from_dict({"kernel": "auto"})
        for flags in (
            ["prove", "p.imp", "--kernel", "exact"],
            ["table1", "--kernel", "exact"],
            ["fuzz", "--kernel", "exact"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(flags)
        for module in ("repro.linalg.packed", "repro.linalg.stacked"):
            assert importlib.util.find_spec(module) is None, module
        assert not hasattr(repro.api, "KERNELS")
        assert "kernels" not in repro.api.CAPABILITIES

    def test_numpy_is_never_imported(self):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.api, repro.service\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert completed.returncode == 0, completed.stderr

    def test_parent_result_json_still_loads(self):
        """A result written before the kernel knob was removed (it carries
        ``provenance.kernel`` and the int64-kernel counters) loads, so an
        older ``--cache-dir`` stays readable."""
        from repro.api import AnalysisResult

        document = json.loads(PARENT_RESULT_JSON)
        result = AnalysisResult.from_dict(document)
        assert result.proved and result.certificate_checked
        assert result.lp_statistics.pivots == 2
        assert result.lp_statistics.row_pivots == 49
        assert result.lp_statistics.resolved_exact == 49
        assert result.provenance.degraded == ("kernel:packed->auto",)
        reloaded = result.to_dict()
        assert "kernel" not in reloaded["provenance"]
        assert "kernel_chosen" not in reloaded["lp"]
        assert AnalysisResult.from_dict(reloaded) == result

    def test_eager_generator_aliases_removed(self):
        import repro.baselines.eager_generators as eager

        for alias in ("_difference_map", "_one_offsets", "_disjunct_generators"):
            assert not hasattr(eager, alias)
        from repro.synthesis.oracles import (  # noqa: F401
            difference_map,
            disjunct_generators,
            one_offsets,
        )
