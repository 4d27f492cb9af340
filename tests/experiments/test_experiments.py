"""Smoke and shape tests for the experiment harness.

Fast experiments are checked for their headline *shape* (who wins, which
direction); slow DES experiments are exercised end-to-end by the benchmark
suite instead and only registry-level properties are checked here.
"""

import pytest

from repro.experiments import MODULES, run_config
from repro.experiments.base import ExperimentConfig, ExperimentResult


class TestRegistry:
    def test_all_design_md_ids_present(self):
        expected = {"T1"} | {f"E{i}" for i in range(1, 18)} | {"A1", "A2", "A3", "A4", "A5"}
        assert set(MODULES) == expected

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_config(ExperimentConfig("E99"))

    @pytest.mark.parametrize("key", sorted(MODULES))
    def test_one_entry_point_per_module(self, key):
        # A sweep is run by the executor from its SWEEP; a second,
        # module-level run would be a fork the executor never takes.
        module = MODULES[key]
        assert hasattr(module, "run") != hasattr(module, "SWEEP")

    def test_lookup_case_insensitive(self):
        result = run_config(ExperimentConfig("t1"))
        assert result.experiment_id == "T1"


class TestResultFormatting:
    def test_format_renders_rows_and_headline(self):
        result = ExperimentResult(
            experiment_id="X",
            title="demo",
            paper_claim="c",
            rows=[{"a": 1, "b": 2.5}, {"a": 10, "b": 0.333}],
            headline={"factor": 3.0},
            notes="n",
        )
        text = result.format()
        assert "X: demo" in text
        assert "factor=3" in text
        assert "notes: n" in text

    def test_format_empty_rows(self):
        text = ExperimentResult("X", "t", "c").format()
        assert "X: t" in text


class TestT1:
    def test_reproduces_table_exactly(self):
        result = run_config(ExperimentConfig("T1"))
        assert result.headline["exact_match"] is True
        assert result.headline["simplified_pct"] == pytest.approx(23.1, abs=0.1)


class TestE2:
    def test_dram_reduction(self):
        result = run_config(ExperimentConfig("E2"))
        assert result.headline["conventional_gb_per_tb"] == pytest.approx(1.0)
        assert result.headline["zns_kb_per_tb"] == pytest.approx(256.0)
        assert result.headline["reduction_factor"] == 4096


class TestE6:
    def test_cost_shape(self):
        result = run_config(ExperimentConfig("E6"))
        assert result.headline["premium_exceeds_2x"] is True
        assert result.headline["zns_saving_vs_28pct_op"] > 0.1


class TestE8:
    def test_dynamic_beats_static(self):
        result = run_config(ExperimentConfig("E8"))
        assert result.headline["dynamic_satisfaction"] > result.headline["static_satisfaction"]
        assert result.headline["multiplexing_gain"] > 1.1


class TestE10:
    def test_erase_program_ratio(self):
        result = run_config(ExperimentConfig("E10"))
        assert result.headline["within_5x_to_7x"] is True
        assert result.headline["measured_on_array"] == pytest.approx(
            result.headline["tlc_erase_program_ratio"], rel=0.01
        )
        # The ladder rows cover all five cell technologies.
        assert [r["cell"] for r in result.rows] == ["SLC", "MLC", "TLC", "QLC", "PLC"]


class TestE7:
    def test_append_scales_writes_do_not(self):
        result = run_config(ExperimentConfig("E7"))
        assert result.headline["append_speedup_at_max_writers"] > 2.0
        assert result.headline["write_mode_scaling"] < 1.3
