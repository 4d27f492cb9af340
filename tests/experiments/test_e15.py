"""E15 fault-resilience experiment: registry wiring, smoke run, figure."""

from repro.experiments.base import ExperimentConfig
from repro.experiments.e15_fault_resilience import base_plan, measure_arm
from repro.experiments.figures import render_figure
from repro.experiments.runner import DEFAULT_IDS, MODULES, run_config


class TestRegistry:
    def test_registered_but_not_in_default_suite(self):
        # E15/E17 inject faults and E16 is a long fleet sweep; 'run all'
        # output must stay fault-free and byte-stable, so all three run
        # only when named explicitly.
        assert "E15" in MODULES
        assert "E15" not in DEFAULT_IDS
        assert set(DEFAULT_IDS) == set(MODULES) - {"E15", "E16", "E17"}

    def test_base_plan_is_armed_and_seeded(self):
        plan = base_plan(seed=0)
        assert plan.armed
        assert plan.grown_bad_blocks and plan.zone_offline_at
        assert base_plan(seed=0) == base_plan(seed=0)
        assert base_plan(seed=1) != base_plan(seed=0)


class TestMeasurement:
    def test_clean_arm_injects_nothing(self):
        row = measure_arm("conventional", 0.0, quick=True, seed=0)
        assert row["faults_injected"] == 0
        assert row["capacity_lost_pct"] == 0.0
        assert not row["died"]
        assert row["write_amplification"] > 1.0

    def test_faulted_arm_injects_and_recovers(self):
        clean = measure_arm("zns", 0.0, quick=True, seed=0)
        faulted = measure_arm("zns", 0.5, quick=True, seed=0)
        assert faulted["faults_injected"] > 0
        assert faulted["recovered_faults"] > 0
        assert faulted["capacity_lost_pct"] > 0.0
        # Surviving the plan costs write amplification.
        assert not faulted["died"] and faulted["died_at_op"] is None
        assert faulted["write_amplification"] > clean["write_amplification"]

    def test_rows_are_seed_deterministic(self):
        a = measure_arm("conventional", 1.0, quick=True, seed=3)
        b = measure_arm("conventional", 1.0, quick=True, seed=3)
        assert a == b


class TestSweep:
    def test_quick_sweep_and_figure(self):
        config = ExperimentConfig(
            "E15", full=False, seed=0, params={"fault_scales": [0.0, 1.0]}
        )
        result = run_config(config)
        assert len(result.rows) == 4  # 2 arms x 2 scales
        assert {row["arm"] for row in result.rows} == {"conventional", "zns"}
        assert result.headline["conv_wa_faulted"] >= result.headline["conv_wa_clean"]
        # Seed 0's ZNS arm runs out of free zones at 1x: a dead arm
        # reports when it died, not a WA over a truncated phase.
        (dead,) = [r for r in result.rows if r["died"]]
        assert (dead["arm"], dead["fault_scale"]) == ("zns", 1.0)
        assert dead["died_at_op"] > 0
        assert dead["write_amplification"] is None and dead["read_p99_us"] is None
        assert result.headline["zns_wa_faulted"] is None
        chart = render_figure(result)
        assert "conv@1x" in chart and "zns@1x" in chart
