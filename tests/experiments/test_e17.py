"""Tests for E17: reset-pressure sweep shape, registry, shard invariance.

Like E16, the shard count must be a partitioning choice, never a results
choice; E17 additionally arms zone-management faults, so shard
invariance here is the proof that management-fault draws are replayed
per device, not per process.
"""

import pytest

from repro.block.factory import DeviceSpec
from repro.experiments.base import ExperimentConfig
from repro.experiments.e17_reset_pressure import SWEEP, device_spec, mgmt_plan
from repro.experiments.runner import DEFAULT_IDS, MODULES, run_config

_TINY = {
    "pressures": [0.0, 5_000.0],
    "mgmt_scales": [1.0],
    "devices": 2,
    "tenants": 2,
    "ticks": 60,
    "warmup": 30,
}


def _config(**overrides) -> ExperimentConfig:
    return ExperimentConfig("E17", params={**_TINY, **overrides})


class TestRegistry:
    def test_registered_but_not_in_run_all(self):
        assert "E17" in MODULES
        assert "E17" not in DEFAULT_IDS


class TestDeviceSpec:
    def test_conventional_bar_has_no_zone_knobs(self):
        spec = device_spec("conventional", 20_000.0, 1.0, seed=0)
        assert spec.kind == "conventional-ftl"
        assert isinstance(spec, DeviceSpec)
        assert spec.fault_plan is None

    def test_zns_arms_pressure_and_mgmt_faults(self):
        spec = device_spec("zns-naive", 5_000.0, 1.0, seed=3)
        assert spec.kind == "zns"
        assert dict(spec.zone_mgmt)["reset_us"] == 5_000.0
        assert spec.fault_plan == mgmt_plan(3)
        assert spec.fault_scale == 1.0

    def test_zero_pressure_zero_scale_is_clean(self):
        spec = device_spec("zns-managed", 0.0, 0.0, seed=0)
        assert spec.zone_mgmt == ()
        assert spec.fault_plan is None

    def test_mgmt_plan_has_no_media_faults(self):
        plan = mgmt_plan(0)
        assert plan.reset_fail_prob > 0
        assert plan.finish_timeout_prob > 0
        assert plan.read_error_prob == 0.0
        assert plan.program_fail_prob == 0.0
        assert plan.erase_fail_prob == 0.0


class TestSweepShape:
    def test_points_cover_arms_pressures_shards(self):
        points = SWEEP.points(_config(shards=2))
        # conventional: 1 rack; each zns arm: 2 pressures, each point
        # covering its scales; every rack twice (2 shards).
        assert len(points) == (1 + 2 + 2) * 2
        assert {p["arm"] for p in points} == {
            "conventional",
            "zns-naive",
            "zns-managed",
        }
        conv = [p for p in points if p["arm"] == "conventional"]
        assert {(p["pressure_us"], p["mgmt_scales"]) for p in conv} == {(0.0, (0.0,))}

    def test_points_are_picklable_primitives(self):
        # A point covers every scale of its rack: a tuple of floats.
        for point in SWEEP.points(_config(shards=1)):
            scales = point.pop("mgmt_scales")
            assert isinstance(scales, tuple) and all(isinstance(s, float) for s in scales)
            for value in point.values():
                assert isinstance(value, (str, int, float))


class TestShardInvariance:
    @pytest.fixture(scope="class")
    def one_shard(self):
        return run_config(_config(shards=1))

    @pytest.fixture(scope="class")
    def two_shards(self):
        return run_config(_config(shards=2))

    def test_rows_identical_across_shard_counts(self, one_shard, two_shards):
        assert one_shard.rows == two_shards.rows

    def test_headline_identical_across_shard_counts(self, one_shard, two_shards):
        assert one_shard.headline == two_shards.headline

    def test_result_shape(self, one_shard):
        assert one_shard.experiment_id == "E17"
        assert len(one_shard.rows) == 5
        for row in one_shard.rows:
            assert row["reads"] > 0 and row["writes"] > 0
            assert row["read_p99_us"] > 0
            if row["arm"] == "conventional":
                assert row["zone_resets"] == 0
            else:
                assert row["zone_resets"] > 0
        headline = one_shard.headline
        assert headline["conventional_p99_us"] > 0
        assert isinstance(headline["naive_loses_win"], bool)
        assert isinstance(headline["managed_keeps_win"], bool)
        assert headline["mgmt_fault_scale"] == 1.0

    def test_managed_arm_uses_the_lifecycle(self, one_shard):
        managed = [r for r in one_shard.rows if r["arm"] == "zns-managed"]
        naive = [r for r in one_shard.rows if r["arm"] == "zns-naive"]
        assert all(r["reserve_hits"] + r["reserve_misses"] > 0 for r in managed)
        assert all(r["reserve_hits"] == 0 and r["reserve_misses"] == 0 for r in naive)
