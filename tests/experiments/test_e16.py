"""Tests for E16: shard-count invariance and the fleet sweep's contract.

The acceptance property of the fleet redesign is that the shard count is
a *partitioning* choice, never a *results* choice: the same config with
``shards=1`` and ``shards=2`` must combine to identical rows, which is
what makes ``zns-repro run e16 --jobs N`` byte-identical for every N.
"""

import pytest

from repro.block.factory import DeviceSpec
from repro.experiments.base import ExperimentConfig
from repro.experiments.e16_fleet_serving import SWEEP, device_spec, fleet_plan
from repro.experiments.runner import run_config

# One scenario per arm, tiny rack, short run: ~seconds, not minutes.
_TINY = {
    "placements": ["pack"],
    "loads": ["bursty"],
    "fault_scales": [0.0],
    "devices": 2,
    "tenants": 2,
    "ticks": 30,
    "warmup": 10,
}


def _config(**overrides) -> ExperimentConfig:
    return ExperimentConfig("E16", params={**_TINY, **overrides})


class TestDeviceSpec:
    def test_arms_build_the_serving_kinds(self):
        conv = device_spec("conventional", 0.0, seed=0)
        zns = device_spec("zns", 0.0, seed=0)
        assert conv.kind == "conventional-ftl"
        assert zns.kind == "zns"
        assert isinstance(conv, DeviceSpec)
        assert conv.fault_plan is None and zns.fault_plan is None

    def test_fault_scale_arms_the_fleet_plan(self):
        spec = device_spec("zns", 1.0, seed=3)
        assert spec.fault_plan == fleet_plan(3)
        assert spec.fault_scale == 1.0


class TestSweepShape:
    def test_points_cover_every_scenario_shard(self):
        config = _config(shards=2)
        points = SWEEP.points(config)
        # 2 arms x 1 placement x 1 load x 2 shards, each covering the scales.
        assert len(points) == 4
        assert {p["shard"] for p in points} == {0, 1}
        assert all(p["shards"] == 2 for p in points)
        assert {p["arm"] for p in points} == {"conventional", "zns"}

    def test_points_are_picklable_primitives(self):
        # A point covers every scale of its rack: a tuple of floats.
        for point in SWEEP.points(_config(shards=1)):
            scales = point.pop("fault_scales")
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
        assert one_shard.experiment_id == "E16"
        assert len(one_shard.rows) == 2  # one row per arm's lone scenario
        for row in one_shard.rows:
            assert row["reads"] > 0 and row["writes"] > 0
            assert row["read_p99_us"] > 0
        headline = one_shard.headline
        assert isinstance(headline["zns_win_survives"], bool)
        assert headline["hard_scenario"] == "pack/bursty/0.0"
        assert headline["zns_p99_worst_us"] > 0
        assert headline["conv_p99_worst_us"] > 0
