"""Tests for the rack simulation: sharding, determinism, merge==serial.

The headline invariant -- the one E16's shard-count independence rests
on -- is that merging per-shard MetricsFrames reproduces the serial
fleet frame for any shard count and any seed: counters, maxima and
``fleet_summary`` exactly, and each latency series as a multiset
(round-robin shards interleave devices, so sample order differs).
Hypothesis drives that claim; the rest pins seeding, shard
partitioning, and the summary's bookkeeping on small racks.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.factory import DeviceSpec
from repro.fleet import (
    FleetSpec,
    derive_seed,
    fleet_summary,
    shard_devices,
    simulate_device,
    simulate_shard,
)
from repro.obs import runtime
from repro.obs.frame import FrameSink, MetricsFrame
from repro.obs.sinks import RecordingSink

# 64 blocks / 4096 pages per device: big enough to reach GC/reclaim,
# small enough that a whole fleet simulates in well under a second.
_FLASH = (("blocks_per_plane", 8),)
_CONV = DeviceSpec(
    kind="conventional-ftl", geometry="small", flash=_FLASH, ftl={"op_ratio": 0.18}
)
_ZNS = DeviceSpec(
    kind="zns", geometry="small", flash=_FLASH, blocks_per_zone=2, max_active_zones=14
)


def assert_same_rack(sharded: MetricsFrame, serial: MetricsFrame) -> None:
    """Equal counters, maxima and summary; equal series as sorted multisets."""
    assert sharded.counters == serial.counters
    assert sharded.maxima == serial.maxima
    assert fleet_summary(sharded) == fleet_summary(serial)
    assert sharded.series.keys() == serial.series.keys()
    for key, values in serial.series.items():
        assert sorted(sharded.series[key]) == sorted(values), key


def _rack(specs, shards: int = 1) -> list[MetricsFrame]:
    """Each spec's whole rack: its shards' frames merged in shard order."""
    per_shard = [simulate_shard(specs, shard, shards) for shard in range(shards)]
    return [MetricsFrame.merge(frames[i] for frames in per_shard) for i in range(len(specs))]


def _fleet(mix, seed: int = 0, **overrides) -> FleetSpec:
    fields = dict(
        mix=mix,
        tenants=4,
        ticks=12,
        warmup_ticks=4,
        reads_per_tick=2,
        utilization=0.8,
        seed=seed,
    )
    fields.update(overrides)
    return FleetSpec(**fields)


class TestShardDevices:
    def test_round_robin_partition(self):
        assert shard_devices(5, 2) == [[0, 2, 4], [1, 3]]

    @given(n=st.integers(0, 40), shards=st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_partition_is_balanced_and_complete(self, n, shards):
        parts = shard_devices(n, shards)
        assert len(parts) == shards
        assert sorted(d for part in parts for d in part) == list(range(n))
        sizes = [len(part) for part in parts]
        assert max(sizes) - min(sizes) <= 1

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            shard_devices(4, 0)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(0, "reads", 1) == derive_seed(0, "reads", 1)
        assert derive_seed(0, "reads", 1) != derive_seed(0, "reads", 2)
        assert derive_seed(0, "reads", 1) != derive_seed(1, "reads", 1)

    def test_fits_a_63_bit_generator_seed(self):
        for parts in ((0,), ("demand", 3), (7, "faults", 12)):
            assert 0 <= derive_seed(*parts) < 2**63


class TestMergeEqualsSerial:
    @given(seed=st.integers(0, 2**32 - 1), shards=st.integers(2, 4))
    @settings(max_examples=5, deadline=None)
    def test_mixed_rack_any_seed_any_shard_count(self, seed, shards):
        spec = _fleet(((_CONV, 2), (_ZNS, 2)), seed=seed)
        (serial,) = _rack([spec], shards=1)
        (sharded,) = _rack([spec], shards=shards)
        assert_same_rack(sharded, serial)

    def test_shard_frames_merge_to_the_fleet_frame(self):
        spec = _fleet(((_CONV, 1), (_ZNS, 2)))
        (serial,) = _rack([spec], shards=1)
        merged = MetricsFrame.merge(
            simulate_shard([spec], shard, shards=3)[0] for shard in range(3)
        )
        # Three devices, three shards: each shard is one device, so the
        # merge runs in device order and even the series match in order.
        assert merged.to_dict() == serial.to_dict()

    def test_device_frames_are_shard_independent(self):
        # The per-device result must not know which shard ran it: the
        # device frame alone, via any shard slicing, is the same frame.
        spec = _fleet(((_ZNS, 2),), tenants=2)
        (lone,) = simulate_device([spec], device_id=1)
        (via_shard,) = simulate_shard([spec], shard=1, shards=2)
        assert via_shard.to_dict() == lone.to_dict()

    def test_simulate_shard_validates_range(self):
        spec = _fleet(((_CONV, 2),))
        with pytest.raises(ValueError, match="shard"):
            simulate_shard([spec], shard=2, shards=2)


class TestGlobalSinks:
    def test_installed_sink_sees_the_shard_serve(self):
        """The rack takes its tracer from ``obs.runtime`` like every device
        stack, so ``--trace``, ``--metrics-out`` and the ledger's counting
        sink observe E16/E17 (it used to build a private ``Tracer()``)."""
        spec = _fleet(((_CONV, 1), (_ZNS, 1)))
        sink = runtime.install_global_sink(RecordingSink(layer="fleet.request"))
        try:
            (frame,) = simulate_shard([spec])
        finally:
            runtime.remove_global_sink(sink)
        served = frame.counter("fleet.request.read.requests") + frame.counter(
            "fleet.request.write.requests"
        )
        # More than the shard's own count: warm-up ticks publish too once
        # something listens, and the frame only starts after them.
        assert len(sink.events) > served > 0
        seen = len(sink.events)
        simulate_shard([spec])
        assert len(sink.events) == seen

    @pytest.mark.parametrize("fault_scale", [0.0, 4.0], ids=["clean", "faulted"])
    def test_frame_fields_equal_what_a_frame_sink_hears(self, fault_scale):
        """The rack books its request counts and latencies as fields; a
        ``FrameSink`` fed the published stream must arrive at the same
        numbers (no warm-up here, so both cover the same requests)."""
        from repro.experiments.e16_fleet_serving import fleet_plan

        conv, zns = _CONV, _ZNS
        if fault_scale:
            conv = conv.with_faults(fleet_plan(0), fault_scale)
            zns = zns.with_faults(fleet_plan(0), fault_scale)
        spec = _fleet(((conv, 1), (zns, 1)), ticks=40, warmup_ticks=0)
        sink = runtime.install_global_sink(FrameSink())
        try:
            (frame,) = simulate_shard([spec])
        finally:
            runtime.remove_global_sink(sink)
        for op in ("read", "write"):
            requests = f"fleet.request.{op}.requests"
            latency = f"fleet.request.{op}.latency_us"
            assert frame.counter(requests) == sink.frame.counter(requests) > 0
            assert frame.series[latency] == sink.frame.series[latency]
            assert frame.observations(latency) == frame.counter(requests)


class TestServingSemantics:
    # Enough warmup churn to exhaust the free pool, so GC (conventional)
    # and zone reclaim (ZNS) both run inside the measured span.
    @pytest.fixture(scope="class")
    def conv_frame(self):
        return _rack([_fleet(((_CONV, 2),), ticks=160, warmup_ticks=120)])[0]

    @pytest.fixture(scope="class")
    def zns_frame(self):
        return _rack([_fleet(((_ZNS, 2),), ticks=160, warmup_ticks=120)])[0]

    def test_both_arms_serve_reads_and_writes(self, conv_frame, zns_frame):
        for frame in (conv_frame, zns_frame):
            assert frame.counter("fleet.devices") == 2
            assert frame.counter("fleet.request.read.requests") > 0
            assert frame.counter("fleet.request.write.requests") > 0
            assert frame.counter("fleet.host_pages_written") > 0

    def test_zns_reclaims_by_zone_reset(self, zns_frame):
        assert zns_frame.counter("fleet.zone_resets") > 0

    def test_summary_shapes_and_sanity(self, conv_frame, zns_frame):
        for frame in (conv_frame, zns_frame):
            summary = fleet_summary(frame)
            assert summary["reads"] == frame.counter("fleet.request.read.requests")
            assert summary["read_p99_us"] > 0
            assert summary["devices_failed"] == 0
            assert summary["fleet_wa"] >= 1.0
        # Device GC costs the conventional arm extra flash writes; the
        # zone-log arm reclaims by reset, so its WA stays at 1.0.
        assert fleet_summary(zns_frame)["fleet_wa"] == 1.0
        assert fleet_summary(conv_frame)["fleet_wa"] > 1.0

    def test_tails_are_read_off_the_request_samples(self, conv_frame, zns_frame):
        """Every request's latency is one sample: the summary's p99 is the
        exact percentile of the series, not a bin edge."""
        for frame in (conv_frame, zns_frame):
            for op in ("read", "write"):
                samples = frame.series[f"fleet.request.{op}.latency_us"]
                assert len(samples) == frame.counter(f"fleet.request.{op}.requests") > 0
            reads = frame.series["fleet.request.read.latency_us"]
            assert fleet_summary(frame)["read_p99_us"] == round(np.percentile(reads, 99), 1)

    def test_summary_of_empty_frame_is_all_zero(self):
        summary = fleet_summary(MetricsFrame())
        assert summary["fleet_wa"] == 0.0
        assert summary["read_p99_us"] == 0.0
        assert summary["capacity_lost_pct"] == 0.0

    def test_unsupported_serving_kind_rejected(self):
        dmz = DeviceSpec(
            kind="dmzoned",
            geometry="small",
            flash=_FLASH,
            blocks_per_zone=2,
            max_active_zones=14,
        )
        with pytest.raises(ValueError, match="serving"):
            simulate_device([_fleet(((dmz, 1),))], device_id=0)


class TestFaultArm:
    def test_faulted_rack_differs_but_still_merges_exactly(self):
        from repro.experiments.e16_fleet_serving import fleet_plan

        clean = _fleet(((_CONV, 2),), ticks=30, warmup_ticks=10)
        faulted = replace(clean, mix=((_CONV.with_faults(fleet_plan(0), 4.0), 2),))
        (serial,) = _rack([faulted], shards=1)
        (sharded,) = _rack([faulted], shards=2)
        assert_same_rack(sharded, serial)
        assert serial.to_dict() != _rack([clean])[0].to_dict()


class TestZoneMgmtArm:
    """Reset pressure + management faults: determinism and the E17 claim."""

    @staticmethod
    def _zns(pressure_us: float, faulted: bool) -> DeviceSpec:
        from repro.experiments.e17_reset_pressure import mgmt_plan

        spec = DeviceSpec(
            kind="zns",
            geometry="small",
            flash=_FLASH,
            blocks_per_zone=2,
            max_active_zones=14,
            zone_mgmt=(("reset_us", pressure_us),),
        )
        return spec.with_faults(mgmt_plan(0), 1.0) if faulted else spec

    def _spec(self, pressure_us: float, lifecycle: bool, seed: int = 0) -> FleetSpec:
        return _fleet(
            ((self._zns(pressure_us, faulted=True), 2),),
            seed=seed,
            ticks=160,
            warmup_ticks=120,
            lifetime_scale=0.05,
            zone_lifecycle=lifecycle,
        )

    @pytest.mark.parametrize("lifecycle", [False, True])
    def test_merge_equals_serial_with_mgmt_faults(self, lifecycle):
        spec = self._spec(5_000.0, lifecycle)
        (serial,) = _rack([spec], shards=1)
        (sharded,) = _rack([spec], shards=2)
        assert_same_rack(sharded, serial)

    def test_lifecycle_arm_reports_its_counters(self):
        (frame,) = _rack([self._spec(5_000.0, lifecycle=True)])
        assert frame.counter("fleet.lifecycle.reserve_hits") > 0
        assert frame.counter("fleet.zone_resets") > 0
        (naive,) = _rack([self._spec(5_000.0, lifecycle=False)])
        assert naive.counter("fleet.lifecycle.reserve_hits") == 0
        assert naive.counter("fleet.reset_retries") > 0

    def test_managed_tail_no_worse_than_naive_under_pressure(self):
        naive = fleet_summary(_rack([self._spec(20_000.0, lifecycle=False)])[0])
        managed = fleet_summary(_rack([self._spec(20_000.0, lifecycle=True)])[0])
        assert managed["read_p99_us"] <= naive["read_p99_us"]
