"""ZNS devices under injected faults: degradation, offlining, shrinking.

The ZNS half of the recovery story (paper §2.1): where a conventional
FTL hides media failure behind remapping, the ZNS device *surfaces* it
-- a failed append degrades the zone to READ_ONLY, grown bad blocks
shrink the zone at its next reset, and scheduled media death turns
zones OFFLINE. Every write command has one fault contract: the pages
before the fault stay durable and the zone degrades to READ_ONLY.
"""

import dataclasses

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.flash.errors import ProgramFaultError
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.obs.sinks import RecordingSink
from repro.zns.device import ZNSDevice
from repro.zns.errors import ZoneReadOnlyError, ZoneStateError
from repro.zns.zone import ZoneOfflineError, ZoneState


def tiny_geometry() -> ZonedGeometry:
    flash = FlashGeometry(
        page_size=512,
        pages_per_block=8,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )
    return ZonedGeometry(flash=flash, blocks_per_zone=2, max_active_zones=4)


def make_device(plan: FaultPlan | None = None, **kwargs) -> ZNSDevice:
    faults = FaultInjector(plan) if plan is not None else None
    return ZNSDevice(tiny_geometry(), faults=faults, **kwargs)


def arm_after_the_fact(device: ZNSDevice, plan: FaultPlan) -> None:
    """Attach an injector to a device that already has clean data."""
    device.nand.faults = FaultInjector(plan).bind(device.tracer)


def zone_and_flash_state(device: ZNSDevice) -> dict:
    return {
        "zones": [(z.state.value, z.wp, z.capacity_pages) for z in device.zones],
        "write_offsets": device.nand.write_offsets.tolist(),
        "nand_counters": dataclasses.asdict(device.nand.counters),
        "open_order": list(device._open_order),
    }


class TestProgramFaultDegradation:
    def test_failed_write_degrades_zone_read_only(self):
        device = make_device(FaultPlan(program_fail_prob=1.0))
        with pytest.raises(ProgramFaultError):
            device.write(0, npages=2)
        assert device.zone(0).state is ZoneState.READ_ONLY
        # Nothing durable landed, so the write pointer stayed put.
        assert device.zone(0).wp == 0
        with pytest.raises(ZoneReadOnlyError):
            device.write(0, npages=1)

    def test_durable_prefix_stays_readable(self):
        device = make_device(store_data=True)
        device.write(0, npages=3, data=b"x")
        arm_after_the_fact(device, FaultPlan(program_fail_prob=1.0))
        with pytest.raises(ProgramFaultError):
            device.write(0, npages=2)
        zone = device.zone(0)
        assert zone.state is ZoneState.READ_ONLY
        assert zone.wp == 3
        for offset in range(3):
            payload, _ = device.read(0, offset)
            assert payload == b"x"

    def test_degraded_zone_leaves_open_budget(self):
        device = make_device(FaultPlan(program_fail_prob=1.0))
        with pytest.raises(ProgramFaultError):
            device.append(0, npages=1)
        assert 0 not in device._open_order
        assert device.open_count == 0


class TestScheduledZoneOffline:
    def test_due_zone_goes_offline_before_next_command(self):
        device = make_device(FaultPlan(zone_offline_at=((0, 2),)))
        device.write(0, npages=1)  # any command polls the schedule
        assert device.zone(2).state is ZoneState.OFFLINE
        with pytest.raises((ZoneStateError, ZoneOfflineError)):
            device.write(2, npages=1)
        with pytest.raises(ZoneStateError):
            device.reset_zone(2)

    def test_offline_zone_closes_open_slot(self):
        device = make_device(FaultPlan(zone_offline_at=((2, 0),)))
        device.write(0, npages=1)  # opens zone 0 (ops 0 -> 1: not yet due)
        assert device.zone(0).state is ZoneState.IMPLICIT_OPEN
        device.write(1, npages=1)  # ops reach 2; next poll kills zone 0
        device.write(1, npages=1)
        assert device.zone(0).state is ZoneState.OFFLINE
        assert 0 not in device._open_order


class TestGrownBadBlockShrinksZone:
    def test_reset_drops_failed_block_without_spares(self):
        device = make_device(FaultPlan(grown_bad_blocks=((1, 0),)))
        full_capacity = device.zone(0).capacity_pages
        device.write(0, npages=2)  # passes the scheduled op index
        device.reset_zone(0)
        # Block 0 failed its erase and was dropped; no spare to refill.
        assert device.zone(0).capacity_pages < full_capacity
        assert device.nand.wear.is_bad(0)

    def test_spare_block_preserves_capacity(self):
        device = make_device(
            FaultPlan(grown_bad_blocks=((1, 0),)), spare_blocks=2
        )
        full_capacity = device.zone(0).capacity_pages
        device.write(0, npages=2)
        device.reset_zone(0)
        assert device.zone(0).capacity_pages == full_capacity
        assert device.nand.wear.is_bad(0)
        assert 0 not in device.ftl.blocks_of_zone(0)


class _FailNthProgram(FaultInjector):
    """Armed, but failing exactly the ``n``-th program it decides (1-based)."""

    def __init__(self, n: int):
        super().__init__(FaultPlan(grown_bad_blocks=((10**12, 0),)))
        self.n = n

    def on_program(self, block, page, latency_us):
        self._tick()
        return self.ops == self.n, 0.0


def device_failing_program(n: int, **kwargs) -> ZNSDevice:
    return ZNSDevice(tiny_geometry(), faults=_FailNthProgram(n), **kwargs)


class TestOneFaultContract:
    """A fault mid-command degrades the zone and keeps the pages before it."""

    @pytest.mark.parametrize("striped", [True, False], ids=["striped", "linear"])
    def test_failed_multi_page_write_keeps_its_prefix(self, striped):
        device = device_failing_program(3, striped=striped)
        recording = device.tracer.attach(RecordingSink())
        with pytest.raises(ProgramFaultError):
            device.write(0, npages=6)
        zone = device.zone(0)
        assert (zone.state, zone.wp) == (ZoneState.READ_ONLY, 2)
        # Three programs reached flash: two durable pages and the burn.
        assert sum(device.nand.write_offset(b) for b in device.ftl.blocks_of_zone(0)) == 3
        # The command did not complete: it published no program of its own.
        assert not [e for e in recording.of_kind("flash-op") if e.layer == "zns.device"]
        assert device.nand.counters.count("program") == 2
        device.check_invariants()

    def test_failed_append_degrades_exactly_like_write(self):
        written, appended = device_failing_program(3), device_failing_program(3)
        with pytest.raises(ProgramFaultError):
            written.write(0, npages=5)
        with pytest.raises(ProgramFaultError):
            appended.append(0, npages=5, build_ops=False)
        assert zone_and_flash_state(written) == zone_and_flash_state(appended)

    def test_failed_write_frees_an_explicit_open_slot(self):
        device = device_failing_program(2)
        device.open_zone(0)
        with pytest.raises(ProgramFaultError):
            device.write(0, npages=4)
        assert device.zone(0).state is ZoneState.READ_ONLY
        assert device.open_count == 0 and device.active_count == 0

    def test_host_recovers_by_resetting_the_degraded_zone(self):
        device = make_device(FaultPlan(seed=5, program_fail_prob=0.4))
        degraded = []
        for zone_id in range(device.zone_count):
            try:
                device.write(zone_id, npages=4)
                break
            except ProgramFaultError:
                assert device.zone(zone_id).state is ZoneState.READ_ONLY
                degraded.append(zone_id)
        else:
            pytest.fail("no zone took a write at prob=0.4")
        assert degraded, "seed 5 no longer faults the first write"
        assert device.zone(zone_id).wp == 4
        for zone_id in degraded:
            device.reset_zone(zone_id)
            assert device.zone(zone_id).state is ZoneState.EMPTY
        device.check_invariants()
