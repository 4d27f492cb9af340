"""ZNS devices under injected faults: degradation, offlining, atomicity.

The ZNS half of the recovery story (paper §2.1): where a conventional
FTL hides media failure behind remapping, the ZNS device *surfaces* it
-- a failed append degrades the zone to READ_ONLY, grown bad blocks
shrink the zone at its next reset, and scheduled media death turns
zones OFFLINE. Batched commands keep their atomicity contract: a
failed batch leaves zone and flash state untouched.
"""

import dataclasses

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.flash.errors import ProgramFaultError
from repro.flash.geometry import FlashGeometry, ZonedGeometry
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


class TestBatchAtomicity:
    """Failed batch commands leave zone and NAND state untouched."""

    def test_failed_write_batch_is_a_no_op(self):
        device = make_device(FaultPlan(program_fail_prob=1.0))
        before = zone_and_flash_state(device)
        with pytest.raises(ProgramFaultError):
            device.write_batch(0, 4)
        assert zone_and_flash_state(device) == before

    def test_failed_append_batch_is_a_no_op(self):
        device = make_device(FaultPlan(program_fail_prob=1.0))
        before = zone_and_flash_state(device)
        with pytest.raises(ProgramFaultError):
            device.append_batch(0, 4)
        assert zone_and_flash_state(device) == before

    def test_failed_batch_keeps_explicit_open_state(self):
        device = make_device(FaultPlan(program_fail_prob=1.0))
        device.open_zone(0)
        before = zone_and_flash_state(device)
        with pytest.raises(ProgramFaultError):
            device.write_batch(0, 2)
        # The zone was already explicitly open; the failed batch must
        # not close it (only *this command's* implicit open unwinds).
        assert zone_and_flash_state(device) == before
        assert device.zone(0).state is ZoneState.EXPLICIT_OPEN

    def test_batch_retry_succeeds_after_transient_fault(self):
        device = make_device(FaultPlan(seed=5, program_fail_prob=0.4))
        for _ in range(50):
            try:
                device.write_batch(0, 4)
                break
            except ProgramFaultError:
                assert device.zone(0).wp == 0
        else:
            pytest.fail("write_batch never succeeded at prob=0.4")
        assert device.zone(0).wp == 4
