"""Zone management as a first-class, failure-prone subsystem.

NVMe conformance of finish/reset on edge states, the management timing
model (command holds charged as MGMT ops, ZoneMgmtEvents on the bus),
the management fault classes (transient reset failure, finish timeout,
stuck-open zones) with their pre-mutation retry contract, and the timed
device's management gate -- reads and appends queue behind an in-flight
reset, the paper's elided hidden cost.
"""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.ops import OpKind
from repro.flash.timing import ZoneMgmtTiming
from repro.sim.engine import Engine
from repro.zns.device import TimedZNSDevice, ZNSDevice
from repro.zns.errors import (
    RetryableZnsError,
    ZoneFinishTimeoutError,
    ZoneOfflineError,
    ZoneReadOnlyError,
    ZoneResetFailedError,
    ZoneStuckOpenError,
)
from repro.zns.zone import ZoneState


def tiny_geometry() -> ZonedGeometry:
    flash = FlashGeometry(
        page_size=512,
        pages_per_block=8,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )
    return ZonedGeometry(flash=flash, blocks_per_zone=2, max_active_zones=4)


def make_device(
    plan: FaultPlan | None = None,
    mgmt: ZoneMgmtTiming | None = None,
    **kwargs,
) -> ZNSDevice:
    faults = FaultInjector(plan) if plan is not None else None
    return ZNSDevice(tiny_geometry(), faults=faults, mgmt_timing=mgmt, **kwargs)


class _EventLog:
    def __init__(self):
        self.events = []

    def on_event(self, event) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> list:
        return [e for e in self.events if getattr(e, "kind", None) == kind]


class TestNvmeEdgeSemantics:
    """Explicit NVMe zone-state-machine conformance of finish/reset."""

    def test_reset_empty_zone_is_a_noop_success(self):
        device = make_device()
        wear_before = device.nand.counters.count("erase")
        assert device.reset_zone(0) == []
        assert device.zone(0).state is ZoneState.EMPTY
        assert device.nand.counters.count("erase") == wear_before

    def test_reset_empty_zone_skips_fault_draws(self):
        # A no-op reset must not consume injector randomness: the
        # command never reaches the media, so nothing can bounce.
        device = make_device(FaultPlan(reset_fail_prob=1.0))
        assert device.reset_zone(0) == []
        assert device.zone(0).state is ZoneState.EMPTY

    def test_finish_full_zone_is_a_noop_success(self):
        device = make_device()
        device.write(0, device.zone(0).capacity_pages, build_ops=False)
        assert device.zone(0).state is ZoneState.FULL
        assert device.finish_zone(0) == []

    def test_finish_empty_zone_is_the_valid_zse_to_zsf_transition(self):
        device = make_device()
        assert device.finish_zone(0) == []
        zone = device.zone(0)
        assert zone.state is ZoneState.FULL
        assert zone.wp == 0

    def test_finish_open_zone_releases_its_open_slot(self):
        device = make_device()
        device.write(0, npages=1)
        assert device.zone(0).state is ZoneState.IMPLICIT_OPEN
        device.finish_zone(0)
        assert device.zone(0).state is ZoneState.FULL
        assert device.open_count == 0
        assert 0 not in device._open_order

    def test_finish_offline_and_read_only_raise_typed_errors(self):
        device = make_device(FaultPlan(zone_offline_at=((0, 1),)))
        device.write(0, npages=1)
        assert device.zone(1).state is ZoneState.OFFLINE
        with pytest.raises(ZoneOfflineError):
            device.finish_zone(1)
        device2 = make_device(FaultPlan(program_fail_prob=1.0))
        from repro.flash.errors import ProgramFaultError

        with pytest.raises(ProgramFaultError):
            device2.write(0, npages=1)
        assert device2.zone(0).state is ZoneState.READ_ONLY
        with pytest.raises(ZoneReadOnlyError):
            device2.finish_zone(0)


class TestMgmtTiming:
    def test_reset_leads_with_the_management_hold(self):
        device = make_device(mgmt=ZoneMgmtTiming(reset_us=700.0))
        device.write(0, 4, build_ops=False)
        ops = device.reset_zone(0)
        assert ops[0].kind is OpKind.MGMT
        assert ops[0].latency_us == 700.0
        assert not ops[0].uses_channel
        assert all(op.kind is OpKind.ERASE for op in ops[1:])
        assert len(ops) == 1 + tiny_geometry().blocks_per_zone

    def test_reset_of_empty_zone_charges_only_the_hold(self):
        device = make_device(mgmt=ZoneMgmtTiming(reset_us=700.0))
        ops = device.reset_zone(0)
        assert [op.kind for op in ops] == [OpKind.MGMT]

    def test_finish_scales_with_unwritten_pages(self):
        device = make_device(
            mgmt=ZoneMgmtTiming(finish_us=100.0, finish_per_page_us=10.0)
        )
        device.write(0, 4, build_ops=False)
        unwritten = device.zone(0).remaining
        (op,) = device.finish_zone(0)
        assert op.kind is OpKind.MGMT
        assert op.latency_us == 100.0 + 10.0 * unwritten

    def test_zero_timing_adds_no_ops(self):
        device = make_device(mgmt=ZoneMgmtTiming())
        device.write(0, 4, build_ops=False)
        assert all(op.kind is OpKind.ERASE for op in device.reset_zone(0))
        assert device.finish_zone(1) == []

    def test_mgmt_events_on_the_bus(self):
        device = make_device(mgmt=ZoneMgmtTiming(reset_us=700.0, open_us=5.0, close_us=3.0))
        log = device.tracer.attach(_EventLog())
        device.open_zone(0)
        device.write(0, npages=1)
        device.close_zone(0)
        device.write(1, 4, build_ops=False)
        device.reset_zone(1)
        device.finish_zone(2)
        actions = [(e.action, e.zone) for e in log.of_kind("zone-mgmt")]
        assert ("open", 0) in actions
        assert ("close", 0) in actions
        assert ("reset", 1) in actions
        assert ("finish", 2) in actions
        reset_event = next(e for e in log.of_kind("zone-mgmt") if e.action == "reset")
        assert reset_event.latency_us == 700.0

    def test_no_timing_means_no_mgmt_events(self):
        device = make_device()
        log = device.tracer.attach(_EventLog())
        device.write(0, 4, build_ops=False)
        device.reset_zone(0)
        assert log.of_kind("zone-mgmt") == []


class TestMgmtFaults:
    def test_reset_failure_is_typed_retryable_and_premutation(self):
        device = make_device(FaultPlan(seed=3, reset_fail_prob=1.0))
        device.write(0, 4, build_ops=False)
        wp_before = device.zone(0).wp
        erases_before = device.nand.counters.count("erase")
        with pytest.raises(ZoneResetFailedError) as err:
            device.reset_zone(0)
        assert isinstance(err.value, RetryableZnsError)
        assert err.value.retryable
        # Bounced pre-mutation: the zone (and media) are untouched.
        assert device.zone(0).state is ZoneState.IMPLICIT_OPEN or device.zone(0).wp == wp_before
        assert device.nand.counters.count("erase") == erases_before

    def test_bounced_reset_carries_the_command_hold(self):
        device = make_device(
            FaultPlan(reset_fail_prob=1.0), mgmt=ZoneMgmtTiming(reset_us=700.0)
        )
        device.write(0, 4, build_ops=False)
        with pytest.raises(ZoneResetFailedError) as err:
            device.reset_zone(0)
        assert err.value.latency_us == 700.0

    def test_reset_retry_succeeds_after_transient_bounce(self):
        device = make_device(FaultPlan(seed=11, reset_fail_prob=0.5))
        device.write(0, 4, build_ops=False)
        for _ in range(50):
            try:
                device.reset_zone(0)
                break
            except ZoneResetFailedError:
                assert device.zone(0).wp == 4  # bounced pre-mutation
        else:
            pytest.fail("reset never succeeded at prob=0.5")
        assert device.zone(0).state is ZoneState.EMPTY

    def test_finish_timeout_charges_the_configured_latency(self):
        device = make_device(
            FaultPlan(finish_timeout_prob=1.0, finish_timeout_us=4_000.0)
        )
        device.write(0, npages=1)
        with pytest.raises(ZoneFinishTimeoutError) as err:
            device.finish_zone(0)
        assert err.value.latency_us == 4_000.0
        assert device.zone(0).state is ZoneState.IMPLICIT_OPEN

    def test_stuck_zone_rejects_close_then_releases(self):
        plan = FaultPlan(stuck_open_zones=((0, 0),), stuck_release_after=2)
        device = make_device(plan)
        device.write(0, npages=1)
        for _ in range(2):
            with pytest.raises(ZoneStuckOpenError):
                device.close_zone(0)
        device.close_zone(0)  # the stuck window released
        assert device.zone(0).state is ZoneState.CLOSED

    def test_stuck_zone_only_applies_while_open(self):
        plan = FaultPlan(stuck_open_zones=((0, 0),), stuck_release_after=99)
        device = make_device(plan)
        device.write(0, device.zone(0).capacity_pages, build_ops=False)
        assert device.zone(0).state is ZoneState.FULL
        # FULL is not an open state: reset proceeds despite the stuck plan.
        device.reset_zone(0)
        assert device.zone(0).state is ZoneState.EMPTY


class TestOpenLruAccounting:
    """The monotonic-stamp LRU behind implicit-open eviction."""

    def test_open_order_is_lru_first(self):
        device = make_device()
        for zone in (0, 1, 2):
            device.write(zone, npages=1)
        assert device._open_order == [0, 1, 2]
        device.write(0, npages=1)  # touch 0: now the most recent
        assert device._open_order == [1, 2, 0]

    def test_eviction_closes_the_lru_zone(self):
        # Open limit below the active limit, so eviction (close) runs
        # before the active budget is ever at stake.
        geometry = ZonedGeometry(
            flash=tiny_geometry().flash,
            blocks_per_zone=2,
            max_active_zones=4,
            max_open_zones=2,
        )
        device = ZNSDevice(geometry)
        device.write(0, npages=1)
        device.write(1, npages=1)
        device.write(0, npages=1)  # 0 becomes MRU; 1 is now LRU
        device.write(2, npages=1)  # over the limit: evict LRU
        assert device.zone(1).state is ZoneState.CLOSED
        assert device.zone(0).state is ZoneState.IMPLICIT_OPEN

    def test_finish_and_reset_clear_the_stamp(self):
        device = make_device()
        device.write(0, npages=1)
        device.finish_zone(0)
        assert 0 not in device._open_order
        device.write(1, npages=1)
        device.reset_zone(1)
        assert 1 not in device._open_order


class TestTimedMgmtGate:
    def _device(self, **plan_kwargs):
        eng = Engine()
        tracer_log = _EventLog()
        plan = FaultPlan(**plan_kwargs) if plan_kwargs else None
        mgmt_timing = ZoneMgmtTiming(reset_us=5_000.0, finish_us=1_000.0)
        dev = TimedZNSDevice(eng, ZNSDevice(tiny_geometry(), mgmt_timing=mgmt_timing))
        if plan is not None:
            dev.device.nand.faults = FaultInjector(plan).bind(dev.tracer)
            dev.device.faults = dev.device.nand.faults
        dev.tracer.attach(tracer_log)
        return eng, dev, tracer_log

    def test_append_queues_behind_inflight_reset(self):
        eng, dev, log = self._device()
        dev.device.write(0, 4, build_ops=False)

        def driver():
            reset = dev.submit_reset(0)
            append = dev.submit_append(0)
            yield reset
            latency = yield append
            return latency

        latency = eng.run(until=eng.process(driver()))
        # The append arrived at t=0 but had to wait out the 5 ms zone hold.
        assert latency >= 5_000.0
        (event,) = [e for e in log.of_kind("zone-mgmt") if e.action == "reset"]
        assert event.queued_behind >= 1
        assert event.latency_us >= 5_000.0

    def test_other_zones_are_not_gated(self):
        eng, dev, _ = self._device()
        dev.device.write(0, 4, build_ops=False)
        dev.device.write(1, 1, build_ops=False)

        def driver():
            reset = dev.submit_reset(0)
            latency = yield dev.submit_read(1, 0)
            yield reset
            return latency

        latency = eng.run(until=eng.process(driver()))
        assert latency < 5_000.0

    def test_submit_finish_full_span_event(self):
        eng, dev, log = self._device()
        dev.device.write(0, npages=1)
        eng.run(until=dev.submit_finish(0))
        (event,) = [e for e in log.of_kind("zone-mgmt") if e.action == "finish"]
        assert event.latency_us >= 1_000.0
        assert dev.device.zone(0).state is ZoneState.FULL

    def test_inner_device_events_deferred_to_timed_wrapper(self):
        eng, dev, log = self._device()
        dev.device.write(0, 4, build_ops=False)
        eng.run(until=dev.submit_reset(0))
        resets = [e for e in log.of_kind("zone-mgmt") if e.action == "reset"]
        assert len(resets) == 1  # the timed span, not a device duplicate

    def test_no_gate_without_mgmt_timing(self):
        eng = Engine()
        dev = TimedZNSDevice(eng, ZNSDevice(tiny_geometry()))
        assert dev._mgmt_gates is None
        dev.device.write(0, 4, build_ops=False)
        eng.run(until=dev.submit_reset(0))
        assert dev.device.zone(0).state is ZoneState.EMPTY
