"""ZoneLifecycleManager: reset-ahead, finish batching, retry, quarantine."""

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.ops import OpKind
from repro.hostio.scheduler import HostIOState, ReclaimScheduler
from repro.hostio.zonelife import (
    ZoneLifecycleManager,
    ZoneLifecyclePolicy,
    ZoneLifecycleStats,
)
from repro.zns.device import ZNSDevice
from repro.zns.errors import ZoneOfflineError, ZoneResetFailedError
from repro.zns.zone import ZoneState


def tiny_geometry() -> ZonedGeometry:
    flash = FlashGeometry(
        page_size=512,
        pages_per_block=8,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )
    return ZonedGeometry(flash=flash, blocks_per_zone=2, max_active_zones=8)


class BouncyDevice(ZNSDevice):
    """Real device whose resets bounce a scripted number of times."""

    def __init__(self, geometry, bounces: int, latency_us: float = 500.0):
        super().__init__(geometry)
        self.bounces_left = bounces
        self.bounce_latency_us = latency_us

    def reset_zone(self, zone_id: int):
        if self.bounces_left > 0:
            self.bounces_left -= 1
            raise ZoneResetFailedError("scripted bounce", latency_us=self.bounce_latency_us)
        return super().reset_zone(zone_id)


class _FlagScheduler(ReclaimScheduler):
    name = "flag"

    def __init__(self, granted: bool):
        self.granted = granted
        self.seen: list[HostIOState] = []

    def may_reclaim(self, state: HostIOState) -> bool:
        self.seen.append(state)
        return self.granted


class _EventLog:
    def __init__(self):
        self.events = []

    def on_event(self, event) -> None:
        self.events.append(event)


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            ZoneLifecyclePolicy(reserve_zones=-1)
        with pytest.raises(ValueError):
            ZoneLifecyclePolicy(finish_batch=0)
        with pytest.raises(ValueError):
            ZoneLifecyclePolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ZoneLifecyclePolicy(retry_backoff_us=-1.0)


class TestReserve:
    def test_dry_reserve_misses(self):
        manager = ZoneLifecycleManager(ZNSDevice(tiny_geometry()))
        assert manager.request_free_zone() is None
        assert manager.stats.reserve_misses == 1
        assert manager.stats.reserve_hits == 0
        manager.check_invariants()

    def test_tick_resets_ahead_and_fills_the_reserve(self):
        device = ZNSDevice(tiny_geometry())
        manager = ZoneLifecycleManager(
            device, policy=ZoneLifecyclePolicy(reserve_zones=2)
        )
        for zone_id in (0, 1, 2):
            device.write(zone_id, device.zone(zone_id).capacity_pages, build_ops=False)
            assert device.zone(zone_id).state is ZoneState.FULL
            manager.note_reclaimable(zone_id)
        assert manager.backlog == 3
        ops = manager.tick()
        # The reserve fills only to target; the third zone stays queued.
        assert manager.reserve_size == 2
        assert manager.backlog == 1
        assert manager.stats.reset_ahead == 2
        assert manager.stats.resets == 2
        assert device.zone(0).state is ZoneState.EMPTY
        assert device.zone(1).state is ZoneState.EMPTY
        assert device.zone(2).state is ZoneState.FULL
        assert all(op.kind in (OpKind.ERASE, OpKind.MGMT) for op in ops)
        # Foreground allocation now hits.
        assert manager.request_free_zone() == 0
        assert manager.stats.reserve_hits == 1
        manager.check_invariants()

    def test_budgeted_tick_fits_the_window_but_always_progresses(self):
        device = ZNSDevice(tiny_geometry())
        manager = ZoneLifecycleManager(
            device, policy=ZoneLifecyclePolicy(reserve_zones=3)
        )
        for zone_id in (0, 1, 2):
            device.write(zone_id, device.zone(zone_id).capacity_pages, build_ops=False)
            manager.note_reclaimable(zone_id)
        # Each reset is priced from the FTL's zone->block map.
        estimate = manager.reset_estimate_us(0)
        assert estimate == device.ftl.reset_cost_us(0) > 0
        # A window smaller than one erase still resets exactly one zone.
        manager.tick(budget_us=estimate / 10)
        assert manager.reserve_size == 1
        # A window fitting two more drains the rest of the target.
        manager.tick(budget_us=2 * estimate)
        assert manager.reserve_size == 3
        assert manager.stats.reset_ahead == 3
        manager.check_invariants()

    def test_reset_now_counts_and_resets(self):
        device = ZNSDevice(tiny_geometry())
        device.write(0, device.zone(0).capacity_pages, build_ops=False)
        manager = ZoneLifecycleManager(device)
        manager.reset_now(0)
        assert device.zone(0).state is ZoneState.EMPTY
        assert manager.stats.resets == 1
        manager.check_invariants()


class TestDeferredFinish:
    def test_flushes_in_finish_batch_sized_windows(self):
        device = ZNSDevice(tiny_geometry())
        manager = ZoneLifecycleManager(
            device, policy=ZoneLifecyclePolicy(reserve_zones=0, finish_batch=2)
        )
        for zone_id in range(3):
            device.append(zone_id, npages=1)
            manager.defer_finish(zone_id)
        assert manager.stats.deferred_finishes == 3
        assert manager.backlog == 3
        manager.tick()
        assert manager.stats.finishes == 2
        assert device.zone(0).state is ZoneState.FULL
        assert device.zone(1).state is ZoneState.FULL
        assert device.zone(2).state is ZoneState.IMPLICIT_OPEN
        manager.tick()
        assert manager.backlog == 0
        assert device.zone(2).state is ZoneState.FULL
        manager.check_invariants()

    def test_finish_now_is_inline(self):
        device = ZNSDevice(tiny_geometry())
        device.append(0, npages=1)
        manager = ZoneLifecycleManager(device)
        manager.finish_now(0)
        assert device.zone(0).state is ZoneState.FULL
        assert manager.stats.finishes == 1
        manager.check_invariants()


class TestRetryWithBackoff:
    def test_bounces_are_retried_and_charged(self):
        device = BouncyDevice(tiny_geometry(), bounces=2, latency_us=500.0)
        device.write(0, device.zone(0).capacity_pages, build_ops=False)
        manager = ZoneLifecycleManager(
            device,
            policy=ZoneLifecyclePolicy(max_retries=4, retry_backoff_us=200.0),
        )
        ops = manager.reset_now(0)
        assert device.zone(0).state is ZoneState.EMPTY
        assert manager.stats.resets == 1
        assert manager.stats.retries == 2
        # Backoff doubles: 200 then 400.
        assert manager.stats.backoff_us == pytest.approx(600.0)
        mgmt = [op for op in ops if op.kind is OpKind.MGMT]
        # Each bounce charges consumed device time + the next backoff.
        assert [op.latency_us for op in mgmt] == [700.0, 900.0]
        assert all(not op.uses_channel for op in mgmt)
        assert any(op.kind is OpKind.ERASE for op in ops)
        manager.check_invariants()

    def test_non_retryable_errors_propagate(self):
        plan = FaultPlan(zone_offline_at=((0, 1),))
        device = ZNSDevice(tiny_geometry(), faults=FaultInjector(plan))
        device.write(0, npages=1)
        assert device.zone(1).state is ZoneState.OFFLINE
        manager = ZoneLifecycleManager(device)
        with pytest.raises(ZoneOfflineError):
            manager.finish_now(1)
        assert not manager.is_quarantined(1)
        manager.check_invariants()


class TestQuarantine:
    def _exhausted(self, max_retries: int = 2):
        device = BouncyDevice(tiny_geometry(), bounces=10**9, latency_us=300.0)
        device.write(0, device.zone(0).capacity_pages, build_ops=False)
        log = device.tracer.attach(_EventLog())
        manager = ZoneLifecycleManager(
            device,
            policy=ZoneLifecyclePolicy(
                reserve_zones=2, max_retries=max_retries, retry_backoff_us=100.0
            ),
        )
        ops = manager.reset_now(0)
        return device, manager, log, ops

    def test_exhausted_retries_quarantine_and_degrade(self):
        device, manager, log, ops = self._exhausted(max_retries=2)
        assert manager.is_quarantined(0)
        assert manager.quarantined_zones == (0,)
        assert manager.stats.zones_quarantined == 1
        assert manager.stats.retries == 2  # the final attempt is not a retry
        assert manager.stats.capacity_lost_pages == device.zone(0).capacity_pages
        # Graceful degradation: the reserve aims lower instead of spinning.
        assert manager.reserve_target == 1
        assert manager.stats.resets == 0
        # Every attempt charged: 2 with backoff (300+100, 300+200), last bare.
        mgmt = [op.latency_us for op in ops if op.kind is OpKind.MGMT]
        assert mgmt == [400.0, 500.0, 300.0]
        events = [e for e in log.events if getattr(e, "kind", None) == "recovery"]
        assert len(events) == 1
        assert events[0].action == "zone-quarantined"
        assert events[0].zone == 0
        manager.check_invariants()

    def test_quarantined_zones_leave_circulation(self):
        _, manager, _, _ = self._exhausted()
        manager.note_reclaimable(0)
        manager.defer_finish(0)
        assert manager.backlog == 0
        # Re-quarantining is idempotent.
        manager._quarantine(0, "reset")
        assert manager.stats.zones_quarantined == 1
        assert manager.reserve_target == 1
        manager.check_invariants()

    def test_stats_round_trip(self):
        _, manager, _, _ = self._exhausted()
        payload = manager.stats.to_dict()
        assert payload["zones_quarantined"] == 1
        assert payload["retries"] == 2
        assert set(payload) == set(ZoneLifecycleStats().to_dict())
        manager.check_invariants()


class TestSchedulerGating:
    def test_denied_window_defers_everything(self):
        device = ZNSDevice(tiny_geometry())
        device.write(0, device.zone(0).capacity_pages, build_ops=False)
        scheduler = _FlagScheduler(granted=False)
        manager = ZoneLifecycleManager(device, scheduler=scheduler)
        manager.note_reclaimable(0)
        assert manager.tick() == []
        assert manager.reserve_size == 0
        assert manager.backlog == 1
        assert len(scheduler.seen) == 1
        scheduler.granted = True
        manager.tick(HostIOState(now=5.0))
        assert manager.reserve_size == 1
        assert scheduler.seen[-1].now == 5.0
        manager.check_invariants()


class TestTimedLifecycleWiring:
    def test_timed_host_rejects_a_foreign_lifecycle(self):
        """The layer a timed host wraps refuses a manager of another
        device: its zone log checks, so every owner of a log does."""
        from repro.block.dmzoned import ZonedBlockDevice

        geometry = tiny_geometry()
        stranger = ZNSDevice(geometry)
        lifecycle = ZoneLifecycleManager(stranger)
        with pytest.raises(ValueError, match="same device"):
            ZonedBlockDevice(ZNSDevice(geometry), lifecycle=lifecycle)


class TestCheckInvariants:
    """Each queue rule of ``check_invariants``, broken once."""

    @staticmethod
    def _queued():
        device = ZNSDevice(tiny_geometry())
        manager = ZoneLifecycleManager(device, policy=ZoneLifecyclePolicy(reserve_zones=1))
        for zone_id in (0, 1, 2):
            device.write(zone_id, device.zone(zone_id).capacity_pages, build_ops=False)
            manager.note_reclaimable(zone_id)
        manager.tick()  # zone 0 resets into the reserve; 1 and 2 stay pending
        manager.check_invariants()
        return device, manager

    def test_a_zone_twice_in_one_queue(self):
        _, manager = self._queued()
        manager.note_reclaimable(1)
        with pytest.raises(AssertionError, match="twice in _pending_reset"):
            manager.check_invariants()

    def test_a_zone_in_two_queues(self):
        _, manager = self._queued()
        manager.defer_finish(2)
        with pytest.raises(AssertionError, match="in _deferred_finish sits in another queue"):
            manager.check_invariants()

    def test_a_written_reserve_zone(self):
        device, manager = self._queued()
        device.write(0, npages=1)
        with pytest.raises(AssertionError, match="reserve zone 0 is IMPLICIT_OPEN"):
            manager.check_invariants()

    def test_a_quarantined_zone_in_a_queue(self):
        _, manager = self._queued()
        manager._quarantined.add(2)
        with pytest.raises(AssertionError, match="quarantined zone sits in a queue"):
            manager.check_invariants()
