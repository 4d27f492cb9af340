"""Resilient host-side zone lifecycle management.

ZNS moves garbage collection to the host, but it also moves *zone
management* there: resets and finishes are real commands with real
latency, they occupy the zone while in flight, and they can fail
(transiently or by sticking open). A host that issues them inline on the
write path re-imports the tail-latency problem the paper says ZNS
eliminates -- "Eliminating the Hidden Cost of Zone Management in ZNS
SSDs" measures exactly this. The :class:`ZoneLifecycleManager` is the
host-side answer:

- **Reset-ahead**: keep a reserve of already-reset (EMPTY) zones so the
  foreground write path allocates from the reserve instead of paying a
  reset inline (:meth:`request_free_zone` / :meth:`note_reclaimable`).
- **Finish batching**: defer zone finishes (:meth:`defer_finish`) and
  flush them in scheduler-granted idle windows (:meth:`tick`), composing
  with the same :class:`~repro.hostio.scheduler.ReclaimScheduler`
  policies that pace host reclaim.
- **Bounded retry with backoff**: management commands that bounce with a
  :class:`~repro.zns.errors.RetryableZnsError` are retried up to
  ``max_retries`` times with exponential backoff, each failed attempt
  charged as management time so the cost is visible, not hidden.
- **Graceful degradation**: a zone whose management commands keep
  failing is quarantined -- removed from circulation, its capacity loss
  surfaced in :class:`ZoneLifecycleStats` -- and the reserve target
  shrinks rather than the host crashing or spinning.

Every method returns the :class:`~repro.flash.ops.FlashOp` records the
work produced (erases, management overhead, retry backoff), so both the
untimed busy-fold serving loop (:mod:`repro.fleet.rack`) and op-counting
hosts charge the time the same way device commands are charged.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.flash.ops import FlashOp, OpKind
from repro.flash.state import Replayable
from repro.hostio.scheduler import HostIOState, ReclaimScheduler
from repro.obs.events import RecoveryEvent
from repro.zns.errors import RetryableZnsError, ZnsError
from repro.zns.zone import ZoneState


@dataclass(frozen=True)
class ZoneLifecyclePolicy:
    """Tunables for the lifecycle manager.

    Parameters
    ----------
    reserve_zones:
        Target size of the reset-ahead free-zone reserve. The live
        target can shrink below this when zones are quarantined
        (graceful degradation); it never grows above it.
    finish_batch:
        Deferred finishes flushed per granted idle window.
    max_retries:
        Retries after the first attempt of a management command before
        the zone is quarantined.
    retry_backoff_us:
        Backoff before the first retry; doubles per subsequent retry.
        Charged as management time on the returned op stream.
    """

    reserve_zones: int = 2
    finish_batch: int = 4
    max_retries: int = 4
    retry_backoff_us: float = 200.0

    def __post_init__(self) -> None:
        if self.reserve_zones < 0:
            raise ValueError("reserve_zones must be >= 0")
        if self.finish_batch < 1:
            raise ValueError("finish_batch must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_us < 0:
            raise ValueError("retry_backoff_us must be >= 0")


@dataclass
class ZoneLifecycleStats:
    """What zone management cost and how often it misbehaved."""

    resets: int = 0
    finishes: int = 0
    deferred_finishes: int = 0
    reset_ahead: int = 0
    reserve_hits: int = 0
    reserve_misses: int = 0
    retries: int = 0
    backoff_us: float = 0.0
    zones_quarantined: int = 0
    capacity_lost_pages: int = 0

    def to_dict(self) -> dict[str, float]:
        return {
            "resets": self.resets,
            "finishes": self.finishes,
            "deferred_finishes": self.deferred_finishes,
            "reset_ahead": self.reset_ahead,
            "reserve_hits": self.reserve_hits,
            "reserve_misses": self.reserve_misses,
            "retries": self.retries,
            "backoff_us": self.backoff_us,
            "zones_quarantined": self.zones_quarantined,
            "capacity_lost_pages": self.capacity_lost_pages,
        }


class ZoneLifecycleManager(Replayable):
    """Routes zone resets/finishes through a resilient, off-path policy.

    Parameters
    ----------
    device:
        The :class:`~repro.zns.device.ZNSDevice` whose management
        commands this manager issues (possibly the inner device of a
        zoned block translation layer).
    policy:
        Tunables; defaults are modest (small reserve, short backoff).
    scheduler:
        Optional :class:`~repro.hostio.scheduler.ReclaimScheduler`
        gating :meth:`tick`'s background work. ``None`` means every
        tick is a granted window.
    """

    def __init__(
        self,
        device,
        policy: ZoneLifecyclePolicy | None = None,
        scheduler: ReclaimScheduler | None = None,
    ):
        self.device = device
        self.policy = policy if policy is not None else ZoneLifecyclePolicy()
        self.scheduler = scheduler
        self.stats = ZoneLifecycleStats()
        self._reserve: deque[int] = deque()
        self._pending_reset: deque[int] = deque()
        self._deferred_finish: deque[int] = deque()
        self._quarantined: set[int] = set()
        self._reserve_target = self.policy.reserve_zones

    # -- Introspection -------------------------------------------------------

    @property
    def reserve_size(self) -> int:
        return len(self._reserve)

    @property
    def reserve_target(self) -> int:
        """Live reserve target; shrinks as zones are quarantined."""
        return self._reserve_target

    @property
    def backlog(self) -> int:
        """Deferred work not yet flushed (finishes + pending resets)."""
        return len(self._deferred_finish) + len(self._pending_reset)

    def is_quarantined(self, zone_id: int) -> bool:
        return zone_id in self._quarantined

    @property
    def quarantined_zones(self) -> tuple[int, ...]:
        """Zones pulled from circulation, ascending (capacity audit)."""
        return tuple(sorted(self._quarantined))

    # -- Foreground path -----------------------------------------------------

    def request_free_zone(self) -> int | None:
        """Pop a reset-ahead zone, or None if the reserve is dry.

        A dry reserve is the degraded path: the caller resets inline via
        :meth:`reset_now` and eats the latency, which is exactly the
        hidden cost the reserve exists to keep off the foreground path.
        """
        if self._reserve:
            self.stats.reserve_hits += 1
            return self._reserve.popleft()
        self.stats.reserve_misses += 1
        return None

    def note_reclaimable(self, zone_id: int) -> None:
        """Hand a drained zone over for background reset-ahead."""
        if zone_id not in self._quarantined:
            self._pending_reset.append(zone_id)

    def defer_finish(self, zone_id: int) -> None:
        """Queue a finish for the next granted idle window."""
        if zone_id not in self._quarantined:
            self._deferred_finish.append(zone_id)
            self.stats.deferred_finishes += 1

    def reset_now(self, zone_id: int) -> list[FlashOp]:
        """Reset inline with bounded retry; ops include any retry cost.

        On permanent failure the zone is quarantined (not raised): check
        the zone's state or :meth:`is_quarantined` when it matters.
        """
        ops, ok = self._with_retries(self.device.reset_zone, zone_id, "reset")
        if ok:
            self.stats.resets += 1
        return ops

    def finish_now(self, zone_id: int) -> list[FlashOp]:
        """Finish inline with bounded retry; ops include any retry cost."""
        ops, ok = self._with_retries(self.device.finish_zone, zone_id, "finish")
        if ok:
            self.stats.finishes += 1
        return ops

    # -- Background path -----------------------------------------------------

    def tick(
        self, state: HostIOState | None = None, budget_us: float | None = None
    ) -> list[FlashOp]:
        """One background pass: flush deferred work if the window is granted.

        Flushes up to ``finish_batch`` deferred finishes, then resets
        handed-back zones into the reserve until it meets the (possibly
        degraded) target. Returns every op the pass produced so callers
        charge the background time explicitly.

        ``budget_us`` bounds the reset-ahead portion to the idle window
        the caller actually has: each pending reset is priced with the
        device FTL's :meth:`~repro.zns.ftl.ZnsFTL.reset_cost_us` (plus
        the management hold, when timed) *before* issuing, and a reset
        that would overflow the remaining budget stays queued for the
        next window. The first reset of a window always proceeds, so a
        window smaller than one erase still makes progress instead of
        starving the reserve. ``None`` means unbounded.
        """
        if self.scheduler is not None:
            if not self.scheduler.may_reclaim(state if state is not None else HostIOState()):
                return []
        ops: list[FlashOp] = []
        for _ in range(min(self.policy.finish_batch, len(self._deferred_finish))):
            zone_id = self._deferred_finish.popleft()
            zops, ok = self._with_retries(self.device.finish_zone, zone_id, "finish")
            ops.extend(zops)
            if ok:
                self.stats.finishes += 1
        spent = 0.0
        while len(self._reserve) < self._reserve_target and self._pending_reset:
            zone_id = self._pending_reset[0]
            if budget_us is not None and spent > 0:
                if spent + self.reset_estimate_us(zone_id) > budget_us:
                    break
            self._pending_reset.popleft()
            zops, ok = self._with_retries(self.device.reset_zone, zone_id, "reset")
            ops.extend(zops)
            spent += sum(op.latency_us for op in zops)
            if ok:
                self._reserve.append(zone_id)
                self.stats.reset_ahead += 1
                self.stats.resets += 1
        return ops

    def reset_estimate_us(self, zone_id: int) -> float:
        """Predicted cost of resetting ``zone_id``, without issuing it.

        The erase physics come from the device FTL's zone->block map
        (:meth:`~repro.zns.ftl.ZnsFTL.reset_cost_us`); the management
        hold is added when the device prices zone commands. Used by
        :meth:`tick` to fit reset-ahead work into a bounded idle window.
        """
        ftl = getattr(self.device, "ftl", None)
        estimate = ftl.reset_cost_us(zone_id) if ftl is not None else 0.0
        timing = getattr(self.device, "mgmt_timing", None)
        if timing is not None:
            estimate += timing.reset_us
        return estimate

    # -- Internals -----------------------------------------------------------

    def _with_retries(
        self, command, zone_id: int, action: str
    ) -> tuple[list[FlashOp], bool]:
        """Issue ``command`` with bounded retry-with-backoff.

        Each bounced attempt charges its consumed device time (finish
        timeouts) plus the backoff before the next try, synthesized as
        management ops so the cost lands on the same accounting stream
        as real commands. Exhausting retries quarantines the zone.
        """
        ops: list[FlashOp] = []
        backoff = self.policy.retry_backoff_us
        for attempt in range(self.policy.max_retries + 1):
            try:
                ops.extend(command(zone_id))
                return ops, True
            except RetryableZnsError as err:
                last_try = attempt == self.policy.max_retries
                penalty = err.latency_us
                if not last_try:
                    self.stats.retries += 1
                    self.stats.backoff_us += backoff
                    penalty += backoff
                    backoff *= 2.0
                if penalty:
                    ops.append(
                        FlashOp(OpKind.MGMT, 0, None, penalty, uses_channel=False)
                    )
            except ZnsError:
                # Non-retryable (offline, state violation): the caller's
                # problem, not a transient to spin on.
                raise
        self._quarantine(zone_id, action)
        return ops, False

    def _quarantine(self, zone_id: int, action: str) -> None:
        """Give up on a zone: pull it from circulation, surface the loss."""
        if zone_id in self._quarantined:
            return
        self._quarantined.add(zone_id)
        self.stats.zones_quarantined += 1
        zone = self.device.zone(zone_id)
        self.stats.capacity_lost_pages += zone.capacity_pages
        # Degrade the reserve target instead of spinning on a zone that
        # will never come back; capacity loss is surfaced, not fatal.
        if self._reserve_target > 0:
            self._reserve_target -= 1
        tracer = self.device.tracer
        if tracer.enabled:
            tracer.publish(
                RecoveryEvent(
                    "hostio.zonelife", "zone-quarantined", zone=zone_id,
                    pages_moved=0, detail=f"{action} retries exhausted",
                )
            )

    def check_invariants(self) -> None:
        """Each zone sits in at most one queue, once; reserve zones are
        EMPTY; quarantined zones sit in none."""
        queued: set[int] = set()
        for name in ("_reserve", "_pending_reset", "_deferred_finish"):
            queue = getattr(self, name)
            assert len(set(queue)) == len(queue), f"a zone is twice in {name}"
            assert not queued & set(queue), f"a zone in {name} sits in another queue too"
            queued |= set(queue)
        for zone_id in self._reserve:
            state = self.device.zone(zone_id).state
            assert state is ZoneState.EMPTY, f"reserve zone {zone_id} is {state.name}"
        assert not queued & self._quarantined, "a quarantined zone sits in a queue"


__all__ = ["ZoneLifecycleManager", "ZoneLifecyclePolicy", "ZoneLifecycleStats"]
