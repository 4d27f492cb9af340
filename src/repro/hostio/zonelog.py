"""One host zone log: the zone pool dm-zoned, the placement store and the
LSM zoned backend share, in wiscsee's block-pool idiom (a free list and an
appending point for each purpose) with a greedy victim. Each caller keeps
its own mapping (LBAs, objects, extents) and relocation.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from typing import Any

import numpy as np

from repro.flash.state import Replayable
from repro.zns.zone import ZoneState


class ZoneLogFull(Exception):
    """Live data exceeds what reclaim can recover."""


class ZoneLog(Replayable):
    """Free list, stream frontiers, live pages and sealed victims of a device.

    Seals and resets go through ``lifecycle`` (a ``ZoneLifecycleManager``)
    when one is given; :meth:`open` reclaims at ``reserve`` free zones.
    """

    def __init__(self, device, lifecycle: Any = None, reserve: int = 0):
        if lifecycle is not None and lifecycle.device is not device:
            raise ValueError("lifecycle manager must wrap the same device")
        self.device = device
        self.lifecycle = lifecycle
        self.reserve = reserve
        zones = device.zone_count
        self.free: list[int] = list(range(zones))  # FIFO
        self.frontiers: dict[str, int] = {}
        # Per-page paths index the views (plain ints); scans use the arrays.
        self.live = np.zeros(zones, dtype=np.int32)
        self.live_v = memoryview(self.live)
        self.sealed = np.zeros(zones, dtype=bool)
        self.sealed_v = memoryview(self.sealed)
        self.dropped: set[int] = set()
        self.resets = 0
        self.free_resets = 0  # resets with nothing relocated
        self._reclaiming = False

    def take(self, stream: str, on_lost: Callable[[int], Any] | None = None) -> int | None:
        """Open the oldest free zone as ``stream``'s frontier; ``on_lost`` drops unwritable ones."""
        while self.free:
            zone = self.free.pop(0)
            if self.device.zone(zone).is_writable:
                self.frontiers[stream] = zone
                return zone
            (on_lost or self.drop)(zone)
        return None

    def frontier(self, stream: str, need: int = 1) -> int | None:
        """``stream``'s open zone if ``need`` pages fit; a frontier without room is sealed."""
        zone = self.frontiers.get(stream)
        if zone is None or self.device.zone(zone).remaining >= need:
            return zone
        self.seal(zone)
        return None

    def open(self, stream: str, need: int, evacuate: Callable, pinned=None) -> int:
        """The zone ``stream``'s next ``need`` pages go to. With no room open
        and the free list at the reserve, reclaim (sparing ``pinned()``)
        first; raises :class:`ZoneLogFull` if it falls short."""
        zone = self.frontier(stream, need)
        if zone is None and len(self.free) <= self.reserve and not self._reclaiming:
            short = self.reclaim(self.reserve + 1, evacuate, pinned() if pinned else ())
            if short:
                raise ZoneLogFull(short)
            # Relocation may have opened this stream's frontier; reuse it.
            # (Its own opens never reclaim: that would collect a victim twice.)
            zone = self.frontier(stream, need)
        if zone is None:
            zone = self.take(stream)
        if zone is None:
            raise ZoneLogFull("no free zones")
        return zone

    def add(self, zone: int, pages: int) -> None:
        """Count ``pages`` just written to ``zone`` live; a zone left without room seals."""
        self.live_v[zone] += pages
        if not self.device.zone(zone).remaining:
            self.seal(zone)

    def seal(self, zone: int) -> list:
        """Close ``zone`` to appends and make it a victim; finish it if still active."""
        self.sealed_v[zone] = True
        self.frontiers = {s: z for s, z in self.frontiers.items() if z != zone}
        if self.device.zone(zone).state.is_active:
            if self.lifecycle is not None:
                return self.lifecycle.finish_now(zone)
            return self.device.finish_zone(zone)
        return []

    def victim(self, exclude: Collection[int] = ()) -> int | None:
        """The sealed zone with the fewest live pages, the lowest id on a tie."""
        ids = self.sealed.nonzero()[0]
        if exclude:
            ids = ids[~np.isin(ids, list(exclude))]
        if not ids.size:
            return None
        return int(ids[self.live[ids].argmin()])

    def reset(self, zone: int, free: bool = False) -> list:
        """Reset a drained ``zone`` onto the free list (``free``: nothing was
        relocated); one left other than EMPTY (offline, quarantined) is dropped."""
        if self.live_v[zone]:
            raise AssertionError(f"resetting zone {zone} with live data")
        if self.lifecycle is not None:
            ops = self.lifecycle.reset_now(zone)
        else:
            ops = self.device.reset_zone(zone)
        self.sealed_v[zone] = False
        self.resets += 1
        self.free_resets += free
        if self.device.zone(zone).state is ZoneState.EMPTY:
            self.free.append(zone)
        else:
            self.dropped.add(zone)
        return ops

    def reclaim(self, target: int, evacuate: Callable, exclude: Collection = ()) -> str | None:
        """Reset greedy victims until ``target`` zones are free, ``evacuate(zone)``
        moving each one's survivors out first; returns why it fell short, or None."""
        self._reclaiming = True
        try:
            while len(self.free) < target:
                victim = self.victim(exclude)
                if victim is None:
                    return "nothing to reclaim"
                live = self.live_v[victim]
                if live >= self.device.geometry.pages_per_zone:
                    return "all zones fully live"
                evacuate(victim)
                self.reset(victim, free=not live)
            return None
        finally:
            self._reclaiming = False

    def drop(self, zone: int) -> bool:
        """Forget a zone that left circulation; True only the first time."""
        if zone in self.dropped:
            return False
        self.dropped.add(zone)
        self.sealed_v[zone] = False
        self.live_v[zone] = 0
        if zone in self.free:
            self.free.remove(zone)
        self.frontiers = {s: z for s, z in self.frontiers.items() if z != zone}
        return True

    def check_invariants(self) -> None:
        for name in ("live", "sealed"):
            view = getattr(self, name + "_v")
            assert view.obj is getattr(self, name), f"{name} rebound away from its view"
        idle = self.free + sorted(self.dropped)
        parts = idle + list(self.frontiers.values()) + np.flatnonzero(self.sealed).tolist()
        assert sorted(parts) == list(range(self.device.zone_count)), (
            "free, open, sealed and dropped zones do not partition the device"
        )
        assert (self.live >= 0).all(), "a live count went negative"
        assert not self.live[idle].any(), "a free or dropped zone counts live pages"
        if self.lifecycle is not None:
            self.lifecycle.check_invariants()


__all__ = ["ZoneLog", "ZoneLogFull"]
