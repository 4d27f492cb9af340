"""A zoned object store with hint-directed placement.

Objects (contiguous runs of pages) are appended to open zones; the hint
policy decides *which* open zone. Deletion just marks pages dead. When
free zones run low the store reclaims the emptiest zones first: fully dead
ones reset for free; survivors are copied forward (via simple copy)
before reset -- and the fewer survivors placement leaves behind, the lower
the write amplification. This is the experimental apparatus for E9 and the
substrate for the flash cache (E13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.block.interface import ZonedDevice
from repro.hostio.zonelog import ZoneLog, ZoneLogFull
from repro.placement.hints import HintPolicy, no_hint
from repro.workloads.lifetime import ObjectEvent

#: Live data exceeds what reclaim can recover.
StoreFullError = ZoneLogFull


@dataclass
class StoredObject:
    """Location of one live object: zone and page extent within it."""

    obj_id: int
    zone: int
    offset: int
    size_pages: int


class ZonedObjectStore:
    """Hint-directed object placement over a ZNS device.

    The zone pool (free list, one frontier per label, live pages, greedy
    victims and resets) is a :class:`~repro.hostio.zonelog.ZoneLog`, whose
    ``resets``/``free_resets`` count reclaim; the store keeps its objects.

    Parameters
    ----------
    device:
        The backing zoned device (any
        :class:`~repro.block.interface.ZonedDevice`).
    hint_policy:
        Maps create events to placement labels; one open zone per label.
    reserve_zones:
        Free zones the store keeps in reserve for reclaim destinations.
    """

    def __init__(
        self,
        device: ZonedDevice,
        hint_policy: HintPolicy = no_hint,
        reserve_zones: int = 2,
    ):
        if device.zone_count <= reserve_zones + 1:
            raise ValueError("device too small for the configured reserve")
        self.device = device
        self.hint_policy = hint_policy
        self.reserve_zones = reserve_zones
        self.log = ZoneLog(device, reserve=reserve_zones)
        self.objects: dict[int, StoredObject] = {}
        self._zone_objects: dict[int, set[int]] = {}  # zone -> resident obj ids

    # -- Object operations --------------------------------------------------------

    def put(self, event: ObjectEvent) -> StoredObject:
        """Store one object per its create event; returns its location."""
        if event.obj_id in self.objects:
            raise ValueError(f"object {event.obj_id} already stored")
        if event.size_pages < 1:
            raise ValueError("objects must be at least one page")
        if event.size_pages > self.device.geometry.pages_per_zone:
            raise ValueError("objects must fit in one zone")
        zone = self.log.open(self.hint_policy(event), event.size_pages, self._evacuate)
        offset = self.device.zone(zone).wp
        self.device.write(zone, npages=event.size_pages, build_ops=False)
        stored = StoredObject(event.obj_id, zone, offset, event.size_pages)
        self.objects[event.obj_id] = stored
        self._zone_objects.setdefault(zone, set()).add(event.obj_id)
        self.log.add(zone, event.size_pages)
        return stored

    def delete(self, obj_id: int) -> None:
        """Mark an object dead; space is reclaimed lazily at reset time."""
        stored = self.objects.pop(obj_id, None)
        if stored is None:
            return
        live = self.log.live_v[stored.zone] - stored.size_pages
        if live < 0:
            raise AssertionError(f"zone {stored.zone} live count went negative")
        self.log.live_v[stored.zone] = live
        self._zone_objects[stored.zone].discard(obj_id)

    def contains(self, obj_id: int) -> bool:
        return obj_id in self.objects

    # -- Reclaim ------------------------------------------------------------------------

    def _evacuate(self, victim: int) -> None:
        """Copy the victim's live objects forward using simple copy."""
        for obj_id in sorted(self._zone_objects.pop(victim, ())):
            stored = self.objects[obj_id]
            # Survivors are relocated into a dedicated stream; mixing them
            # back into hint streams would pollute those zones' lifetimes.
            dst_zone = self.log.open("__relocated__", stored.size_pages, self._evacuate)
            sources = [(victim, stored.offset + i) for i in range(stored.size_pages)]
            dst_offset, _ = self.device.simple_copy(sources, dst_zone, build_ops=False)
            self.objects[obj_id] = StoredObject(
                obj_id, dst_zone, dst_offset, stored.size_pages
            )
            self.log.live_v[victim] -= stored.size_pages
            self._zone_objects.setdefault(dst_zone, set()).add(obj_id)
            self.log.add(dst_zone, stored.size_pages)

    # -- Invariants (property tests) -----------------------------------------------------

    def check_invariants(self) -> None:
        live = [0] * self.device.zone_count
        for stored in self.objects.values():
            live[stored.zone] += stored.size_pages
        assert live == self.log.live.tolist(), "live counts disagree with the objects"
        self.log.check_invariants()


__all__ = ["StoredObject", "StoreFullError", "ZonedObjectStore"]
