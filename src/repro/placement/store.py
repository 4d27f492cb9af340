"""A zoned object store with hint-directed placement.

Objects (contiguous runs of pages) are appended to open zones; the hint
policy decides *which* open zone. Deletion just marks pages dead. When
free zones run low the store reclaims: zones that are fully dead reset for
free; zones with survivors have them copied forward (via simple copy)
before reset -- and the fewer survivors placement leaves behind, the lower
the write amplification. This is the experimental apparatus for E9 and the
substrate for the flash cache (E13).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.block.interface import ZonedDevice
from repro.placement.hints import HintPolicy, no_hint
from repro.workloads.lifetime import ObjectEvent
from repro.zns.zone import ZoneState


class StoreFullError(Exception):
    """Live data exceeds what reclaim can recover."""


@dataclass
class StoredObject:
    """Location of one live object: zone and page extent within it."""

    obj_id: int
    zone: int
    offset: int
    size_pages: int


@dataclass
class StoreStats:
    """Reset accounting; the pages stored and relocated are the NAND's
    ``host`` and ``reclaim`` programs (``device.nand.counters``)."""

    zones_reset: int = 0
    free_resets: int = 0  # zones reclaimed with zero copying


class ZonedObjectStore:
    """Hint-directed object placement over a ZNS device.

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
        self.stats = StoreStats()
        self.objects: dict[int, StoredObject] = {}
        self._live: dict[int, int] = {}  # zone -> live page count
        self._zone_objects: dict[int, set[int]] = {}  # zone -> resident obj ids
        self._open_by_label: dict[str, int] = {}
        self._free: list[int] = list(range(device.zone_count))
        self._sealed: set[int] = set()
        self._in_reclaim = False

    # -- Introspection ---------------------------------------------------------

    @property
    def free_zone_count(self) -> int:
        return len(self._free)

    def live_pages(self, zone: int) -> int:
        return self._live.get(zone, 0)

    # -- Object operations --------------------------------------------------------

    def put(self, event: ObjectEvent) -> StoredObject:
        """Store one object per its create event; returns its location."""
        if event.obj_id in self.objects:
            raise ValueError(f"object {event.obj_id} already stored")
        if event.size_pages < 1:
            raise ValueError("objects must be at least one page")
        label = self.hint_policy(event)
        zone = self._open_zone_for(label, event.size_pages)
        offset = self.device.zone(zone).wp
        self.device.write(zone, npages=event.size_pages, build_ops=False)
        stored = StoredObject(event.obj_id, zone, offset, event.size_pages)
        self.objects[event.obj_id] = stored
        self._live[zone] = self._live.get(zone, 0) + event.size_pages
        self._zone_objects.setdefault(zone, set()).add(event.obj_id)
        self._seal_if_full(label, zone)
        return stored

    def delete(self, obj_id: int) -> None:
        """Mark an object dead; space is reclaimed lazily at reset time."""
        stored = self.objects.pop(obj_id, None)
        if stored is None:
            return
        self._live[stored.zone] -= stored.size_pages
        self._zone_objects[stored.zone].discard(obj_id)
        if self._live[stored.zone] < 0:
            raise AssertionError(f"zone {stored.zone} live count went negative")

    def contains(self, obj_id: int) -> bool:
        return obj_id in self.objects

    # -- Zone lifecycle --------------------------------------------------------------

    def _open_zone_for(self, label: str, size_pages: int) -> int:
        zone = self._open_by_label.get(label)
        if zone is not None and self.device.zone(zone).remaining >= size_pages:
            return zone
        if zone is not None:
            self._seal(label, zone)
        # Reclaim destinations draw from the reserve; re-entering reclaim
        # from inside an evacuation would double-collect the victim.
        if len(self._free) <= self.reserve_zones and not self._in_reclaim:
            self.reclaim(self.reserve_zones + 1)
            # Reclaim can open a frontier for this label while relocating;
            # reuse it rather than orphaning it with a fresh allocation.
            zone = self._open_by_label.get(label)
            if zone is not None and self.device.zone(zone).remaining >= size_pages:
                return zone
        if not self._free:
            raise StoreFullError("no free zones after reclaim")
        new_zone = self._free.pop(0)
        self._open_by_label[label] = new_zone
        return new_zone

    def _seal_if_full(self, label: str, zone: int) -> None:
        if self.device.zone(zone).remaining == 0:
            self._seal(label, zone)

    def _seal(self, label: str, zone: int) -> None:
        if self.device.zone(zone).state is not ZoneState.FULL:
            self.device.finish_zone(zone)
        self._sealed.add(zone)
        if self._open_by_label.get(label) == zone:
            del self._open_by_label[label]

    # -- Reclaim ------------------------------------------------------------------------

    def reclaim(self, target_free: int) -> None:
        """Reset zones until ``target_free`` are free, relocating survivors."""
        self._in_reclaim = True
        try:
            # Pass 1: free rides -- fully-dead zones reset with no copies.
            for zone in sorted(self._sealed):
                if len(self._free) >= target_free:
                    return
                if self._live.get(zone, 0) == 0:
                    self._reset(zone)
                    self.stats.free_resets += 1
            # Pass 2: greedy victims (fewest live pages), survivors relocated.
            while len(self._free) < target_free:
                if not self._sealed:
                    if self._free:
                        return  # best effort: nothing more is reclaimable
                    raise StoreFullError("nothing left to reclaim")
                victim = min(self._sealed, key=self.live_pages)
                if self._live.get(victim, 0) >= self.device.geometry.pages_per_zone:
                    # Every remaining candidate is fully live. That is fatal
                    # only if the store is actually out of writable space;
                    # otherwise reclaim is simply done for now.
                    if self._free:
                        return
                    raise StoreFullError("all candidate zones fully live")
                self._evacuate(victim)
                self._reset(victim)
        finally:
            self._in_reclaim = False

    def _evacuate(self, victim: int) -> None:
        """Copy the victim's live objects forward using simple copy."""
        for obj_id in sorted(self._zone_objects.get(victim, set())):
            stored = self.objects[obj_id]
            # Survivors are relocated into a dedicated stream; mixing them
            # back into hint streams would pollute those zones' lifetimes.
            dst_zone = self._open_zone_for("__relocated__", stored.size_pages)
            sources = [(victim, stored.offset + i) for i in range(stored.size_pages)]
            dst_offset, _ = self.device.simple_copy(sources, dst_zone)
            self.objects[obj_id] = StoredObject(
                obj_id, dst_zone, dst_offset, stored.size_pages
            )
            self._live[victim] -= stored.size_pages
            self._live[dst_zone] = self._live.get(dst_zone, 0) + stored.size_pages
            self._zone_objects[victim].discard(obj_id)
            self._zone_objects.setdefault(dst_zone, set()).add(obj_id)
            self._seal_if_full("__relocated__", dst_zone)

    def _reset(self, zone: int) -> None:
        if self._live.get(zone, 0) != 0:
            raise AssertionError(f"resetting zone {zone} with live data")
        self.device.reset_zone(zone)
        self._sealed.discard(zone)
        self._free.append(zone)
        self._zone_objects.pop(zone, None)
        self.stats.zones_reset += 1

    # -- Invariants (property tests) -----------------------------------------------------

    def check_invariants(self) -> None:
        live_by_zone: dict[int, int] = {}
        for stored in self.objects.values():
            live_by_zone[stored.zone] = live_by_zone.get(stored.zone, 0) + stored.size_pages
        for zone, count in self._live.items():
            assert live_by_zone.get(zone, 0) == count, f"zone {zone} live mismatch"
        open_zones = set(self._open_by_label.values())
        assert not (set(self._free) & self._sealed)
        assert not (set(self._free) & open_zones)


__all__ = ["StoredObject", "StoreFullError", "StoreStats", "ZonedObjectStore"]
