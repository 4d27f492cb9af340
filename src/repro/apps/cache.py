"""Flash caches: set-associative (block) vs log-structured (ZNS).

The paper repeatedly cites flash caching (CacheLib, RIPQ, Flashield) as
the workload that suffers most from the block interface: small-object
caches want to admit and evict individual objects, but doing so in place
means random 4 KiB writes -- the FTL's worst case. Production systems work
around it with DRAM staging buffers (§4.1's "buffers no longer necessary"
observation). On ZNS the cache can be a zone-granular FIFO log where
eviction is a zone reset: WA is 1 by construction.

Two designs over the same workload (E13):

- :class:`SetAssociativeCache` -- hash-bucketed in-place cache over a
  block device (CacheLib BigHash flavor, no DRAM buffer).
- :class:`ZoneLogCache` -- append-only zone log with FIFO eviction and
  optional hot-object readmission (RIPQ flavor).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.block.interface import BlockDevice
from repro.zns.device import ZNSDevice
from repro.zns.zone import ZoneState


@dataclass
class CacheStats:
    gets: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    readmissions: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0


class SetAssociativeCache:
    """In-place hash-bucketed object cache over a block device.

    Each object hashes to one of ``num_sets`` single-page sets holding
    ``ways`` object slots. Admission rewrites the whole set page (the
    read-modify-write of small-object caches); eviction is implicit
    (overwritten slot). Every admission is one random 4 KiB write -- on a
    conventional SSD this drives the FTL toward its random-write WA.
    """

    def __init__(self, device: BlockDevice, ways: int = 4):
        if ways < 1:
            raise ValueError("ways must be >= 1")
        self.device = device
        self.ways = ways
        self.num_sets = device.num_blocks
        self.stats = CacheStats()
        # Metadata mirror of on-flash contents: set -> list of obj ids (LRU
        # order, newest last). The device carries the I/O cost.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def _set_of(self, obj_id: int) -> int:
        return hash(obj_id) % self.num_sets

    def get(self, obj_id: int) -> bool:
        """Lookup; a hit costs one page read."""
        self.stats.gets += 1
        idx = self._set_of(obj_id)
        bucket = self._sets[idx]
        if obj_id in bucket:
            self.device.read_block(idx)
            bucket.remove(obj_id)
            bucket.append(obj_id)  # LRU bump (metadata only)
            self.stats.hits += 1
            return True
        return False

    def admit(self, obj_id: int) -> None:
        """Insert after a miss; rewrites the set's page in place."""
        idx = self._set_of(obj_id)
        bucket = self._sets[idx]
        if obj_id in bucket:
            return
        if len(bucket) >= self.ways:
            bucket.pop(0)
            self.stats.evictions += 1
        bucket.append(obj_id)
        self.device.write_block(idx)
        self.stats.insertions += 1


class ZoneLogCache:
    """Append-only FIFO cache over zones (RIPQ/CacheLib-on-ZNS flavor).

    Objects append to the open zone; when the device runs out of free
    zones the oldest zone is evicted wholesale via reset. Optionally,
    objects hit since insertion are *readmitted* (re-appended) before the
    reset -- trading a little WA for hit ratio, exactly the knob the
    host controls on ZNS.
    """

    def __init__(self, device: ZNSDevice, readmit_hot: bool = True):
        self.device = device
        self.readmit_hot = readmit_hot
        self.stats = CacheStats()
        self.relocated_pages = 0
        self._location: dict[int, tuple[int, int]] = {}  # obj -> (zone, offset)
        self._zone_objects: dict[int, list[int]] = {}
        self._hot: set[int] = set()  # hit since insertion
        self._fifo: list[int] = []  # zones in fill order
        self._free: list[int] = list(range(device.zone_count))
        self._open: int | None = None

    def get(self, obj_id: int) -> bool:
        self.stats.gets += 1
        loc = self._location.get(obj_id)
        if loc is None:
            return False
        self.device.read(loc[0], loc[1], build_ops=False)
        self._hot.add(obj_id)
        self.stats.hits += 1
        return True

    def admit(self, obj_id: int) -> None:
        if obj_id in self._location:
            return
        zone = self._open_zone()
        offset = self.device.zone(zone).wp
        self.device.write(zone, npages=1, build_ops=False)
        self._location[obj_id] = (zone, offset)
        self._zone_objects.setdefault(zone, []).append(obj_id)
        self.stats.insertions += 1
        if self.device.zone(zone).state is ZoneState.FULL:
            self._fifo.append(zone)
            self._open = None

    def _open_zone(self) -> int:
        if self._open is not None and self.device.zone(self._open).remaining > 0:
            return self._open
        if len(self._free) <= 1:
            self._evict_oldest_zone()
        self._open = self._free.pop(0)
        return self._open

    def _evict_oldest_zone(self) -> None:
        if not self._fifo:
            raise RuntimeError("no full zones to evict")
        victim = self._fifo.pop(0)
        survivors = []
        for obj_id in self._zone_objects.pop(victim, []):
            if self._location.get(obj_id, (None,))[0] != victim:
                continue
            if self.readmit_hot and obj_id in self._hot:
                survivors.append(obj_id)
            else:
                del self._location[obj_id]
                self._hot.discard(obj_id)
                self.stats.evictions += 1
        # Drop locations first so readmission appends fresh copies.
        for obj_id in survivors:
            del self._location[obj_id]
        self.device.reset_zone(victim)
        self._free.append(victim)
        for obj_id in survivors:
            self._hot.discard(obj_id)
            # Readmit only while there is comfortable space; under
            # pressure a cache just drops (recursing into eviction here
            # could consume the zone we just freed).
            open_ok = (
                self._open is not None
                and self.device.zone(self._open).remaining > 0
            )
            if not open_ok and len(self._free) <= 1:
                self.stats.evictions += 1
                continue
            self.admit(obj_id)
            self.stats.insertions -= 1  # readmission is not a user insert
            self.stats.readmissions += 1
            self.relocated_pages += 1


__all__ = ["CacheStats", "SetAssociativeCache", "ZoneLogCache"]
