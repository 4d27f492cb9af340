"""Flash caches: set-associative (block) vs log-structured (ZNS).

The paper repeatedly cites flash caching (CacheLib, RIPQ, Flashield) as
the workload that suffers most from the block interface: small-object
caches want to admit and evict individual objects, but doing so in place
means random 4 KiB writes -- the FTL's worst case. Production systems work
around it with DRAM staging buffers (§4.1's "buffers no longer necessary"
observation). On ZNS the cache can be a zone-granular FIFO log where
eviction is a zone reset: WA is 1 by construction.

Two designs, each serving E13 and every tenant of the fleet
(:mod:`repro.fleet.rack`):

- :class:`SetAssociativeCache` -- hash-bucketed in-place cache over a
  page-mapped FTL (CacheLib BigHash flavor, no DRAM buffer).
- :class:`ZoneLogCache` -- append-only ring of zones with FIFO eviction
  and optional hot-object readmission (RIPQ flavor).

Each keeps its live keys in one swap-remove index, which :meth:`sample`
draws from uniformly (the fleet's reads), and counts what it does in
:class:`CacheStats`. With ``build_ops=True``, ``admit`` returns the op
records of each device command it issued, one list per command, for a
caller that prices them. Where E13 and the fleet differ in physics, the
difference is a constructor value (DESIGN.md §6).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.flash.errors import ProgramFaultError
from repro.flash.ops import FlashOp, OpKind
from repro.zns.errors import (
    RetryableZnsError,
    ZoneFullError,
    ZoneOfflineError,
    ZoneReadOnlyError,
    ZoneStateError,
)
from repro.zns.zone import ZoneState

#: Inline reset attempts a log without a lifecycle manager makes before
#: leaving a bouncing zone full for the next lap of its ring.
_NAIVE_RESET_TRIES = 3

_WRITABLE = (ZoneState.EMPTY, ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN, ZoneState.CLOSED)


@dataclass
class CacheStats:
    gets: int = 0
    hits: int = 0
    insertions: int = 0
    evictions: int = 0
    readmissions: int = 0
    deletes: int = 0
    writes_refused: int = 0
    zone_resets: int = 0
    reset_retries: int = 0
    append_faults: int = 0
    zones_offlined: int = 0
    zones_quarantined: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.gets if self.gets else 0.0


class _KeyIndex:
    """Live keys in a list and each key's slot in a dict: O(1) add,
    swap-remove and a deterministic uniform draw."""

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._keys: list[int] = []
        self._pos: dict[int, int] = {}

    def sample(self, draw) -> int | None:
        """A live key drawn uniformly, or None when the cache is empty (no
        draw). ``draw(n)`` returns an index below ``n``, such as
        :meth:`repro.sim.rng.Draws.below`."""
        keys = self._keys
        return keys[draw(len(keys))] if keys else None

    def _index(self, key: int) -> None:
        self._pos[key] = len(self._keys)
        self._keys.append(key)

    def _unindex(self, key: int) -> None:
        index = self._pos.pop(key)
        last = self._keys.pop()
        if last != key:
            self._keys[index] = last
            self._pos[last] = index

    def _copy(self, memo: dict):
        """A clone that copies the device (and lifecycle manager) through
        ``memo`` and every other field shallowly: keys are ints and
        locations tuples of ints."""
        clone = copy.copy(self)
        memo[id(self)] = clone
        for name, value in vars(self).items():
            deep = name in ("device", "lifecycle")
            setattr(clone, name, copy.deepcopy(value, memo) if deep else copy.copy(value))
        return clone

    def _check_index(self) -> None:
        assert len(self._pos) == len(self._keys), "key index and key list disagree"
        for index, key in enumerate(self._keys):
            assert self._pos.get(key) == index, f"key {key} is not at its index slot"


#: Knuth's multiplicative (Fibonacci) hash constant: consecutive keys
#: times it, modulo 2**32, scatter over the sets.
FIBONACCI = 2654435761


class SetAssociativeCache(_KeyIndex):
    """In-place hash-bucketed object cache over a page-mapped FTL.

    Each object (an int key) goes to set ``key * multiplier % 2**32 %
    num_sets``, one of ``num_sets`` single-page sets holding ``ways``
    object slots; set ``i`` is logical page ``base + i``, so a cache may
    own a slice of a device. ``multiplier`` 1 is ``hash(key) % num_sets``
    for keys below 2**32; :data:`FIBONACCI` scatters keys that arrive in
    order. Admission rewrites the whole set page (the read-modify-write
    of small-object caches); eviction is implicit (overwritten slot).
    Every admission is one random 4 KiB write -- on a conventional SSD
    this drives the FTL toward its random-write WA.
    """

    def __init__(self, device, ways=4, num_sets=None, base=0, multiplier=1):
        if ways < 1:
            raise ValueError("ways must be >= 1")
        super().__init__()
        self.device = device
        self.ways = ways
        self.num_sets = device.logical_pages if num_sets is None else num_sets
        self.base = base
        self.multiplier = multiplier
        # Metadata mirror of on-flash contents: set -> list of obj ids (LRU
        # order, newest last). The device carries the I/O cost.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def __deepcopy__(self, memo: dict) -> "SetAssociativeCache":
        clone = self._copy(memo)
        clone._sets = [bucket.copy() for bucket in self._sets]
        return clone

    def _set_of(self, obj_id: int) -> int:
        return obj_id * self.multiplier % 2**32 % self.num_sets

    def get(self, obj_id: int) -> bool:
        """Lookup; a hit costs one page read."""
        self.stats.gets += 1
        idx = self._set_of(obj_id)
        bucket = self._sets[idx]
        if obj_id in bucket:
            self.device.read(self.base + idx, build_ops=False)
            bucket.remove(obj_id)
            bucket.append(obj_id)  # LRU bump (metadata only)
            self.stats.hits += 1
            return True
        return False

    def read(self, obj_id: int, build_ops: bool = False) -> FlashOp | None:
        """Read a cached object's set page."""
        return self.device.read(self.base + self._set_of(obj_id), build_ops=build_ops)

    def admit(self, obj_id: int, build_ops: bool = False) -> list[list[FlashOp]]:
        """Insert after a miss; rewrites the set's page in place."""
        idx = self._set_of(obj_id)
        bucket = self._sets[idx]
        if obj_id in bucket:
            return []
        if len(bucket) >= self.ways:
            self._unindex(bucket.pop(0))
            self.stats.evictions += 1
        bucket.append(obj_id)
        self._index(obj_id)
        self.stats.insertions += 1
        return [self.device.write(self.base + idx, build_ops=build_ops)]

    def delete(self, obj_id: int) -> bool:
        """Drop a cached object, trimming its set page once the set is
        empty (else the stale slot waits for the set's next rewrite)."""
        if obj_id not in self._pos:
            return False
        idx = self._set_of(obj_id)
        self._sets[idx].remove(obj_id)
        self._unindex(obj_id)
        if not self._sets[idx]:
            self.device.trim(self.base + idx)
        self.stats.deletes += 1
        return True

    def check_invariants(self) -> None:
        """Each key sits once, in the set its hash names and was written;
        no set holds more than ``ways``; the index holds exactly them."""
        self._check_index()
        held = 0
        for idx, bucket in enumerate(self._sets):
            assert len(bucket) <= self.ways, f"set {idx} holds {len(bucket)} > {self.ways} keys"
            for key in bucket:
                assert self._set_of(key) == idx, f"key {key} sits in set {idx}, hashes elsewhere"
                assert key in self._pos, f"key {key} in set {idx} is not indexed"
            assert not bucket or self.device.map.is_mapped(self.base + idx), f"set {idx} unwritten"
            held += len(bucket)
        assert held == len(self._keys), "set contents and key index disagree"


class ZoneLogCache(_KeyIndex):
    """Append-only FIFO cache over a ring of zones (RIPQ/CacheLib-on-ZNS flavor).

    Objects append at the head, ``zones[cursor]`` (``zones`` defaults to
    the whole device, the head to its first zone). When the head is full
    it moves to the next zone of the ring, which evicts whatever that
    zone still holds by reset. A program fault degrades the head (its
    data stays readable) and moves it on; a zone found offline leaves the
    ring with its data; an admission with no zone left is refused.

    Resets go through ``lifecycle``, a
    :class:`~repro.hostio.zonelife.ZoneLifecycleManager`, when given:
    swap in a reset-ahead zone, else a bounded managed reset, and a
    quarantined zone leaves the ring. Without one a reset is tried inline
    three times, each bounced attempt's hold charged, and a zone still
    bouncing stays full for the next lap.

    With ``readmit_hot``, objects hit since insertion are *readmitted*
    into the head rather than evicted -- trading a little WA for hit
    ratio, exactly the knob the host controls on ZNS. The log then keeps
    the zone after the head reset: arriving at a zone, it resets the next
    one. Hot objects that leave the head part-filled *pin* it out of the
    ring (``pinned``) and the head moves on to the zone just reset, so
    the ring keeps no reset zone ahead from then on: each zone is reset
    as the head arrives, its hot objects dropped. Without
    ``readmit_hot`` every zone is reset as the head arrives.
    """

    def __init__(self, device, readmit_hot=True, zones=None, head=0, lifecycle=None):
        super().__init__()
        self.device = device
        self.readmit_hot = readmit_hot
        self.zones: list[int] = list(range(device.zone_count)) if zones is None else zones
        self.cursor = head
        self.lifecycle = lifecycle
        self.pinned: list[int] = []
        self.relocated_pages = 0
        self._location: dict[int, tuple[int, int]] = {}  # obj -> (zone, offset)
        self._zone_keys: dict[int, dict[int, None]] = {zone: {} for zone in self.zones}
        self._hot: set[int] = set()  # hit since insertion

    def __deepcopy__(self, memo: dict) -> "ZoneLogCache":
        clone = self._copy(memo)
        clone._zone_keys = {zone: keys.copy() for zone, keys in self._zone_keys.items()}
        return clone

    def get(self, obj_id: int) -> bool:
        self.stats.gets += 1
        if obj_id not in self._location:
            return False
        self.read(obj_id)
        self._hot.add(obj_id)
        self.stats.hits += 1
        return True

    def read(self, obj_id: int, build_ops: bool = False) -> FlashOp | None:
        """Read a cached object; a dead zone leaves the ring (and
        ``ZoneOfflineError`` propagates)."""
        zone, offset = self._location[obj_id]
        try:
            return self.device.read(zone, offset, build_ops=build_ops)[1]
        except ZoneOfflineError:
            self._retire(zone)
            raise

    def admit(self, obj_id: int, build_ops: bool = False) -> list[list[FlashOp]]:
        if obj_id in self._location:
            return []
        commands: list[list[FlashOp]] = []
        for _attempt in range(len(self.zones) + 1):
            if not self.zones:
                break
            zone = self.zones[self.cursor]
            try:
                offset, ops = self.device.append(zone, build_ops=build_ops)
            except (ZoneFullError, ZoneStateError, ZoneReadOnlyError, ProgramFaultError) as err:
                # A program fault burned a page and degraded the zone to
                # READ_ONLY; data below the failure point stays readable.
                self.stats.append_faults += isinstance(err, ProgramFaultError)
                self._advance(commands, build_ops)
                continue
            except ZoneOfflineError:
                # Scheduled media death: the zone (and its data) is gone.
                self.stats.zones_offlined += 1
                self._retire(zone)
                continue
            self._location[obj_id] = (zone, offset)
            self._zone_keys[zone][obj_id] = None
            self._index(obj_id)
            self.stats.insertions += 1
            commands.append(ops)
            return commands
        self.stats.writes_refused += 1
        return commands

    def delete(self, obj_id: int) -> bool:
        """Forget a cached object; its page frees when its zone resets."""
        location = self._location.pop(obj_id, None)
        if location is None:
            return False
        self._unindex(obj_id)
        del self._zone_keys[location[0]][obj_id]
        self._hot.discard(obj_id)
        self.stats.deletes += 1
        return True

    def _advance(self, commands: list, build_ops: bool) -> None:
        """Move the head to the next zone of the ring, resetting as needed."""
        zones = self.zones
        self.cursor = (self.cursor + 1) % len(zones)
        zone = zones[self.cursor]
        state = self.device.zone(zone).state
        if state is ZoneState.OFFLINE:
            # Died in place (background fault poll while FULL): retire it
            # rather than resetting dead media.
            self.stats.zones_offlined += 1
            self._retire(zone)
        elif state not in _WRITABLE:
            self._reset(zone, commands, build_ops)
        elif self.readmit_hot:
            ahead = zones[(self.cursor + 1) % len(zones)]
            if self.device.zone(ahead).state is ZoneState.FULL:
                self._reset(ahead, commands, build_ops, head=zone)

    def _reset(self, zone: int, commands: list, build_ops: bool, head=None) -> None:
        """Reset ``zone`` and evict what it held (readmitting into ``head``)."""
        self.stats.zone_resets += 1
        lifecycle = self.lifecycle
        fresh = None if lifecycle is None else lifecycle.request_free_zone()
        if fresh is not None:
            # Reset-ahead hit: swap in an already-EMPTY zone and hand the
            # full one to the background reset queue. The write path pays
            # nothing here -- the reset was charged in an idle window.
            self._drop(zone, head, commands, build_ops)
            lifecycle.note_reclaimable(zone)
            self.zones[self.zones.index(zone)] = fresh
            self._zone_keys.setdefault(fresh, {})
            return
        ops: list[FlashOp] = []
        commands.append(ops)
        try:
            if lifecycle is None:
                reset = self._reset_inline(zone, ops, build_ops)
            else:
                ops += lifecycle.reset_now(zone)
                reset = self.device.zone(zone).state is ZoneState.EMPTY
        except ZoneStateError:
            if self.device.zone(zone).state is not ZoneState.OFFLINE:
                raise
            self.stats.zones_offlined += 1
            self._retire(zone)
            return
        if lifecycle is not None and lifecycle.is_quarantined(zone):
            self.stats.zones_quarantined += 1
            self._retire(zone)
        elif reset:
            self._drop(zone, head, commands, build_ops)

    def _reset_inline(self, zone: int, ops: list, build_ops: bool) -> bool:
        """The naive host's reset: bounced commands are eaten inline and
        retried; False if every try bounced."""
        for _ in range(_NAIVE_RESET_TRIES):
            try:
                ops += self.device.reset_zone(zone)
                return True
            except RetryableZnsError as err:
                self.stats.reset_retries += 1
                if build_ops and err.latency_us:
                    ops.append(FlashOp(OpKind.MGMT, 0, None, err.latency_us, uses_channel=False))
        return False

    def _drop(self, zone: int, head=None, commands=None, build_ops=False) -> None:
        """Forget what ``zone`` held, readmitting hot objects into ``head``
        while it has room; the rest are evicted."""
        hot = []
        for obj_id in self._zone_keys[zone]:
            self._unindex(obj_id)
            del self._location[obj_id]
            if obj_id in self._hot:
                self._hot.discard(obj_id)
                if head is not None:
                    hot.append(obj_id)
                    continue
            self.stats.evictions += 1
        self._zone_keys[zone] = {}
        for obj_id in hot:
            if not self.device.zone(head).remaining:
                self.stats.evictions += 1  # under pressure a cache just drops
                continue
            offset, ops = self.device.append(head, build_ops=build_ops)
            self._location[obj_id] = (head, offset)
            self._zone_keys[head][obj_id] = None
            self._index(obj_id)
            commands.append(ops)
            self.stats.readmissions += 1
            self.relocated_pages += 1
        if hot:
            if self.device.zone(head).remaining:
                self.zones.remove(head)
                self.pinned.append(head)
            self.cursor = self.zones.index(zone)

    def _retire(self, zone: int) -> None:
        """Take a dead or quarantined zone, and what it held, out of the ring."""
        self._drop(zone)
        self.zones.remove(zone)
        del self._zone_keys[zone]
        if self.zones:
            self.cursor %= len(self.zones)

    def check_invariants(self) -> None:
        """Each live key sits below its zone's write pointer in a ring or
        pinned zone that lists it, and each zone lists only its own live
        keys (so no key sits in two zones); the ring holds a zone once."""
        self._check_index()
        assert self._location.keys() == self._pos.keys(), "live keys and key index disagree"
        held = set(self.zones) | set(self.pinned)
        assert len(held) == len(self.zones) + len(self.pinned), "a zone sits twice in the ring"
        for obj_id, (zone, offset) in self._location.items():
            assert zone in held, f"key {obj_id} sits in zone {zone}, outside the ring"
            assert obj_id in self._zone_keys[zone], f"zone {zone} does not list key {obj_id}"
            assert offset < self.device.zone(zone).wp, f"key {obj_id} sits above the pointer"
        for zone, keys in self._zone_keys.items():
            for obj_id in keys:
                where = self._location.get(obj_id, (None,))[0]
                assert where == zone, f"zone {zone} lists key {obj_id}, which is not there"


__all__ = ["FIBONACCI", "CacheStats", "SetAssociativeCache", "ZoneLogCache"]
