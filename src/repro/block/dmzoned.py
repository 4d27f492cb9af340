"""Host-side block interface over a ZNS device (dm-zoned style).

The paper (§2.3) notes "it was straightforward to implement the block
interface on the host using ZNS SSDs", aided by the NVMe *simple copy*
command that moves data inside the device without PCIe traffic. This
module is that layer: a log-structured, page-mapped translation living on
the *host*, exposing :class:`~repro.block.interface.BlockDevice` over any
:class:`~repro.block.interface.ZonedDevice` (the concrete
:class:`~repro.zns.device.ZNSDevice` in every shipped experiment).

Functionally it is the conventional FTL relocated across the interface --
which is the paper's cost argument: the mapping table lives in cheap host
DIMMs instead of per-device embedded DRAM, spare capacity is a host policy
knob instead of a fixed hardware tax, and the host can see application
behaviour (see :mod:`repro.placement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.block.interface import ZonedDevice, check_extent
from repro.flash.errors import ProgramFaultError, UncorrectableReadError
from repro.flash.ops import FlashOp
from repro.flash.state import Replayable
from repro.ftl.mapping import MAP_ENTRY_BYTES
from repro.hostio.zonelog import ZoneLog
from repro.obs.events import FlashOpEvent, ReclaimEvent, RecoveryEvent
from repro.obs.runtime import new_tracer
from repro.obs.tracer import Tracer
from repro.zns.errors import ZoneOfflineError
from repro.zns.zone import ZoneState

UNMAPPED = -1


class TranslationError(Exception):
    """Raised for misuse of the translation layer (unmapped read, etc.)."""


@dataclass(frozen=True)
class ZonedBlockConfig:
    """Tunables for :class:`ZonedBlockDevice`.

    Parameters
    ----------
    op_ratio:
        Host-chosen spare capacity as a fraction of exported capacity.
        Unlike a conventional SSD this is a *configuration*, not silicon.
    use_simple_copy:
        Reclaim valid data with the device-managed simple-copy command
        (no PCIe traffic) instead of host read+write.
    gc_low_zones / gc_high_zones:
        Free-zone watermarks bracketing reclaim activity.
    """

    op_ratio: float = 0.07
    use_simple_copy: bool = True
    gc_low_zones: int = 2
    gc_high_zones: int = 4

    def __post_init__(self) -> None:
        if self.op_ratio < 0:
            raise ValueError("op_ratio must be >= 0")
        if not 1 <= self.gc_low_zones < self.gc_high_zones:
            raise ValueError("need 1 <= gc_low_zones < gc_high_zones")


@dataclass
class ZonedBlockStats:
    """Host-layer accounting of what the flash counts cannot show; the
    pages this layer writes, reads and relocates are the NAND's ops
    under ``host`` and ``reclaim`` (``device.nand.counters``)."""

    gc_runs: int = 0
    zones_degraded: int = 0  # write frontiers lost to READ_ONLY degradation
    zones_lost: int = 0  # zones gone OFFLINE (capacity permanently lost)
    pages_lost: int = 0  # mapped pages inside zones that went offline
    write_stalls: int = 0  # timed writes that waited out an out-of-zones stall


class ZonedBlockDevice(Replayable):
    """Block device emulated on the host over ZNS zones.

    Mutating calls return the :class:`FlashOp` records the underlying
    device performed, so timed experiments can replay contention.
    """

    #: Zones held back beyond advertised OP: the write frontier, the GC
    #: destination, and one slack zone for forward progress.
    _RESERVE_ZONES = 3

    def __init__(
        self,
        device: ZonedDevice,
        config: ZonedBlockConfig | None = None,
        tracer: Tracer | None = None,
        lifecycle: Any = None,
    ):
        self.device = device
        self.config = config or ZonedBlockConfig()
        self.stats = ZonedBlockStats()
        # Share the device's bus so host-layer events interleave with the
        # NVMe commands and flash ops they cause; standalone otherwise.
        if tracer is None:
            tracer = getattr(device, "tracer", None) or new_tracer()
        self.tracer = tracer

        pages_per_zone = device.geometry.pages_per_zone
        total_zones = device.zone_count
        if total_zones <= self._RESERVE_ZONES:
            raise ValueError("device too small for block translation")
        usable_zones = total_zones - self._RESERVE_ZONES
        by_op = int(usable_zones * pages_per_zone / (1.0 + self.config.op_ratio))
        self.logical_pages = min(by_op, usable_zones * pages_per_zone)

        # Each map array has a ``*_v`` memoryview of its own buffer: scalar
        # ops index the view (a plain int), scans the array. Neither is
        # ever rebound.
        self._l2p = np.full(self.logical_pages, UNMAPPED, dtype=np.int64)
        self._l2p_v = memoryview(self._l2p)
        self._p2l = np.full(total_zones * pages_per_zone, UNMAPPED, dtype=np.int64)
        self._p2l_v = memoryview(self._p2l)
        self._pages_per_zone = pages_per_zone
        # The zone pool: "write" and "gc" frontiers, valid pages per zone and
        # sealed victims; a ZoneLifecycleManager, if given, takes the finishes
        # and resets on its bounded-retry path.
        self.log = ZoneLog(device, lifecycle)
        # Incremental-reclaim state: the victim being drained and its
        # remaining valid offsets (None when no victim is in progress).
        self._victim: int | None = None
        self._victim_offsets: list[int] = []

    # -- BlockDevice protocol -----------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.device.page_size

    @property
    def num_blocks(self) -> int:
        return self.logical_pages

    def read_block(self, lba: int) -> Any:
        payload, _ = self.read(lba)
        return payload

    def write_block(self, lba: int, data: Any = None) -> None:
        self.write(lba, data, build_ops=False)

    def write_blocks(self, start: int, count: int) -> None:
        check_extent(self, start, count)
        for lba in range(start, start + count):
            self.write(lba, build_ops=False)

    def trim_block(self, lba: int) -> None:
        self.trim(lba)

    # -- Introspection ----------------------------------------------------------

    @property
    def free_zone_count(self) -> int:
        return len(self.log.free)

    def gc_needed(self) -> bool:
        return len(self.log.free) <= self.config.gc_low_zones

    def host_dram_bytes(self) -> int:
        """Host DRAM consumed by the translation map (paper §2.3 tradeoff)."""
        return self.logical_pages * MAP_ENTRY_BYTES

    # -- Core operations -------------------------------------------------------------

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.logical_pages:
            raise IndexError(f"lba {lba} out of range [0, {self.logical_pages})")

    def _flat(self, zone: int, offset: int) -> int:
        return zone * self._pages_per_zone + offset

    def read(self, lba: int) -> tuple[Any, FlashOp]:
        self._check(lba)
        flat = self._l2p_v[lba]
        if flat == UNMAPPED:
            raise TranslationError(f"lba {lba} is unmapped")
        zone, offset = divmod(flat, self._pages_per_zone)
        try:
            payload, op = self.device.read(zone, offset)
        except ZoneOfflineError:
            # The zone died under us (scheduled fault): every lba mapped
            # into it is gone. Account the loss, keep the map consistent,
            # and let the caller see the I/O failure.
            self._drop_offline_zone(zone)
            raise
        except UncorrectableReadError:
            # ECC ladder exhausted: this one page is lost; unmap it so
            # later reads fail fast instead of re-walking the ladder.
            self._unmap_physical(flat)
            self._l2p_v[lba] = UNMAPPED
            self.stats.pages_lost += 1
            raise
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "block.dmzoned", "read", block=op.block, page=op.page,
                    nbytes=self.block_size, cause="host",
                )
            )
        return payload, op

    def write(
        self, lba: int, data: Any = None, auto_gc: bool = True, build_ops: bool = True
    ) -> list[FlashOp]:
        """Write one logical block at the write frontier, reclaiming first if needed.

        Returns the op records of the seals, the reclaim and the host
        program. With ``build_ops=False`` the device builds no per-page
        records and only zone-management ones (finishes, resets) come back.
        """
        self._check(lba)
        ops: list[FlashOp] = []
        # Each retry consumes a fresh frontier zone, so the attempt bound
        # only trips when the device keeps degrading zones under us.
        for _ in range(8):
            zone = self.log.frontiers.get("write")
            if zone is None or self.device.zone(zone).state is ZoneState.FULL:
                if zone is not None:
                    ops.extend(self.log.seal(zone))
                if auto_gc and self.gc_needed():
                    ops.extend(self.collect(self.config.gc_high_zones, build_ops))
                zone = self._take("write")
            offset = self.device.zone(zone).wp
            try:
                ops.extend(self.device.write(zone, npages=1, data=data, build_ops=build_ops))
            except ProgramFaultError:
                # The frontier degraded to READ_ONLY: its valid pages stay
                # readable and reclaimable, so seal it for GC and move on.
                self.stats.zones_degraded += 1
                ops.extend(self.log.seal(zone))
                continue
            except ZoneOfflineError:
                # Scheduled offline hit the frontier: its data is gone.
                self._drop_offline_zone(zone)
                continue
            self._map(lba, zone, offset)
            break
        else:
            raise TranslationError(f"write of lba {lba} failed: zones keep degrading")
        if self.tracer.enabled:
            # The page just programmed is the last one written in its block.
            block = self.device.block_of_offset(zone, offset)
            page = block * self.device.geometry.flash.pages_per_block
            page += self.device.nand.write_offset(block) - 1
            self.tracer.publish(
                FlashOpEvent(
                    "block.dmzoned", "program", block=block, page=page,
                    nbytes=self.block_size, cause="host",
                )
            )
        return ops

    def trim(self, lba: int) -> None:
        self._check(lba)
        flat = self._l2p_v[lba]
        if flat == UNMAPPED:
            return
        self._unmap_physical(flat)
        self._l2p_v[lba] = UNMAPPED

    # -- Mapping helpers ------------------------------------------------------------

    def _map(self, lba: int, zone: int, offset: int) -> None:
        flat = self._flat(zone, offset)
        if self._p2l_v[flat] != UNMAPPED:
            raise TranslationError(f"physical slot {flat} already mapped")
        old = self._l2p_v[lba]
        if old != UNMAPPED:
            self._unmap_physical(old)
        self._l2p_v[lba] = flat
        self._p2l_v[flat] = lba
        self.log.live_v[zone] += 1

    def _unmap_physical(self, flat: int) -> None:
        self._p2l_v[flat] = UNMAPPED
        zone = flat // self._pages_per_zone
        count = self.log.live_v[zone] - 1
        self.log.live_v[zone] = count
        if count < 0:
            raise AssertionError(f"zone {zone} valid count went negative")

    def _take(self, stream: str) -> int:
        # A free zone that went OFFLINE while parked (scheduled fault) is lost.
        zone = self.log.take(stream, self._drop_offline_zone)
        if zone is None:
            raise TranslationError("no free zones available")
        return zone

    def _drop_offline_zone(self, zone: int) -> None:
        """Forget a zone that went OFFLINE: its data and capacity are lost.

        A zone is lost once: a later report of the same zone (a read found
        it, then a write or reclaim step reaches it) is a no-op.
        """
        if not self.log.drop(zone):
            return
        base = self._flat(zone, 0)
        slot = self._p2l[base : base + self._pages_per_zone]
        lost = slot[slot != UNMAPPED]
        for lba in lost.tolist():
            self._l2p_v[lba] = UNMAPPED
        slot[:] = UNMAPPED
        if self._victim == zone:
            self._victim = None
            self._victim_offsets = []
        self.stats.zones_lost += 1
        self.stats.pages_lost += int(lost.size)
        if self.tracer.enabled:
            self.tracer.publish(
                RecoveryEvent(
                    "block.dmzoned", "zone-offline", zone=zone,
                    detail=f"{int(lost.size)} mapped pages lost",
                )
            )

    # -- Host garbage collection ---------------------------------------------------------

    def _select_victim(self) -> None:
        """Pick the next victim and stage its surviving offsets."""
        victim = self.log.victim()
        if victim is None:
            raise TranslationError("no sealed zones to collect")
        self._victim = victim
        self._victim_offsets = [
            offset
            for offset in range(self.device.zone(victim).wp)
            if self._p2l_v[self._flat(victim, offset)] != UNMAPPED
        ]
        if self.tracer.enabled:
            self.tracer.publish(
                ReclaimEvent(
                    "block.dmzoned", "victim-selected", zone=victim,
                    copies=len(self._victim_offsets),
                    free_zones=len(self.log.free),
                )
            )

    @property
    def reclaim_in_progress(self) -> bool:
        return self._victim is not None

    def reclaim_step(self, max_copies: int = 8, build_ops: bool = True) -> list[FlashOp]:
        """One bounded quantum of reclaim work.

        Relocates up to ``max_copies`` surviving pages of the current
        victim (selecting one first if needed); once the victim is drained,
        resets it and returns it to the free pool. Bounded quanta are what
        let a host scheduler interleave reclaim with latency-sensitive
        reads (§4.1) -- an in-device FTL offers no such knob. Returns the
        op records; with ``build_ops=False`` only the reset's erases.
        """
        if self._victim is None:
            self._select_victim()
        ops: list[FlashOp] = []
        copied = 0
        while self._victim_offsets and max_copies > 0:
            offset = self._victim_offsets.pop(0)
            # The page may have been overwritten (invalidated) since staging.
            if self._p2l_v[self._flat(self._victim, offset)] == UNMAPPED:
                continue
            dst = self._gc_destination()
            try:
                ops.extend(self._relocate(self._victim, offset, dst, build_ops))
            except ProgramFaultError:
                # The GC destination degraded before the copy landed:
                # seal it for a later pass and retry into a fresh zone.
                self.stats.zones_degraded += 1
                ops.extend(self.log.seal(dst))
                self._victim_offsets.insert(0, offset)
                continue
            except ZoneOfflineError:
                if self.device.zone(self._victim).state is ZoneState.OFFLINE:
                    # The victim died mid-drain: its remaining valid data
                    # is unrecoverable. Drop it without a reset.
                    self._drop_offline_zone(self._victim)
                    return ops
                # Otherwise the destination went offline (pre-copy).
                self._drop_offline_zone(dst)
                self._victim_offsets.insert(0, offset)
                continue
            max_copies -= 1
            copied += 1
        if copied and self.tracer.enabled:
            self.tracer.publish(
                ReclaimEvent(
                    "block.dmzoned", "step", zone=self._victim,
                    copies=copied, free_zones=len(self.log.free),
                )
            )
        if not self._victim_offsets:
            victim = self._victim
            if self.device.zone(victim).state is ZoneState.OFFLINE:
                # Drained but unresettable: the zone went offline after its
                # last valid page moved out. No data lost, capacity is.
                self._drop_offline_zone(victim)
                self.stats.gc_runs += 1
                return ops
            ops.extend(self.log.reset(victim))
            if self.device.zone(victim).state is not ZoneState.EMPTY:
                # Spares exhausted (offline) or lifecycle retries exhausted
                # (quarantined): the zone's capacity leaves circulation.
                self.stats.zones_lost += 1
            self._victim = None
            self.stats.gc_runs += 1
            if self.tracer.enabled:
                self.tracer.publish(
                    ReclaimEvent(
                        "block.dmzoned", "zone-reset", zone=victim,
                        free_zones=len(self.log.free),
                    )
                )
        return ops

    def collect_once(self, build_ops: bool = True) -> list[FlashOp]:
        """Reclaim one full victim zone (drains any in-progress victim)."""
        ops = self.reclaim_step(self._pages_per_zone, build_ops)
        while self._victim is not None:
            ops.extend(self.reclaim_step(self._pages_per_zone, build_ops))
        return ops

    def collect(self, target_free_zones: int, build_ops: bool = True) -> list[FlashOp]:
        ops: list[FlashOp] = []
        while len(self.log.free) < target_free_zones:
            ops.extend(self.collect_once(build_ops))
        return ops

    def _relocate(
        self, victim: int, offset: int, dst_zone: int, build_ops: bool
    ) -> list[FlashOp]:
        dst_offset = self.device.zone(dst_zone).wp
        if self.config.use_simple_copy:
            _, ops = self.device.simple_copy([(victim, offset)], dst_zone, build_ops)
        else:
            payload, read_op = self.device.read(victim, offset, "reclaim", build_ops)
            write_ops = self.device.write(
                dst_zone, npages=1, data=payload, build_ops=build_ops, cause="reclaim"
            )
            ops = [read_op, *write_ops] if build_ops else []
        self._map(self._p2l_v[self._flat(victim, offset)], dst_zone, dst_offset)
        return ops

    def _gc_destination(self) -> int:
        zone = self.log.frontiers.get("gc")
        if zone is not None:
            if self.device.zone(zone).state is not ZoneState.FULL:
                return zone
            self.log.seal(zone)
        write_zone = self.log.frontiers.get("write")
        if not self.log.free and write_zone is not None:
            # Free pool drained mid-reclaim (degradation churn under
            # faults). Borrow the user write frontier as the destination:
            # mixing GC data into it costs locality, not correctness, and
            # draining the victim is what returns a zone to the pool.
            frontier = self.device.zone(write_zone)
            if frontier.is_writable and frontier.remaining > 0:
                return write_zone
        return self._take("gc")

    # -- Invariant checking (property tests) -------------------------------------------

    def check_invariants(self) -> None:
        for name in ("_l2p", "_p2l"):
            view = getattr(self, name + "_v")
            assert view.obj is getattr(self, name), f"{name} rebound away from its view"
        self.log.check_invariants()
        assert self._victim not in self.log.dropped, "the reclaim victim was dropped"
        lbas = np.flatnonzero(self._l2p != UNMAPPED)
        assert int(self.log.live.sum()) == lbas.size, "valid counts disagree with map"
        assert np.array_equal(self._p2l[self._l2p[lbas]], lbas), "p2l is not l2p's inverse"


__all__ = ["TranslationError", "ZonedBlockConfig", "ZonedBlockDevice", "ZonedBlockStats"]
