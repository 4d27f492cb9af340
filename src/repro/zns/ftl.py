"""The thin zone-granularity FTL.

The paper's §2.2 cost argument rests on this layer: instead of a 4-byte
entry per 4 KiB page (~1 GB DRAM/TB), a ZNS FTL keeps one mapping per
erasure block within each zone (~256 KB/TB). This module maintains that
zone -> erasure-block-set map, rotates physical blocks on reset for wear
leveling, and substitutes spare blocks for grown-bad blocks (shrinking the
zone's capacity when spares run out).
"""

from __future__ import annotations

from repro.flash.errors import BadBlockError
from repro.flash.geometry import ZonedGeometry
from repro.flash.nand import NandArray
from repro.flash.state import Replayable
from repro.ftl.mapping import MAP_ENTRY_BYTES
from repro.obs.events import GcEvent, RecoveryEvent
from repro.obs.tracer import Tracer


class ZnsFTL(Replayable):
    """Zone-to-block translation with reset-time wear rotation.

    Parameters
    ----------
    geometry:
        The zoned geometry (flash shape + zone shape).
    nand:
        The backing array.
    spare_blocks:
        Physical blocks held back from zones to replace grown-bad blocks.
        This is the "some [capacity] is reserved to replace bad flash
        blocks" of §2.2 -- small, unlike conventional OP.
    rotate_on_reset:
        If True, a reset returns the zone's blocks to a free pool and
        draws the least-worn blocks for the next write pass -- the device
        side of ZNS wear leveling.
    """

    def __init__(
        self,
        geometry: ZonedGeometry,
        nand: NandArray,
        spare_blocks: int = 0,
        rotate_on_reset: bool = True,
        tracer: Tracer | None = None,
    ):
        flash = geometry.flash
        self.tracer = tracer if tracer is not None else nand.tracer
        usable_blocks = flash.total_blocks - spare_blocks
        if usable_blocks < geometry.blocks_per_zone:
            raise ValueError("not enough blocks for even one zone after spares")
        self.geometry = geometry
        self.nand = nand
        self.rotate_on_reset = rotate_on_reset
        self.zone_count = usable_blocks // geometry.blocks_per_zone
        # Initial identity-ish layout: consecutive blocks per zone.
        self._zone_blocks: list[list[int]] = [
            list(
                range(
                    z * geometry.blocks_per_zone,
                    (z + 1) * geometry.blocks_per_zone,
                )
            )
            for z in range(self.zone_count)
        ]
        mapped = self.zone_count * geometry.blocks_per_zone
        self._spares: list[int] = list(range(mapped, flash.total_blocks))
        self._free_pool: list[int] = []

    # -- Translation ---------------------------------------------------------

    def blocks_of_zone(self, zone_id: int) -> list[int]:
        return list(self.live_blocks(zone_id))

    def live_blocks(self, zone_id: int) -> list[int]:
        """The zone's block list itself, not a copy: do not mutate it or
        hold it across a reset (which rebinds the zone to a new list)."""
        if not 0 <= zone_id < self.zone_count:
            self._check(zone_id)
        return self._zone_blocks[zone_id]

    def zone_capacity_pages(self, zone_id: int) -> int:
        self._check(zone_id)
        return len(self._zone_blocks[zone_id]) * self.geometry.flash.pages_per_block

    # -- Reset-time management ---------------------------------------------------

    def reset_zone(self, zone_id: int) -> tuple[list[float], int]:
        """Erase the zone's blocks; returns (erase latencies, new capacity).

        Blocks that fail erase are dropped and replaced from spares; if no
        spare is available the zone shrinks. With ``rotate_on_reset`` the
        surviving blocks join a free pool and the zone is rebacked with the
        least-worn available blocks.
        """
        self._check(zone_id)
        latencies: list[float] = []
        survivors: list[int] = []
        for block in self._zone_blocks[zone_id]:
            try:
                latencies.append(self.nand.erase(block, "zone-mgmt"))
                survivors.append(block)
            except BadBlockError:
                # Block retired; charge the (wasted) erase time anyway.
                latencies.append(self.nand.timing.erase_us)
                if self.tracer.enabled:
                    self.tracer.publish(
                        RecoveryEvent(
                            "zns.ftl", "block-retired", block=block,
                            zone=zone_id, detail="erase failure",
                        )
                    )
        want = len(self._zone_blocks[zone_id])

        if self.rotate_on_reset:
            self._free_pool.extend(survivors)
            pool = self._free_pool
        else:
            pool = survivors

        # Refill to the previous width, drawing spares if short.
        while len(pool) < want and self._spares:
            spare = self._spares.pop()
            if not self.nand.wear.bad_mask_v[spare]:
                if not self.nand.is_block_erased(spare):
                    try:
                        latencies.append(self.nand.erase(spare, "recovery"))
                    except BadBlockError:
                        # The spare itself died on its first erase.
                        latencies.append(self.nand.timing.erase_us)
                        continue
                pool.append(spare)
                if self.tracer.enabled:
                    self.tracer.publish(
                        RecoveryEvent(
                            "zns.ftl", "spare-substituted", block=spare,
                            zone=zone_id,
                        )
                    )

        if self.rotate_on_reset:
            wear = self.nand.wear.erase_counts
            pool.sort(key=lambda b: int(wear[b]))
            take = pool[: min(want, len(pool))]
            self._free_pool = pool[len(take):]
            self._zone_blocks[zone_id] = take
        else:
            self._zone_blocks[zone_id] = pool[:want]

        if len(self._zone_blocks[zone_id]) < want and self.tracer.enabled:
            # Spares exhausted: the zone comes back narrower (paper §2.1,
            # "decreasing the length of a zone after a reset").
            self.tracer.publish(
                RecoveryEvent(
                    "zns.ftl", "capacity-shrunk", zone=zone_id,
                    detail=f"{want - len(self._zone_blocks[zone_id])} blocks lost",
                )
            )

        if self.tracer.enabled:
            self.tracer.publish(
                GcEvent(
                    "zns.ftl", "zone-reset", victim=zone_id,
                    free_blocks=len(self._free_pool),
                )
            )
        return latencies, self.zone_capacity_pages(zone_id)

    def reset_cost_us(self, zone_id: int) -> float:
        """Estimated erase time a reset of this zone would charge.

        One erase per currently-mapped block; the host lifecycle layer
        (:mod:`repro.hostio.zonelife`) uses this to budget reset-ahead
        work into idle windows without issuing the command.
        """
        self._check(zone_id)
        return len(self._zone_blocks[zone_id]) * self.nand.timing.erase_us

    # -- DRAM accounting (paper §2.2) -----------------------------------------------

    def dram_bytes(self) -> int:
        """On-board DRAM for the zone->block map: one entry per block."""
        entries = sum(len(blocks) for blocks in self._zone_blocks)
        return entries * MAP_ENTRY_BYTES

    def check_invariants(self) -> None:
        """Every block sits in at most one place -- a zone's list, the free
        pool or the spares -- with an id in range, and no zone is wider
        than ``blocks_per_zone``."""
        total = self.geometry.flash.total_blocks
        width = self.geometry.blocks_per_zone
        placed = [*self._free_pool, *self._spares]
        for zone_id, blocks in enumerate(self._zone_blocks):
            assert len(blocks) <= width, f"zone {zone_id} has {len(blocks)} blocks, over {width}"
            placed.extend(blocks)
        seen: set[int] = set()
        for block in placed:
            assert 0 <= block < total, f"block {block} outside [0, {total})"
            assert block not in seen, f"block {block} is in two places"
            seen.add(block)

    def _check(self, zone_id: int) -> None:
        if not 0 <= zone_id < self.zone_count:
            raise IndexError(f"zone {zone_id} out of range [0, {self.zone_count})")


__all__ = ["ZnsFTL"]
