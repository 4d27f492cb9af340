"""Demand-paged FTL (DFTL) -- the mapping lives on flash, not in DRAM.

The paper's footnote 1: "A few DRAM-less conventional SSDs exist, which
store the mapping data in host DRAM or on-board flash. However, they have
not gained momentum in datacenters, as they lack the performance and
functionality of ZNS SSDs."

This module models why, with real physics rather than bolted-on
accounting. :class:`DemandPagedFTL` extends
:class:`~repro.ftl.ftl.ConventionalFTL` with a
:class:`~repro.ftl.mapping.TranslationStore`: the authoritative page map
lives in *translation pages* programmed to flash (each covering
``page_size / 4`` logical pages), a Global Translation Directory tracks
where each translation page currently sits, and only a DRAM-budgeted
Cached Mapping Table is resident. Consequences, all observable in the
shared flash counters, each op booked under its cause:

- a host I/O whose translation misses the CMT costs a real flash read
  (``translation-fetch``);
- evicting a dirty CMT entry costs a real flash program, into dedicated
  translation blocks drawn from the same free pool as data blocks
  (``translation-writeback``);
- translation blocks fill with stale translation pages and must be
  garbage collected -- copies and erases that compete with data GC
  (``translation-gc``), the device WA's third term beside ``host`` and
  ``gc``;
- data-GC relocations rewrite mapping entries, dirtying the owning
  translation pages (the write-amplification-of-write-amplification
  real DFTLs pay);
- crash recovery must rebuild the GTD from translation pages' OOB
  metadata before it can trust any mapping state.

With a CMT budget at or above the full map size nothing ever misses or
evicts, no translation page is ever programmed, and the device is
physics-identical to a :class:`ConventionalFTL` with the same config --
the property the parity test suite pins.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.ops import FlashOp, OpKind
from repro.flash.timing import TimingModel
from repro.flash.wear import WearTracker
from repro.ftl.checkpoint import MappingSnapshot
from repro.ftl.ftl import CapacityError, ConventionalFTL, FTLConfig
from repro.ftl.mapping import UNMAPPED, TranslationStore
from repro.obs.events import GcEvent, TranslationEvent
from repro.obs.tracer import Tracer


#: OOB tag for a translation page holding tvpn: ``-(2 + tvpn)``.
#: Data pages carry their lpn (>= 0); UNMAPPED (-1) marks no record;
#: everything at or below -2 is a translation page. Recovery decodes
#: with :func:`tvpn_from_oob`.
_TRANS_OOB_BASE = -2


def oob_tag_for_tvpn(tvpn: int) -> int:
    return _TRANS_OOB_BASE - tvpn


def tvpn_from_oob(tag: int) -> int:
    return _TRANS_OOB_BASE - tag


class DemandPagedFTL(ConventionalFTL):
    """A conventional FTL whose page map is demand-paged from flash.

    Parameters
    ----------
    cmt_bytes:
        DRAM budget for the Cached Mapping Table. Defaults to 8
        translation pages' worth (32 KiB on 4 KiB pages), matching the
        old accounting model's default. A budget covering the full map
        makes the device physics-identical to :class:`ConventionalFTL`.

    Translation pages are programmed into dedicated *translation
    blocks* allocated from the shared free pool; their footprint is
    pre-reserved (``translation_reserve_blocks``) so exported capacity
    shrinks accordingly -- the same bookkeeping as any metadata the
    firmware keeps on flash.
    """

    #: Reserve headroom beyond the steady-state translation footprint:
    #: the open translation block plus GC slack for translation blocks.
    _TRANS_RESERVE_SLACK = 2

    def __init__(
        self,
        geometry: FlashGeometry,
        config: FTLConfig | None = None,
        cmt_bytes: int | None = None,
        *,
        nand: NandArray | None = None,
        timing: TimingModel | None = None,
        wear: WearTracker | None = None,
        tracer: Tracer | None = None,
        faults=None,
    ):
        if cmt_bytes is None:
            cmt_bytes = 8 * geometry.page_size
        cfg = config or FTLConfig()

        # The translation pages' flash footprint comes out of exported
        # capacity, but shrinking exported capacity shrinks the map and
        # with it the footprint -- a (quickly converging) fixed point.
        epp = geometry.page_size // TranslationStore.BYTES_PER_ENTRY
        ppb = geometry.pages_per_block
        base_reserve = (
            cfg.streams
            + cfg.gc_streams
            + self._INTERNAL_RESERVE_SLACK
            + cfg.reserved_blocks
        )
        extra = 0
        while True:
            avail = geometry.total_blocks - base_reserve - extra
            if avail < 1:
                raise CapacityError(
                    "no capacity left after translation-page reserve"
                )
            by_op = int(geometry.total_pages / (1.0 + cfg.op_ratio))
            logical = min(by_op, avail * ppb)
            tpages = -(-logical // epp)
            need = -(-tpages // ppb) + self._TRANS_RESERVE_SLACK
            if need <= extra:
                break
            extra = need
        self.translation_reserve_blocks = extra

        super().__init__(
            geometry,
            replace(cfg, reserved_blocks=cfg.reserved_blocks + extra),
            nand=nand,
            timing=timing,
            wear=wear,
            tracer=tracer,
            faults=faults,
        )

        self._trans_active: int | None = None
        self._trans_sealed: set[int] = set()
        #: Valid (current per the GTD) translation pages per block, with a
        #: memoryview of its buffer for scalar access; never rebound.
        self._trans_valid = np.zeros(geometry.total_blocks, dtype=np.int32)
        self._trans_valid_v = memoryview(self._trans_valid)
        #: tvpns dirtied by GC relocations while uncached; faulted in
        #: dirty at the next host-op boundary (a real DFTL batches these
        #: read-modify-writes the same way).
        self._pending_trans_dirty: set[int] = set()
        self._recovered_trans_blocks: set[int] = set()
        self.store = TranslationStore(
            geometry,
            self.logical_pages,
            self.nand,
            cmt_bytes,
            self._trans_program_page,
            tracer=self.tracer,
        )

    # -- Reporting surface ---------------------------------------------------

    @property
    def full_map_translation_pages(self) -> int:
        """Translation pages a full map of this device needs."""
        return self.store.translation_pages

    # -- Host operations ------------------------------------------------------

    def write(
        self, lpn: int, stream: int = 0, auto_gc: bool = True, build_ops: bool = True
    ) -> list[FlashOp]:
        self.map.check_lpn(lpn)
        self._flush_pending()
        self.store.access(lpn, dirty=True)
        return super().write(lpn, stream=stream, auto_gc=auto_gc, build_ops=build_ops)

    def _write_checked(self, lpns: np.ndarray, stream: int, auto_gc: bool) -> None:
        """:meth:`write_pages` is the per-lpn :meth:`write` loop here, so every
        page demand-faults its translation entry in order.
        :meth:`ConventionalFTL.write_pages` programs in runs and would skip
        the CMT. Like it, builds no op records."""
        for lpn in lpns.tolist():
            self.write(lpn, stream, auto_gc, build_ops=False)

    def read(self, lpn: int, build_ops: bool = True) -> FlashOp | None:
        self.map.check_lpn(lpn)
        self._flush_pending()
        self.store.access(lpn, dirty=False)
        return super().read(lpn, build_ops)

    def trim(self, lpn: int) -> None:
        self.map.check_lpn(lpn)
        self._flush_pending()
        self.store.access(lpn, dirty=True)
        super().trim(lpn)

    # -- Translation-page plumbing --------------------------------------------

    def _flush_pending(self) -> None:
        """Fault in (dirty) the translation pages GC relocations touched.

        Runs at host-op boundaries, never inside GC: faulting a page in
        can evict another, whose writeback can trigger GC, whose
        relocations can dirty further pages -- the loop drains the set
        in deterministic (ascending tvpn) order until quiescent.
        """
        while self._pending_trans_dirty:
            tvpn = min(self._pending_trans_dirty)
            self._pending_trans_dirty.discard(tvpn)
            self.store.access_tvpn(tvpn, dirty=True)

    def _note_relocated(self, lpns: np.ndarray) -> None:
        """GC moved these lpns: their translation entries changed."""
        epp = self.store.entries_per_page
        # Ascending and distinct, as ``np.unique`` would give, without its
        # Python frames for a block's worth of lpns.
        for tvpn in sorted(set((np.asarray(lpns, dtype=np.int64) // epp).tolist())):
            if not self.store.mark_dirty(tvpn):
                self._pending_trans_dirty.add(tvpn)

    def _trans_seal(self, block: int) -> None:
        self._trans_sealed.add(block)

    def _trans_destination(self, allow_gc: bool = False) -> int:
        """The open translation block, allocating a fresh one as needed.

        ``allow_gc`` lets the host-path writeback replenish the free
        pool first (mirroring the data path's foreground GC); the
        GC-internal path must not recurse into collection.
        """
        block = self._trans_active
        while block is None or self.nand.is_block_full(block):
            if block is not None:
                self._trans_seal(block)
                self._trans_active = None
            if allow_gc and self.gc_needed():
                allow_gc = False
                self.collect(self.gc_high_watermark, build_ops=False)
                block = self._trans_active  # GC may have opened one
                continue
            block = self._take_free_block()
            self._trans_active = block
        return block

    def _trans_program_page(self, tvpn: int) -> None:
        """Program one translation page (CMT writeback / flush path)."""
        block = self._trans_destination(allow_gc=True)
        page, _ = self.nand.program_next(block, "translation-writeback")
        gtd = self.store.gtd_v
        old = gtd[tvpn]
        if old != UNMAPPED:
            self._trans_valid_v[self.geometry.block_of_page(old)] -= 1
        gtd[tvpn] = page
        self._trans_valid_v[block] += 1
        self._oob_lpn_v[page] = oob_tag_for_tvpn(tvpn)
        self._oob_serial_v[page] = self._program_serial
        self._program_serial += 1

    # -- Garbage collection ----------------------------------------------------

    def _select_trans_victim(self) -> int | None:
        """Sealed translation block with the fewest valid pages, or None.

        Fully-valid blocks reclaim nothing and are skipped; ties break
        to the lowest block id for determinism.
        """
        ppb = self.geometry.pages_per_block
        best: int | None = None
        best_valid = 0
        for block in sorted(self._trans_sealed):
            valid = self._trans_valid_v[block]
            if valid >= ppb:
                continue
            if best is None or valid < best_valid:
                best, best_valid = block, valid
        return best

    def collect_once(self, build_ops: bool = True) -> list[FlashOp]:
        """Reclaim one block, arbitrating data vs translation victims.

        The translation victim wins only when it is strictly cheaper
        (fewer valid pages to copy) than the best data candidate, or
        when no data block is reclaimable; ties go to data, keeping
        the data path's victim sequence stable.
        """
        victim = self._select_trans_victim()
        if victim is not None:
            tvalid = self._trans_valid_v[victim]
            data_best: int | None = None
            cand = self._sealed_mask.nonzero()[0]
            if cand.size:
                data_best = int(np.minimum.reduce(self.map.valid_counts[cand]))
            if (
                data_best is None
                or data_best >= self.geometry.pages_per_block
                or tvalid < data_best
            ):
                return self._collect_translation(victim, build_ops)
        return super().collect_once(build_ops)

    def _collect_translation(self, victim: int, build_ops: bool = True) -> list[FlashOp]:
        """Copy a translation block's live pages forward and erase it."""
        g = self.geometry
        ppb = g.pages_per_block
        gtd = self.store.gtd
        in_victim = (gtd != UNMAPPED) & (gtd // ppb == victim)
        tvpns = np.flatnonzero(in_victim)
        gtd_v = self.store.gtd_v
        trans_valid = self._trans_valid_v
        if self.tracer.enabled:
            self.tracer.publish(
                GcEvent(
                    "ftl.gc", "victim-selected", victim=victim,
                    valid_pages=int(tvpns.size), free_blocks=len(self._free),
                )
            )
        ops: list[FlashOp] = []
        uses_channel = not self.config.copyback
        for tvpn in tvpns.tolist():
            src = gtd_v[tvpn]
            dst_block = self._trans_destination(allow_gc=False)
            offset = self.nand.write_offset(dst_block)
            dst = g.first_page_of_block(dst_block) + offset
            latency = self.nand.copy_page(src, dst, "translation-gc")
            gtd_v[tvpn] = dst
            trans_valid[victim] -= 1
            trans_valid[dst_block] += 1
            self._oob_lpn_v[dst] = oob_tag_for_tvpn(tvpn)
            self._oob_serial_v[dst] = self._program_serial
            self._program_serial += 1
            if build_ops:
                ops.append(
                    FlashOp(OpKind.COPY, dst_block, dst, latency, uses_channel=uses_channel)
                )
        erase_latency = self._erase_reclaimed(victim, "translation-gc")
        self._trans_sealed.discard(victim)
        if build_ops:
            ops.append(FlashOp(OpKind.ERASE, victim, None, erase_latency))
        self.store.stats.gc_runs += 1
        if self.tracer.enabled:
            self.tracer.publish(
                TranslationEvent(
                    "ftl.dftl", "gc", block=victim, pages=int(tvpns.size)
                )
            )
            self.tracer.publish(
                GcEvent(
                    "ftl.gc", "collected", victim=victim,
                    pages_copied=int(tvpns.size), free_blocks=len(self._free),
                )
            )
        return ops

    # -- Power loss and recovery ------------------------------------------------

    def snapshot_mapping(self):
        """Durable snapshot: flush the CMT, then capture map + GTD.

        The flush makes every cached mapping mutation durable first, so
        the snapshot's GTD is authoritative and recovery only replays
        translation programs past the serial horizon.
        """
        self._flush_pending()
        self.store.flush()
        base = super().snapshot_mapping()
        return MappingSnapshot(
            serial=base.serial,
            clock=base.clock,
            l2p=base.l2p,
            gtd=self.store.gtd.copy(),
        )

    def crash(self) -> None:
        super().crash()
        # The CMT and the in-DRAM GTD are volatile; translation pages on
        # flash (and their OOB tags) survive and seed recovery.
        self.store.drop_cache()
        self.store.gtd.fill(UNMAPPED)
        self._trans_active = None
        self._trans_sealed = set()
        self._trans_valid.fill(0)
        self._pending_trans_dirty = set()
        self._recovered_trans_blocks = set()

    def _recovery_excluded_blocks(self) -> set[int]:
        return self._recovered_trans_blocks

    def recover(self, snapshot=None) -> int:
        """Rebuild GTD + mapping after :meth:`crash`; returns data pages replayed.

        The GTD comes back the same way the data map does: start from
        the snapshot's GTD (dropping entries the flash disagrees with),
        then replay translation pages' OOB tags at or past the serial
        horizon in program order so the newest copy of each translation
        page wins. Translation blocks are claimed before the base
        recovery classifies pools, so they never reopen as data blocks.
        """
        g = self.geometry
        ppb = g.pages_per_block
        offsets = self.nand.write_offsets
        bad = self.nand.wear.bad_mask
        page_offsets = np.arange(g.total_pages, dtype=np.int64) % ppb
        programmed = ~np.repeat(bad, ppb) & (page_offsets < np.repeat(offsets, ppb))
        trans_pages = programmed & (self._oob_lpn <= _TRANS_OOB_BASE)

        horizon = 0
        gtd = np.full(self.store.translation_pages, UNMAPPED, dtype=np.int64)
        if snapshot is not None and getattr(snapshot, "gtd", None) is not None:
            if len(snapshot.gtd) != self.store.translation_pages:
                raise ValueError("snapshot GTD does not match this FTL")
            horizon = snapshot.serial
            gtd = snapshot.gtd.copy()
            mapped = np.flatnonzero(gtd != UNMAPPED)
            if mapped.size:
                ppns = gtd[mapped]
                stale = ~trans_pages[ppns] | (
                    self._oob_lpn[ppns] != _TRANS_OOB_BASE - mapped
                )
                gtd[mapped[stale]] = UNMAPPED

        replay = np.flatnonzero(trans_pages & (self._oob_serial >= horizon))
        if replay.size:
            order = np.argsort(self._oob_serial[replay], kind="stable")
            replay_sorted = replay[order]
            gtd[_TRANS_OOB_BASE - self._oob_lpn[replay_sorted]] = replay_sorted

        # Claim translation blocks before base recovery runs so its pool
        # classification skips them.
        trans_blocks = np.unique(np.flatnonzero(trans_pages) // ppb)
        self._recovered_trans_blocks = set(int(b) for b in trans_blocks)

        replayed = super().recover(snapshot)

        self.store.gtd[:] = gtd
        self.store.drop_cache()
        self._pending_trans_dirty = set()
        live = gtd[gtd != UNMAPPED]
        self._trans_valid[:] = np.bincount(live // ppb, minlength=g.total_blocks)
        self._trans_active = None
        self._trans_sealed = set()
        for block in self._recovered_trans_blocks:
            if offsets[block] == ppb:
                self._trans_seal(block)
            elif self._trans_active is None:
                self._trans_active = block
            else:
                self._trans_pad_and_seal(block)
        return replayed

    def _trans_pad_and_seal(self, block: int) -> None:
        """Pad a partial translation block shut (recovery only)."""
        free = self.geometry.pages_per_block - self.nand.write_offset(block)
        first, _ = self.nand.program_run(block, free, "recovery")
        self._oob_lpn[first : first + free] = UNMAPPED
        self._trans_seal(block)

    # -- Consistency checking ----------------------------------------------------

    def check_invariants(self) -> None:
        super().check_invariants()
        self.store.check_invariants()
        assert self._trans_valid_v.obj is self._trans_valid, (
            "_trans_valid rebound away from its view"
        )
        data_active = {b for b in self._active.values() if b is not None}
        data_active |= {b for b in self._gc_active.values() if b is not None}
        trans = set(self._trans_sealed)
        if self._trans_active is not None:
            trans.add(self._trans_active)
        assert not (trans & set(self._free)), "translation block in free pool"
        assert not (trans & self.sealed_blocks), "translation block in data sealed pool"
        assert not (trans & data_active), "translation block also a data active"
        for block in self._trans_sealed:
            assert self.nand.is_block_full(block), f"trans sealed {block} not full"
        gtd = self.store.gtd
        live = gtd[gtd != UNMAPPED]
        if live.size:
            blocks = np.unique(live // self.geometry.pages_per_block)
            assert set(blocks.tolist()) <= trans, "GTD points outside translation blocks"
        counted = np.bincount(
            live // self.geometry.pages_per_block,
            minlength=self.geometry.total_blocks,
        ).astype(np.int32)
        assert np.array_equal(counted, self._trans_valid), "trans valid counts drifted"


__all__ = [
    "DemandPagedFTL",
    "oob_tag_for_tvpn",
    "tvpn_from_oob",
]
