"""Page-granularity logical-to-physical address mapping.

The mapping table is the conventional FTL's largest DRAM consumer: one
entry per logical page (~4 bytes in optimized implementations, paper
§2.2). Two residency models live here:

- :class:`FullPageMap` keeps the whole forward map in DRAM -- the
  mapping the paper's §2.2 DRAM-cost argument is about, and what
  :class:`~repro.ftl.ftl.ConventionalFTL` uses.
- :class:`TranslationStore` is the DFTL alternative (footnote 1): the
  authoritative map lives in *translation pages on flash*, a Global
  Translation Directory (GTD) tracks where each translation page
  currently sits, and a small DRAM-budgeted Cached Mapping Table (CMT)
  holds the hot translation pages. Misses cost real flash reads; dirty
  evictions cost real flash programs.

The array kernels at the bottom are the bulk halves of both: each
mutates the caller's numpy arrays in place with no per-page Python work,
and leaves them exactly as the scalar method it stands in for would
(``tests/sim/test_compiled_parity.py`` checks that against scalar
references over random sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.flash.geometry import FlashGeometry
from repro.flash.state import Replayable
from repro.obs.events import TranslationEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.flash.nand import NandArray
    from repro.obs.tracer import Tracer

UNMAPPED = -1

#: Bytes per mapping entry, the paper's ~4 bytes (§2.2): one LPN's entry in
#: a page map, one block's in a zone map.
MAP_ENTRY_BYTES = 4

#: Inputs of at most this many elements take a plain Python loop instead of
#: a numpy kernel: below it the kernel's array setup and wrapper frames cost
#: more than the loop (:meth:`FullPageMap.map_batch`, and the wear-level
#: policies' free-block choice; DESIGN.md §6, "Handfuls stay in Python").
SMALL_BATCH = 16


class FullPageMap(Replayable):
    """Forward (L2P) and reverse (P2L) page maps with validity tracking.

    Invariants (checked by the test suite, relied on by GC):

    - ``l2p[l] == p`` iff ``p2l[p] == l`` (the maps are mutual inverses on
      their mapped domains);
    - a physical page is *valid* iff it appears in the reverse map;
    - ``valid_counts[b]`` equals the number of valid pages in block ``b``.
    """

    def __init__(self, geometry: FlashGeometry, logical_pages: int):
        if logical_pages < 1:
            raise ValueError("logical_pages must be >= 1")
        if logical_pages > geometry.total_pages:
            raise ValueError(
                f"cannot export {logical_pages} logical pages from "
                f"{geometry.total_pages} physical pages"
            )
        self.geometry = geometry
        self.logical_pages = logical_pages
        # Each array has a ``*_v`` memoryview of its own buffer: scalar
        # ops index the view (a plain int), the run kernels the array.
        # Neither is ever rebound; write in place.
        self.l2p = np.full(logical_pages, UNMAPPED, dtype=np.int64)
        self.l2p_v = memoryview(self.l2p)
        self.p2l = np.full(geometry.total_pages, UNMAPPED, dtype=np.int64)
        self.p2l_v = memoryview(self.p2l)
        self.valid_counts = np.zeros(geometry.total_blocks, dtype=np.int32)
        self.valid_counts_v = memoryview(self.valid_counts)
        self.mapped_pages = 0

    def check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.logical_pages:
            raise IndexError(f"lpn {lpn} out of range [0, {self.logical_pages})")

    def lookup(self, lpn: int) -> int:
        """Physical page for ``lpn`` or :data:`UNMAPPED`."""
        if not 0 <= lpn < self.logical_pages:
            self.check_lpn(lpn)
        return self.l2p_v[lpn]

    def is_mapped(self, lpn: int) -> bool:
        return self.lookup(lpn) != UNMAPPED

    def owner_of(self, ppn: int) -> int:
        """Logical page stored at physical ``ppn`` or :data:`UNMAPPED`."""
        self.geometry.check_page(ppn)
        return self.p2l_v[ppn]

    def is_valid(self, ppn: int) -> bool:
        return self.owner_of(ppn) != UNMAPPED

    def map(self, lpn: int, ppn: int) -> int:
        """Bind ``lpn`` to ``ppn``; returns the invalidated old ppn or UNMAPPED.

        The caller must have programmed ``ppn`` already; double-mapping a
        physical page is a logic error.
        """
        if not 0 <= lpn < self.logical_pages:
            self.check_lpn(lpn)
        geometry = self.geometry
        if not 0 <= ppn < geometry.total_pages:
            geometry.check_page(ppn)
        l2p = self.l2p_v
        p2l = self.p2l_v
        if p2l[ppn] != UNMAPPED:
            raise ValueError(f"physical page {ppn} is already mapped to lpn {p2l[ppn]}")
        old_ppn = l2p[lpn]
        if old_ppn != UNMAPPED:
            self._invalidate_physical(old_ppn)
        else:
            self.mapped_pages += 1
        l2p[lpn] = ppn
        p2l[ppn] = lpn
        self.valid_counts_v[ppn // geometry.pages_per_block] += 1
        return old_ppn

    def unmap(self, lpn: int) -> int:
        """Remove the binding for ``lpn`` (TRIM); returns the freed ppn."""
        self.check_lpn(lpn)
        ppn = self.l2p_v[lpn]
        if ppn == UNMAPPED:
            return UNMAPPED
        self._invalidate_physical(ppn)
        self.l2p_v[lpn] = UNMAPPED
        self.mapped_pages -= 1
        return ppn

    def _invalidate_physical(self, ppn: int) -> None:
        self.p2l_v[ppn] = UNMAPPED
        # Every caller holds a mapped, hence in-range, ppn.
        block = ppn // self.geometry.pages_per_block
        count = self.valid_counts_v[block] - 1
        self.valid_counts_v[block] = count
        if count < 0:
            # ValueError, matching the batch kernel's negative-count
            # contract -- scalar and batched paths fail identically.
            raise ValueError(f"valid count of block {block} went negative")

    def valid_pages_in_block(self, block: int) -> list[int]:
        """Physical pages in ``block`` that currently hold valid data."""
        return self.valid_pages_array(block).tolist()

    def valid_pages_array(self, block: int) -> np.ndarray:
        """Vectorized :meth:`valid_pages_in_block` (int64 array, ascending)."""
        geometry = self.geometry
        if not 0 <= block < geometry.total_blocks:
            geometry.check_block(block)
        ppb = geometry.pages_per_block
        start = block * ppb
        return (self.p2l[start : start + ppb] != UNMAPPED).nonzero()[0] + start

    def relocate(self, ppn_from: int, ppn_to: int) -> int:
        """Move a valid page's binding (GC copy-forward); returns the lpn."""
        lpn = self.owner_of(ppn_from)
        if lpn == UNMAPPED:
            raise ValueError(f"relocate of invalid physical page {ppn_from}")
        if self.p2l_v[ppn_to] != UNMAPPED:
            raise ValueError(f"relocate target {ppn_to} already mapped")
        self._invalidate_physical(ppn_from)
        self.l2p_v[lpn] = ppn_to
        self.p2l_v[ppn_to] = lpn
        self.valid_counts_v[self.geometry.block_of_page(ppn_to)] += 1
        return lpn

    # -- Batched operations (exact-parity fast paths) -----------------------

    def map_batch(self, lpns: np.ndarray, ppns: np.ndarray) -> None:
        """Bind ``lpns[i]`` to ``ppns[i]`` for all i, as :meth:`map` would.

        Semantically identical to ``for l, p in zip(lpns, ppns): self.map(l, p)``
        including duplicate ``lpns`` within the batch (later occurrences
        supersede earlier ones, whose physical pages become invalid), but
        without per-page Python work. ``ppns`` must be freshly-programmed
        (unmapped) physical pages, all within one erasure block.
        """
        n = len(lpns)
        if n == 0:
            return
        if n <= SMALL_BATCH:
            # Serving-sized batches: the scalar loop beats the kernel's
            # array setup, and :meth:`map` is the semantics by definition.
            for lpn, ppn in zip(lpns.tolist(), ppns.tolist()):
                self.map(lpn, ppn)
            return
        ppb = self.geometry.pages_per_block
        block = int(ppns[0]) // ppb
        # Last occurrence of each lpn wins; earlier in-batch occurrences
        # map-then-invalidate entirely inside ``block`` (net zero on its
        # valid count), so only survivors touch the maps.
        self.mapped_pages += map_batch_apply(
            self.l2p, self.p2l, self.valid_counts, lpns, ppns, block, ppb
        )

    def relocate_run(self, ppns_from: np.ndarray, dst_first: int) -> np.ndarray:
        """Move one victim block's valid bindings in bulk (GC copy-forward).

        Equivalent to :meth:`relocate` per page; returns the moved lpns, in
        source order. All ``ppns_from`` must be valid, distinct pages of a
        single erasure block; destinations are the contiguous
        freshly-programmed run starting at ``dst_first`` -- O(run) with no
        per-destination address arithmetic.
        """
        n = len(ppns_from)
        p2l = self.p2l
        lpns = p2l[ppns_from]
        if not n:
            return lpns
        if np.minimum.reduce(lpns) == UNMAPPED:
            raise ValueError("relocate of invalid physical page")
        p2l[ppns_from] = UNMAPPED
        self.l2p[lpns] = np.arange(dst_first, dst_first + n, dtype=np.int64)
        p2l[dst_first : dst_first + n] = lpns
        ppb = self.geometry.pages_per_block
        counts = self.valid_counts_v
        counts[int(ppns_from[0]) // ppb] -= n
        counts[dst_first // ppb] += n
        return lpns

    def dram_bytes(self) -> int:
        """On-board DRAM the forward map would occupy (paper §2.2)."""
        return self.logical_pages * MAP_ENTRY_BYTES


@dataclass
class TranslationStats:
    """CMT/GTD accounting. The flash traffic it causes is counted by the
    NAND, per cause: ``translation-fetch`` reads for misses on materialized
    translation pages, ``translation-writeback`` programs for dirty
    evictions and flushes, ``translation-gc`` copies and erases."""

    lookups: int = 0
    hits: int = 0
    #: CMT misses for translation pages never yet written to flash --
    #: no read needed, the cached copy starts empty.
    compulsory_misses: int = 0
    gc_runs: int = 0

    @property
    def hit_rate(self) -> float:
        """CMT hit fraction; 0.0 before any lookup (no traffic, no hits)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups


class TranslationStore(Replayable):
    """DFTL's on-flash mapping: GTD + DRAM-budgeted LRU CMT.

    The logical space is carved into *translation virtual pages* (tvpns)
    of ``entries_per_page`` consecutive lpn->ppn entries (4 bytes each,
    so one flash page holds ``page_size / 4`` entries). The GTD maps
    each tvpn to the flash page holding its current on-flash copy
    (:data:`UNMAPPED` until first writeback). The CMT caches up to
    ``capacity_pages`` translation pages; a miss on a materialized tvpn
    costs one flash read, and evicting a dirty entry costs one flash
    program, issued through the ``program_page`` callable the owning FTL
    injects (the FTL owns translation-block allocation, OOB tagging, and
    GTD updates so translation programs obey the same physics as data).

    The CMT is array-backed: ``tvpn_slot`` maps a tvpn to its cache slot
    (or :data:`UNMAPPED`), and per-slot arrays hold the resident tvpn,
    its dirty flag, and an LRU stamp. One monotonic counter stamps every
    insert and every hit, so the least-recently-used entry is exactly
    the minimum-stamp slot -- semantically identical to the OrderedDict
    (hit = ``move_to_end``, evict = ``popitem(last=False)``) it
    replaced, and selectable in bulk by
    :func:`cmt_evict_batch` when flushing.
    """

    BYTES_PER_ENTRY = MAP_ENTRY_BYTES

    def __init__(
        self,
        geometry: FlashGeometry,
        logical_pages: int,
        nand: "NandArray",
        cmt_bytes: int,
        program_page: Callable[[int], None],
        tracer: "Tracer | None" = None,
    ):
        if cmt_bytes < 1:
            raise ValueError("cmt_bytes must be >= 1")
        self.geometry = geometry
        self.logical_pages = logical_pages
        self.nand = nand
        self.cmt_bytes = cmt_bytes
        self._program_page = program_page
        self.tracer = tracer
        self.entries_per_page = geometry.page_size // self.BYTES_PER_ENTRY
        if self.entries_per_page < 1:
            raise ValueError("page_size too small to hold a translation entry")
        self.translation_pages = -(-logical_pages // self.entries_per_page)
        #: CMT budget in cached translation pages; a budget below one
        #: page still caches one (the working set of the current access).
        self.capacity_pages = max(1, cmt_bytes // geometry.page_size)
        #: GTD: tvpn -> flash ppn of the authoritative translation page.
        #: Each array below has a ``*_v`` memoryview of its buffer for
        #: scalar access, as on :class:`FullPageMap`; none is rebound.
        self.gtd = np.full(self.translation_pages, UNMAPPED, dtype=np.int64)
        self.gtd_v = memoryview(self.gtd)
        #: CMT slot arrays. ``tvpn_slot[tvpn]`` is the slot caching that
        #: tvpn or UNMAPPED; slots below ``_used`` are occupied.
        self.tvpn_slot = np.full(self.translation_pages, UNMAPPED, dtype=np.int64)
        self.tvpn_slot_v = memoryview(self.tvpn_slot)
        self.slot_tvpn = np.full(self.capacity_pages, UNMAPPED, dtype=np.int64)
        self.slot_tvpn_v = memoryview(self.slot_tvpn)
        self.slot_dirty = np.zeros(self.capacity_pages, dtype=np.uint8)
        self.slot_dirty_v = memoryview(self.slot_dirty)
        self.slot_stamp = np.zeros(self.capacity_pages, dtype=np.int64)
        self.slot_stamp_v = memoryview(self.slot_stamp)
        self._stamp = 0
        self._used = 0
        self._peak_used = 0
        self.stats = TranslationStats()

    # -- Introspection ------------------------------------------------------

    def tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_page

    def is_cached(self, tvpn: int) -> bool:
        return self.tvpn_slot_v[tvpn] != UNMAPPED

    def dram_bytes(self) -> int:
        """DRAM the CMT budget occupies (the GTD rides along, tiny)."""
        return self.capacity_pages * self.geometry.page_size

    @property
    def resident_bytes(self) -> int:
        """DRAM the currently cached translation pages occupy."""
        return self._used * self.geometry.page_size

    @property
    def peak_resident_bytes(self) -> int:
        """High-water mark of :attr:`resident_bytes` over the run --
        the number the DRAM-budget assertion checks against ``cmt_bytes``
        (rounded up to whole pages, the cache's allocation grain)."""
        return self._peak_used * self.geometry.page_size

    # -- The access path ----------------------------------------------------

    def access(self, lpn: int, dirty: bool) -> None:
        """Touch the translation entry for ``lpn`` (read: clean, write: dirty).

        Hit: LRU bump. Miss: evict the LRU entry if the CMT is full
        (writing it back first when dirty), then fault the translation
        page in -- one flash read if it has ever been written back,
        free if it is compulsory (never materialized).
        """
        self.access_tvpn(self.tvpn_of(lpn), dirty)

    def access_tvpn(self, tvpn: int, dirty: bool) -> None:
        self.stats.lookups += 1
        tvpn_slot = self.tvpn_slot_v
        slot = tvpn_slot[tvpn]
        if slot != UNMAPPED:
            self.stats.hits += 1
            if dirty:
                self.slot_dirty_v[slot] = 1
            self.slot_stamp_v[slot] = self._stamp
            self._stamp += 1
            return
        if self._used >= self.capacity_pages:
            # All slots occupied; the LRU victim is the minimum stamp.
            # Remove it from the index *before* the writeback: a
            # writeback-triggered GC that touches the victim's tvpn must
            # see it uncached (pending-dirty path), exactly as the dict
            # version's popitem-then-writeback order guaranteed.
            slot = int(self.slot_stamp.argmin())
            victim = self.slot_tvpn_v[slot]
            victim_dirty = self.slot_dirty_v[slot] != 0
            tvpn_slot[victim] = UNMAPPED
            self.slot_tvpn_v[slot] = UNMAPPED
            self.slot_dirty_v[slot] = 0
            self._used -= 1
            if victim_dirty:
                self._writeback(victim)
        else:
            slot = self._used
        ppn = self.gtd_v[tvpn]
        if ppn != UNMAPPED:
            self.nand.read(ppn, "translation-fetch")
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.publish(
                    TranslationEvent("ftl.dftl", "miss-fetch", tvpn=tvpn)
                )
        else:
            self.stats.compulsory_misses += 1
        tvpn_slot[tvpn] = slot
        self.slot_tvpn_v[slot] = tvpn
        self.slot_dirty_v[slot] = 1 if dirty else 0
        self.slot_stamp_v[slot] = self._stamp
        self._stamp += 1
        self._used += 1
        if self._used > self._peak_used:
            self._peak_used = self._used

    def mark_dirty(self, tvpn: int) -> bool:
        """Dirty ``tvpn`` if cached (no LRU bump); True when it was cached.

        GC relocations use this: moving a data page rewrites its mapping
        entry, but the relocation is device-internal and must not perturb
        the host-driven LRU order.
        """
        slot = self.tvpn_slot_v[tvpn]
        if slot != UNMAPPED:
            self.slot_dirty_v[slot] = 1
            return True
        return False

    def _writeback(self, tvpn: int) -> None:
        self._program_page(tvpn)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.publish(TranslationEvent("ftl.dftl", "writeback", tvpn=tvpn))

    def flush(self) -> int:
        """Write back every dirty CMT entry (checkpoint); returns the count.

        Entries stay cached but clean, in unchanged LRU order, so a
        flush is observable only through the flash programs it issues.
        The dirty set is selected in one batched pass
        (:func:`cmt_evict_batch`, LRU-ascending --
        the order the dict version walked).
        """
        dirty = cmt_evict_batch(self.slot_tvpn, self.slot_dirty, self.slot_stamp)
        for tvpn in dirty.tolist():
            self._program_page(tvpn)
            # A translation program can recurse into GC, which may
            # re-dirty this very entry mid-flush; the scalar loop
            # cleared each flag *after* its program, so re-clear here
            # to keep that exact semantics.
            self.slot_dirty_v[self.tvpn_slot_v[tvpn]] = 0
        if dirty.size and self.tracer is not None and self.tracer.enabled:
            self.tracer.publish(
                TranslationEvent("ftl.dftl", "flush", pages=int(dirty.size))
            )
        return int(dirty.size)

    def drop_cache(self) -> None:
        """Forget the CMT (power loss); the GTD survives via recovery."""
        self.tvpn_slot.fill(UNMAPPED)
        self.slot_tvpn.fill(UNMAPPED)
        self.slot_dirty.fill(0)
        self.slot_stamp.fill(0)
        self._used = 0

    def check_invariants(self) -> None:
        """Assert the CMT's index, slots, stamps and counters agree.

        Slots below ``_used`` are the occupied ones: ``tvpn_slot`` and
        ``slot_tvpn`` are inverse there and :data:`UNMAPPED` everywhere
        else, each occupied slot has its own stamp below the counter, and
        no empty slot is dirty.
        """
        for name in ("gtd", "tvpn_slot", "slot_tvpn", "slot_dirty", "slot_stamp"):
            view = getattr(self, name + "_v")
            assert view.obj is getattr(self, name), f"{name} rebound away from its view"
        used = self._used
        assert 0 <= used <= self.capacity_pages, "CMT holds more pages than its budget"
        assert self._peak_used >= used, "peak residency below current residency"
        occupied = self.slot_tvpn[:used]
        assert (self.slot_tvpn[used:] == UNMAPPED).all(), "empty slot caches a tvpn"
        assert np.array_equal(self.tvpn_slot[occupied], np.arange(used)), (
            "tvpn_slot is not the inverse of slot_tvpn"
        )
        assert int(np.count_nonzero(self.tvpn_slot != UNMAPPED)) == used, (
            "tvpn_slot gives an uncached tvpn a slot"
        )
        stamps = self.slot_stamp[:used]
        assert np.unique(stamps).size == used, "two cached pages share an LRU stamp"
        assert (stamps < self._stamp).all(), "LRU stamp at or past the counter"
        assert not self.slot_dirty[used:].any(), "empty slot marked dirty"
        assert self.stats.hits <= self.stats.lookups, "more CMT hits than lookups"


# -- Mapping-table applier -------------------------------------------------------
#
# Mutates the FullPageMap arrays (l2p, p2l, valid_counts) in place. The
# contract is FullPageMap.map_batch's: destinations are freshly-programmed
# pages within ONE erasure block.


def map_batch_apply(l2p, p2l, valid_counts, lpns, ppns, block, ppb):
    """Bind ``lpns[i] -> ppns[i]`` in scalar order; returns mapped-page delta.

    All ``ppns`` must be unmapped, freshly-programmed pages inside
    erasure block ``block``. In-batch duplicate lpns resolve exactly as a
    scalar loop would (later occurrences supersede earlier ones): a stable
    sort keeps each lpn's occurrences in batch order, so the last of each
    run of equal lpns is the one that survives.
    """
    order = lpns.argsort(kind="stable")
    ordered = lpns[order]
    last = np.empty(ordered.shape[0], dtype=bool)
    last[-1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=last[:-1])
    survivors = ordered[last]
    final_ppns = ppns[order[last]]
    prev = l2p[survivors]
    prev_ppns = prev[prev != UNMAPPED]
    if prev_ppns.size:
        p2l[prev_ppns] = UNMAPPED
        np.subtract.at(valid_counts, prev_ppns // ppb, 1)
        if np.minimum.reduce(valid_counts[prev_ppns // ppb]) < 0:
            raise ValueError("valid count went negative in map batch")
    l2p[survivors] = final_ppns
    p2l[final_ppns] = survivors
    valid_counts[block] += survivors.size
    return survivors.size - prev_ppns.size


# -- CMT (cached mapping table) kernels -----------------------------------------
#
# The DFTL's CMT is slot arrays (tvpn -> slot, slot -> tvpn/dirty/stamp)
# with a monotonically-stamped LRU: every insert and every hit assigns
# the next stamp, so "least recently used" is exactly "minimum stamp" --
# the array twin of an OrderedDict with move_to_end on hit. The kernel
# below is the flush's batch pass over those arrays; the scalar
# hit/miss/evict machinery stays in :class:`TranslationStore` (it issues
# real flash I/O and can recurse into GC, which no kernel can).


def cmt_evict_batch(slot_tvpn, slot_dirty, slot_stamp):
    """Batched dirty write-back selection: dirty tvpns in LRU order.

    Clears the selected slots' dirty flags and returns their tvpns
    oldest-stamp first -- the order a scalar flush walks the cache.
    Stamps are unique (one monotonic counter), so the order is total.
    The caller issues the actual translation programs.
    """
    idx = np.flatnonzero((slot_tvpn >= 0) & (slot_dirty != 0))
    idx = idx[np.argsort(slot_stamp[idx])]
    out = slot_tvpn[idx].copy()
    slot_dirty[idx] = 0
    return out


__all__ = [
    "MAP_ENTRY_BYTES",
    "SMALL_BATCH",
    "FullPageMap",
    "TranslationStats",
    "TranslationStore",
    "UNMAPPED",
]
