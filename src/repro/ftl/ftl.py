"""The conventional FTL: page-mapped translation with garbage collection.

This is the machinery the paper wants to delete from the device. It exposes
a flat logical page space (sized by the overprovisioning ratio), maintains
the page map, appends host writes to per-stream active blocks, and reclaims
space by copying valid pages forward out of victim blocks before erasing
them -- the write amplification the paper's §2.2 experiment measures.

Multi-stream support models the NVMe multi-stream directive (paper §2.3):
hosts tag writes with a stream id and the FTL segregates streams into
different erasure blocks, a conventional-SSD workaround for data placement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.errors import BadBlockError, FlashError, ProgramFaultError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.ops import FlashOp, OpKind
from repro.flash.state import Replayable
from repro.flash.timing import TimingModel
from repro.flash.wear import WearTracker
from repro.ftl.checkpoint import MappingSnapshot
from repro.ftl.gc import VictimPolicy, make_policy
from repro.ftl.mapping import UNMAPPED, FullPageMap
from repro.ftl.wearlevel import make_wearlevel
from repro.obs.events import GcEvent, RecoveryEvent
from repro.obs.tracer import Tracer


class GCStuckError(FlashError):
    """GC cannot reclaim space: every candidate block is fully valid.

    Indicates the device was configured with no effective spare capacity.
    """


class UnmappedReadError(FlashError):
    """A read targeted a logical page that holds no data."""


class CapacityError(FlashError):
    """The configuration exports more logical space than flash can back."""


@dataclass(frozen=True)
class FTLConfig:
    """Tunables for :class:`ConventionalFTL`.

    Parameters
    ----------
    op_ratio:
        Overprovisioning as a fraction of *exported* capacity (the paper's
        "7-28% of usable capacity"). 0.0 means no advertised spare beyond
        the FTL's minimum internal reserve.
    gc_policy:
        Victim selection: 'greedy', 'cost-benefit', or 'fifo'.
    streams:
        Number of write streams (active blocks) for host data. 1 models a
        plain block device; >1 models the multi-stream directive.
    gc_low_watermark / gc_high_watermark:
        Free-block thresholds: GC starts when the pool drops to the low
        mark and runs until it recovers to the high mark. Defaults scale
        with stream count.
    copyback:
        If True, GC copies stay on-die (no channel occupancy in timed
        runs); if False every copy crosses the channel.
    reserved_blocks:
        Extra blocks withheld from exported capacity on top of the
        internal reserve. Subsystems that store their own metadata on
        flash (the demand-paged FTL's translation pages) reserve their
        footprint here so the logical space shrinks accordingly.
    wl_policy:
        Wear-leveling policy: 'none', 'dynamic' (default), or 'static'
        (see :mod:`repro.ftl.wearlevel`). ``None`` means 'dynamic', the
        allocation math the FTL has always used.
    """

    op_ratio: float = 0.07
    gc_policy: str = "greedy"
    streams: int = 1
    gc_low_watermark: int | None = None
    gc_high_watermark: int | None = None
    copyback: bool = True
    gc_streams: int = 1
    reserved_blocks: int = 0
    wl_policy: str | None = None

    def __post_init__(self) -> None:
        if self.op_ratio < 0:
            raise ValueError("op_ratio must be >= 0")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")
        if self.gc_streams < 1:
            raise ValueError("gc_streams must be >= 1")
        if self.reserved_blocks < 0:
            raise ValueError("reserved_blocks must be >= 0")
        # Fail at config time, not first allocation.
        make_wearlevel(self.wl_policy)


@dataclass
class FTLStats:
    """Cumulative FTL decisions. The flash ops they cost are counted once,
    per cause, by the NAND (``nand.counters``), and device WA is
    :meth:`~repro.obs.frame.OpCounter.write_amplification` over them."""

    gc_runs: int = 0
    trims: int = 0
    #: Untimed, each inline collection a write had to wait for; timed
    #: (``TimedConventionalSSD._stall_began``), each write that parked.
    foreground_gc_stalls: int = 0
    program_faults: int = 0
    blocks_retired: int = 0
    crash_recoveries: int = 0
    pages_replayed: int = 0


class ConventionalFTL(Replayable):
    """Page-mapped FTL over a :class:`NandArray`.

    Commands that do flash work (:meth:`write`, :meth:`read`,
    :meth:`collect`, :meth:`collect_once`, :meth:`wear_level_once`) build
    :class:`FlashOp` records of it on request: ``build_ops=True``, the
    default, for callers that replay them in the DES or price them;
    untimed callers pass ``False`` and get ``[]`` (``None`` from
    :meth:`read`). The device ends in the same state either way.

    Valid data leaves a block through one routine, :meth:`_copy_forward`,
    in runs: one ``copy_run`` per GC destination stream and block boundary,
    never a flash call per page (DESIGN.md §6 "Relocation moves in runs").
    """

    #: Free blocks the FTL always holds back from exported capacity:
    #: one per user stream, one GC destination, and safety slack so GC can
    #: always make forward progress.
    _INTERNAL_RESERVE_SLACK = 2

    #: Program faults tolerated on one active block before the FTL stops
    #: trusting it: valid data is relocated and the block is retired.
    _RETIRE_AFTER_FAULTS = 2

    #: Bound on the program-fault recovery loop for a single host page.
    #: Exhausting it means the fault rate is so high no block accepts a
    #: page; the last fault propagates.
    _MAX_PROGRAM_ATTEMPTS = 16

    def __init__(
        self,
        geometry: FlashGeometry,
        config: FTLConfig | None = None,
        nand: NandArray | None = None,
        timing: TimingModel | None = None,
        wear: WearTracker | None = None,
        tracer: Tracer | None = None,
        faults=None,
    ):
        self.geometry = geometry
        self.config = config or FTLConfig()
        self.nand = nand or NandArray(
            geometry, timing=timing, wear=wear, tracer=tracer, faults=faults
        )
        # One bus for the whole stack: GC events interleave with the NAND
        # ops they cause, so a single sink sees cause and effect.
        self.tracer = tracer if tracer is not None else self.nand.tracer
        self.policy: VictimPolicy = make_policy(self.config.gc_policy)
        self.wearlevel = make_wearlevel(self.config.wl_policy)
        self.stats = FTLStats()

        reserve_blocks = (
            self.config.streams
            + self.config.gc_streams
            + self._INTERNAL_RESERVE_SLACK
            + self.config.reserved_blocks
        )
        if reserve_blocks >= geometry.total_blocks:
            raise CapacityError(
                f"device has {geometry.total_blocks} blocks; "
                f"{reserve_blocks} needed for internal reserve alone"
            )
        max_exported = (geometry.total_blocks - reserve_blocks) * geometry.pages_per_block
        by_op = int(geometry.total_pages / (1.0 + self.config.op_ratio))
        self.logical_pages = min(by_op, max_exported)
        if self.logical_pages < 1:
            raise CapacityError("configuration exports zero logical pages")
        self.map = FullPageMap(geometry, self.logical_pages)

        self._free: list[int] = list(range(geometry.total_blocks))
        # The sealed pool as a per-block mask: ``nonzero()`` lists it
        # in ascending id, so every victim tie goes to the lowest block id
        # whatever order blocks were sealed and erased in (DESIGN.md §6).
        self._sealed_mask = np.zeros(geometry.total_blocks, dtype=bool)
        self._sealed_mask_v = memoryview(self._sealed_mask)
        # Logical seal time per block (stale for unsealed blocks, never
        # read). Like the OOB columns below it has a ``*_v`` memoryview of
        # its buffer for scalar access, and is written in place.
        self._seal_time_arr = np.zeros(geometry.total_blocks, dtype=np.int64)
        self._seal_time_arr_v = memoryview(self._seal_time_arr)
        self._clock = 0  # logical time: one tick per host write
        self._active: dict[int, int | None] = {s: None for s in range(self.config.streams)}
        self._gc_active: dict[int, int | None] = {s: None for s in range(self.config.gc_streams)}
        self._gc_cursor = 0
        self._plane_cursor = 0

        # Out-of-band (OOB) page metadata, conceptually stored in each
        # flash page's spare area alongside the data: the logical page it
        # holds and a monotonic program serial. Real FTLs rebuild their
        # mapping from exactly this after power loss; :meth:`recover`
        # does the same. Erase invalidates OOB implicitly -- pages at or
        # past a block's write offset are never consulted.
        self._oob_lpn = np.full(geometry.total_pages, UNMAPPED, dtype=np.int64)
        self._oob_lpn_v = memoryview(self._oob_lpn)
        self._oob_serial = np.zeros(geometry.total_pages, dtype=np.int64)
        self._oob_serial_v = memoryview(self._oob_serial)
        self._program_serial = 0
        # Program faults seen per block since its last erase; feeds the
        # retire-after-repeated-faults policy.
        self._fault_counts: dict[int, int] = {}

        low = self.config.gc_low_watermark
        high = self.config.gc_high_watermark
        # The low mark must cover the worst-case transient demand of one
        # collection pass: every GC destination stream may need a fresh
        # block before the victim's erase returns one.
        default_low = self.config.streams + self.config.gc_streams
        self.gc_low_watermark = low if low is not None else default_low
        self.gc_high_watermark = high if high is not None else self.gc_low_watermark + 2
        if self.gc_high_watermark <= self.gc_low_watermark:
            raise ValueError("gc_high_watermark must exceed gc_low_watermark")

    # -- Introspection --------------------------------------------------------

    @property
    def free_block_count(self) -> int:
        return len(self._free)

    @property
    def sealed_blocks(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._sealed_mask).tolist())

    @property
    def effective_spare_factor(self) -> float:
        """Physical pages beyond exported, as a fraction of exported."""
        return (self.geometry.total_pages - self.logical_pages) / self.logical_pages

    def gc_needed(self) -> bool:
        return len(self._free) <= self.gc_low_watermark

    # -- Block allocation -----------------------------------------------------

    def _take_free_block(self) -> int:
        """Allocate the next free block per the wear-level policy.

        The default 'dynamic' policy picks the least-worn free block,
        tie-broken by rotating plane preference, so consecutive
        allocations spread across planes and sequential fills exploit
        parallelism.
        """
        free = self._free
        if not free:
            raise GCStuckError("free block pool is empty")
        planes = self.geometry.total_planes
        preferred = self._plane_cursor % planes
        self._plane_cursor += 1
        return free.pop(
            self.wearlevel.select(free, self.nand.wear.erase_counts_v, planes, preferred)
        )

    def _seal(self, block: int) -> None:
        self._sealed_mask_v[block] = True
        self._seal_time_arr_v[block] = self._clock
        self.policy.notify_sealed(block, self._clock)

    # -- Host operations -------------------------------------------------------

    def _open_next_block(self, stream: int, auto_gc: bool, ops: list[FlashOp] | None = None) -> int:
        """Cross a block boundary on ``stream``; returns the new active block.

        The host write paths' one boundary policy: seal the full active
        block, run foreground GC to the high watermark if the free pool
        is at the low one, let the wear-level policy migrate, take a free
        block. GC and wear-leveling op records are appended to ``ops``
        when given (GC skips building them otherwise).
        """
        active = self._active[stream]
        if active is not None:
            self._seal(active)
            self._active[stream] = None
        if auto_gc and self.gc_needed():
            self.stats.foreground_gc_stalls += 1
            if self.tracer.enabled:
                self.tracer.publish(GcEvent("ftl.gc", "watermark-low", free_blocks=len(self._free)))
            gc_ops = self.collect(self.gc_high_watermark, build_ops=ops is not None)
            if ops is not None:
                ops.extend(gc_ops)
            if self.tracer.enabled:
                self.tracer.publish(
                    GcEvent("ftl.gc", "watermark-recovered", free_blocks=len(self._free))
                )
        wl_ops = self._maybe_wear_level(build_ops=ops is not None)
        if ops is not None:
            ops.extend(wl_ops)
        active = self._take_free_block()
        self._active[stream] = active
        return active

    def write(
        self, lpn: int, stream: int = 0, auto_gc: bool = True, build_ops: bool = True
    ) -> list[FlashOp]:
        """Write one logical page; may trigger foreground GC.

        Returns the op records: any GC copies/erases performed to make
        room, then the host program itself; ``[]`` with ``build_ops=False``.
        """
        if not 0 <= lpn < self.logical_pages:
            self.map.check_lpn(lpn)
        ops: list[FlashOp] | None = [] if build_ops else None
        page, _, latency = self._program_host(stream, 1, auto_gc, ops)
        self.map.map(lpn, page)
        self._oob_lpn_v[page] = lpn
        self._oob_serial_v[page] = self._program_serial
        self._program_serial += 1
        if ops is None:
            return []
        ops.append(FlashOp(OpKind.PROGRAM, page // self.geometry.pages_per_block, page, latency))
        return ops

    def _checked_lpns(self, lpns) -> np.ndarray:
        """``lpns`` as a 1-D int64 array, or raise before anything is touched.

        The batch entry points' one input check: not a flat sequence of
        integers (bools and floats included; scalar ``write(1.5)`` raises
        too), or an address outside the logical space.
        """
        lpns = np.asarray(lpns)
        if lpns.ndim != 1:
            raise ValueError(f"lpn batch must be 1-D, got shape {lpns.shape}")
        if lpns.size == 0:
            return np.empty(0, dtype=np.int64)
        if lpns.dtype.kind not in "iu":
            raise TypeError(f"lpn batch must hold integers, got dtype {lpns.dtype}")
        lpns = lpns.astype(np.int64, copy=False)
        if np.minimum.reduce(lpns) < 0 or np.maximum.reduce(lpns) >= self.logical_pages:
            raise IndexError(f"lpn batch out of range [0, {self.logical_pages})")
        return lpns

    def write_pages(self, lpns: np.ndarray, stream: int = 0, auto_gc: bool = True) -> int:
        """Write many logical pages: :meth:`write`, a block run at a time.

        State-identical to ``for lpn in lpns: self.write(lpn, stream,
        auto_gc)`` -- same mapping table, counters, seal times, GC victim
        sequence, and trace aggregates -- but each run to the end of the
        active block is one program, mapped in bulk, and no
        :class:`FlashOp` records are built. Returns the number of pages
        written. Callers that replay physical ops in the DES must use
        :meth:`write`.
        """
        lpns = self._checked_lpns(lpns)
        self._write_checked(lpns, stream, auto_gc)
        return int(lpns.size)

    def _write_checked(self, lpns: np.ndarray, stream: int, auto_gc: bool) -> None:
        """:meth:`write_pages` after its input check: ``lpns`` is a 1-D int64
        array inside the logical space (what :meth:`_checked_lpns` returns,
        or a range the caller has bounds-checked), written a block run at a time."""
        n = len(lpns)
        done = 0
        while done < n:
            first, take, _ = self._program_host(stream, n - done, auto_gc, None)
            chunk = lpns[done : done + take]
            self.map.map_batch(chunk, np.arange(first, first + take, dtype=np.int64))
            self._oob_lpn[first : first + take] = chunk
            self._oob_serial[first : first + take] = np.arange(
                self._program_serial, self._program_serial + take, dtype=np.int64
            )
            self._program_serial += take
            done += take

    def _program_host(
        self, stream: int, n: int, auto_gc: bool, ops: list[FlashOp] | None
    ) -> tuple[int, int, float]:
        """Program up to ``n`` host pages on ``stream``: both write paths' one routine.

        Ticks the clock once per page -- the first tick before crossing a
        full active block's boundary (:meth:`_open_next_block`, GC ops to
        ``ops`` when given), so the seal and its GC see it -- then programs
        to the end of the active block in one ``program_run``; under an
        armed injector, one page through :meth:`_program_host_page`, the
        only fault path. Returns ``(first_page, pages, latency)``.
        """
        try:
            active = self._active[stream]
        except KeyError:
            raise ValueError(f"stream {stream} out of range [0, {self.config.streams})") from None
        self._clock += 1
        nand = self.nand
        ppb = self.geometry.pages_per_block
        offset = ppb if active is None else nand.write_offset(active)
        if offset >= ppb:
            active = self._open_next_block(stream, auto_gc, ops)
            offset = 0  # free blocks are erased; program_run holds it to that
        if nand.faults is not None:
            page, latency = self._program_host_page(stream)
            return page, 1, latency
        take = n if n < ppb - offset else ppb - offset
        first, latency = nand.program_run(active, take, "host")
        self._clock += take - 1
        return first, take, latency

    # -- Program-fault recovery ---------------------------------------------------

    def _note_relocated(self, lpns: np.ndarray) -> None:
        """Hook: these logical pages just moved (GC/WL/retire).

        No-op here -- the full page map is volatile DRAM, so relocation
        is free. The demand-paged subclass overrides this to mark the
        owning translation pages dirty so the moves eventually reach
        flash.
        """

    def _program_host_page(self, stream: int) -> tuple[int, float]:
        """Program the next page of ``stream``'s active block, absorbing faults.

        A scalar program fault burns its page (the write offset advances
        but the data is bad); the FTL skips the burned page and retries,
        retiring blocks that fault repeatedly. Returns ``(page, latency)``
        with the failed attempts' time included, so callers charge what
        the flash actually spent.
        """
        total = 0.0
        for _ in range(self._MAX_PROGRAM_ATTEMPTS):
            active = self._active[stream]
            if active is None or self.nand.is_block_full(active):
                # Burned pages can fill the block mid-write: cross the
                # boundary like any write, foreground GC included, or the
                # retry loop would drain the free pool and wedge the device.
                active = self._open_next_block(stream, auto_gc=True)
            try:
                page, latency = self.nand.program_next(active, "host")
                return page, total + latency
            except ProgramFaultError as exc:
                total += exc.latency_us
                self._note_program_fault(stream, active)
        raise ProgramFaultError(
            f"host program failed {self._MAX_PROGRAM_ATTEMPTS} attempts in a row",
            latency_us=total,
        )

    def _note_program_fault(self, stream: int, block: int) -> None:
        """Book one burned page; retire the block if it keeps faulting."""
        self.stats.program_faults += 1
        # The burned page sits just below the advanced write offset; clear
        # its OOB so crash recovery never replays garbage data.
        burned = self.geometry.first_page_of_block(block) + self.nand.write_offset(block) - 1
        self._oob_lpn_v[burned] = UNMAPPED
        count = self._fault_counts.get(block, 0) + 1
        self._fault_counts[block] = count
        if self.tracer.enabled:
            self.tracer.publish(RecoveryEvent("ftl.ftl", "page-rewrite", block=block))
        if count >= self._RETIRE_AFTER_FAULTS:
            self._retire_active_block(stream, block)

    def _retire_active_block(self, stream: int, block: int) -> None:
        """Retire a fault-prone active block without losing mapped data.

        Valid pages are copied forward to the GC destination first (the
        copies record fresh OOB), then the block is marked bad and leaves
        circulation -- it was active, so it sits in no other pool.
        """
        moved = self._copy_forward(self.map.valid_pages_array(block), None, "recovery")
        self.nand.wear.mark_bad(block)
        self._active[stream] = None
        self._fault_counts.pop(block, None)
        self.stats.blocks_retired += 1
        if self.tracer.enabled:
            self.tracer.publish(
                RecoveryEvent(
                    "ftl.ftl", "block-retired", block=block, pages_moved=moved,
                    detail="program faults",
                )
            )

    def _reclaim(
        self, block: int, cause: str, ops: list[FlashOp] | None, uses_channel: bool = False
    ) -> int:
        """Copy ``block``'s valid pages forward and erase it; returns pages moved.

        The one reclaim routine, for ``cause`` ``gc`` or ``wear-level``:
        publishes the victim (GC's action is ``victim-selected``), then
        appends the copies' and the erase's op records to ``ops`` when
        given.
        """
        valid = self.map.valid_pages_array(block)
        if self.tracer.enabled:
            self.tracer.publish(
                GcEvent(
                    "ftl.gc", "victim-selected" if cause == "gc" else cause, victim=block,
                    valid_pages=int(valid.size), free_blocks=len(self._free),
                )
            )
        self._copy_forward(valid, ops, cause, uses_channel=uses_channel)
        erase_latency = self._erase_reclaimed(block, cause)
        if ops is not None:
            ops.append(FlashOp(OpKind.ERASE, block, None, erase_latency))
        return int(valid.size)

    def _erase_reclaimed(self, block: int, cause: str) -> float:
        """Erase a block whose valid data has been copied out; returns latency.

        The block leaves the sealed pool and the victim policy's view, and
        rejoins the free pool. A failed erase (wear-out or an injected
        grown bad block) retires it instead: it leaves circulation and the
        FTL's spare capacity silently shrinks -- §2.1's failure handling,
        absorbed invisibly behind the block interface.
        """
        self._fault_counts.pop(block, None)
        self._sealed_mask_v[block] = False
        self.policy.notify_erased(block)
        try:
            latency = self.nand.erase(block, cause)
        except BadBlockError:
            self.stats.blocks_retired += 1
            if self.tracer.enabled:
                self.tracer.publish(
                    RecoveryEvent(
                        "ftl.ftl", "block-retired", block=block,
                        detail="erase failure",
                    )
                )
            return self.nand.timing.erase_us
        self._free.append(block)
        return latency

    def read(self, lpn: int, build_ops: bool = True) -> FlashOp | None:
        """Read one logical page; raises :class:`UnmappedReadError` if empty.

        Returns the read's op record, or ``None`` with ``build_ops=False``.
        """
        ppn = self.map.lookup(lpn)
        if ppn == UNMAPPED:
            raise UnmappedReadError(f"lpn {lpn} is unmapped")
        _, latency = self.nand.read(ppn, "host")
        if not build_ops:
            return None
        return FlashOp(OpKind.READ, ppn // self.geometry.pages_per_block, ppn, latency)

    def trim(self, lpn: int) -> None:
        """Discard a logical page (TRIM/deallocate); no flash ops needed."""
        if self.map.unmap(lpn) != UNMAPPED:
            self.stats.trims += 1

    # -- Garbage collection -----------------------------------------------------

    def collect_once(self, build_ops: bool = True) -> list[FlashOp]:
        """Reclaim one victim block; returns the copy and erase ops.

        ``build_ops=False`` skips constructing the per-page :class:`FlashOp`
        records (returning an empty list) for callers that never replay
        them -- :meth:`write_pages` and a record-free :meth:`write` use this.
        """
        cand_arr = self._sealed_mask.nonzero()[0]
        if not cand_arr.size:
            raise GCStuckError("no sealed blocks to collect")
        # Candidates ascend, so a tie goes to the lowest block id.
        victim = self.policy.select(
            cand_arr,
            self.map.valid_counts,
            self.geometry.pages_per_block,
            self._seal_time_arr,
            self._clock,
        )
        ppb = self.geometry.pages_per_block
        valid_counts = self.map.valid_counts_v
        if valid_counts[victim] >= ppb:
            # Validity-blind policies (FIFO) can pick a fully-valid block,
            # which reclaims nothing; fall back to the emptiest candidate,
            # as production cleaners do.
            victim = int(cand_arr[self.map.valid_counts[cand_arr].argmin()])
            if valid_counts[victim] >= ppb:
                raise GCStuckError(f"victim block {victim} is fully valid; no spare capacity")
        ops: list[FlashOp] = []
        nvalid = self._reclaim(
            victim, "gc", ops if build_ops else None,
            uses_channel=not self.config.copyback,
        )
        self.stats.gc_runs += 1
        if self.tracer.enabled:
            self.tracer.publish(
                GcEvent(
                    "ftl.gc", "collected", victim=victim,
                    pages_copied=nvalid, free_blocks=len(self._free),
                )
            )
        return ops

    def collect(self, target_free_blocks: int, build_ops: bool = True) -> list[FlashOp]:
        """Run GC until the free pool reaches ``target_free_blocks``."""
        ops: list[FlashOp] = []
        while len(self._free) < target_free_blocks:
            result = self.collect_once(build_ops)
            if build_ops:
                ops.extend(result)
        return ops

    def _copy_forward(
        self, sources: np.ndarray, ops: list[FlashOp] | None, cause: str,
        uses_channel: bool = False,
    ) -> int:
        """Move one block's valid pages to the GC destinations; returns the count.

        The one relocation routine, its copies booked under ``cause``: GC,
        wear leveling, or block retirement (``recovery``).
        GC has its own active blocks so relocated data is not
        interleaved with fresh host writes; ``gc_streams = k > 1`` of them
        sit on different planes, so timed replays reclaim in parallel.
        ``sources`` (ascending pages of one block) are dealt round-robin,
        source ``i`` to stream ``(_gc_cursor + i) % k`` with program serial
        ``_program_serial + i``, so a stream's share is a strided slice and
        moves as one run. A destination filling up splits the call at that
        source index, where the full block is sealed and a free one taken:
        seals, allocations and the state a mid-call :class:`GCStuckError`
        leaves are those of moving one page at a time. Per-page copy op
        records, in source order, are appended to ``ops`` when given.
        """
        n = len(sources)
        k = self.config.gc_streams
        ppb = self.geometry.pages_per_block
        nand = self.nand
        cursor = self._gc_cursor
        serial = self._program_serial
        copy_latency = nand.timing.read_us + nand.timing.program_us
        done = 0
        while done < n:
            # Streams in dealing order from source ``done``: the j-th
            # serves sources done + j, done + j + k, ... and, with room
            # for r more pages, needs a fresh block at done + j + r * k.
            # The first is due now, so it opens here; the others end the
            # segment where they run out.
            end = n
            targets = []
            for j in range(min(k, n - done)):
                stream = (cursor + done + j) % k
                block = self._gc_active[stream]
                offset = ppb if block is None else nand.write_offset(block)
                if offset == ppb and j == 0:
                    self._gc_cursor = cursor + done + 1
                    if block is not None:
                        self._seal(block)
                    block = self._gc_active[stream] = self._take_free_block()
                    offset = 0
                end = min(end, done + j + (ppb - offset) * k)
                targets.append((block, offset))
            copies = [None] * (end - done) if ops is not None else None
            for j, (block, offset) in enumerate(targets):
                if done + j >= end:
                    break
                run = sources[done + j : end : k]
                take = len(run)
                first = block * ppb + offset
                nand.copy_run(run, block, offset, cause)
                lpns = self.map.relocate_run(run, first)
                self._oob_lpn[first : first + take] = lpns
                self._oob_serial[first : first + take] = np.arange(
                    serial + done + j, serial + end, k, dtype=np.int64
                )
                self._note_relocated(lpns)
                if copies is not None:
                    copies[j::k] = [
                        FlashOp(OpKind.COPY, block, page, copy_latency, uses_channel)
                        for page in range(first, first + take)
                    ]
            if copies is not None:
                ops.extend(copies)
            self._program_serial = serial + end
            self._gc_cursor = cursor + end
            done = end
        return n

    # -- Wear leveling -----------------------------------------------------------

    def _maybe_wear_level(self, build_ops: bool) -> list[FlashOp]:
        """Static-policy migration check at block-allocation boundaries.

        Policies with ``migrates=False`` (the default) never pay more
        than the flag check, so the hot paths stay byte-identical.
        """
        if (
            self.wearlevel.migrates
            and self._sealed_mask.any()
            and self.wearlevel.wants_migration(self.wear_spread())
        ):
            return self.wear_level_once(build_ops)
        return []

    def wear_spread(self) -> int:
        """Max minus min erase count across live blocks, as ``WearTracker.stats`` has them."""
        wear = self.nand.wear
        live = wear.erase_counts[~wear.bad_mask]
        if not live.size:
            return 0
        return int(np.maximum.reduce(live) - np.minimum.reduce(live))

    def wear_level_once(self, build_ops: bool = True) -> list[FlashOp]:
        """Static wear leveling: migrate the coldest sealed block.

        Moves the valid data of the least-recently-sealed block (cold data
        pins low-wear blocks) so its block rejoins circulation. Returns the
        ops performed; empty if there is nothing to migrate or with
        ``build_ops=False``.
        """
        sealed = self._sealed_mask.nonzero()[0]
        if not sealed.size:
            return []
        coldest = int(sealed[self._seal_time_arr[sealed].argmin()])
        ops: list[FlashOp] = []
        self._reclaim(coldest, "wear-level", ops if build_ops else None)
        return ops

    # -- Power loss and recovery ---------------------------------------------------

    def snapshot_mapping(self):
        """Durable point-in-time mapping snapshot (what a checkpoint writes).

        Returns a :class:`~repro.ftl.checkpoint.MappingSnapshot` whose
        ``serial`` is the program-serial horizon: programs below it are
        reflected in the snapshot's map, programs at or past it are what
        :meth:`recover` replays from OOB metadata.
        """
        return MappingSnapshot(
            serial=self._program_serial,
            clock=self._clock,
            l2p=self.map.l2p.copy(),
        )

    def _recovery_excluded_blocks(self) -> set[int]:
        """Blocks :meth:`recover` must keep out of the data pools.

        Empty here; the demand-paged subclass claims its translation
        blocks first and returns them so the base classification never
        frees, seals, or reopens them as data blocks.
        """
        return set()

    def crash(self) -> None:
        """Power loss: drop every volatile structure.

        Flash state survives -- write offsets, wear, and the on-flash OOB
        metadata (``_oob_lpn``/``_oob_serial`` model each page's spare
        area). Everything the firmware keeps in RAM is gone until
        :meth:`recover` rebuilds it: the mapping, the free/sealed pools,
        active blocks, GC policy state, clocks. Cumulative stats are
        host-side observability and are kept for experiment continuity.
        """
        g = self.geometry
        self.map = FullPageMap(g, self.logical_pages)
        self.policy = make_policy(self.config.gc_policy)
        self._free = []
        self._sealed_mask.fill(False)
        self._seal_time_arr.fill(0)
        self._clock = 0
        self._active = {s: None for s in range(self.config.streams)}
        self._gc_active = {s: None for s in range(self.config.gc_streams)}
        self._gc_cursor = 0
        self._plane_cursor = 0
        self._program_serial = 0
        self._fault_counts = {}

    def recover(self, snapshot=None) -> int:
        """Rebuild the mapping after :meth:`crash`; returns pages replayed.

        Reconstruction is checkpoint + out-of-band replay:

        1. Start from ``snapshot``'s forward map (empty if None),
           dropping entries the flash disagrees with -- the target page
           was erased, holds a different logical page now, or sits in a
           retired block.
        2. Replay every programmed live page whose OOB serial is at or
           past the snapshot horizon, in serial order, so the latest
           program of each logical page wins -- exactly the order the
           firmware issued them.
        3. Rebuild the reverse map and valid counts from the forward map,
           and the block pools from write offsets: erased blocks are
           free, full blocks are sealed, partially-written blocks reopen
           as active blocks (host streams first, then GC destinations;
           leftovers are padded shut as real firmware does).

        Trims issued after the last checkpoint are resurrected -- the
        standard tradeoff of an FTL that checkpoints but does not journal
        deallocations.
        """
        g = self.geometry
        ppb = g.pages_per_block
        offsets = self.nand.write_offsets
        bad = self.nand.wear.bad_mask
        # A page's OOB is consultable iff its block is live and the page
        # sits below the block's write offset (erase resets the offset,
        # implicitly invalidating everything above it).
        page_offsets = np.arange(g.total_pages, dtype=np.int64) % ppb
        live_pages = ~np.repeat(bad, ppb)
        programmed = live_pages & (page_offsets < np.repeat(offsets, ppb))
        # Data pages carry their lpn (>= 0) in OOB; translation pages are
        # tagged with negative sentinels below UNMAPPED and are replayed
        # by the demand-paged subclass, not here. ``tagged`` is every page
        # with *any* OOB record -- the program-serial horizon must cover
        # translation programs too or recovery would reissue serials.
        usable = programmed & (self._oob_lpn >= 0)
        tagged = programmed & (self._oob_lpn != UNMAPPED)

        horizon = 0
        l2p = np.full(self.logical_pages, UNMAPPED, dtype=np.int64)
        if snapshot is not None:
            if len(snapshot.l2p) != self.logical_pages:
                raise ValueError("snapshot does not match this FTL's logical space")
            horizon = snapshot.serial
            l2p = snapshot.l2p.copy()
            mapped = np.flatnonzero(l2p != UNMAPPED)
            if mapped.size:
                ppns = l2p[mapped]
                stale = ~usable[ppns] | (self._oob_lpn[ppns] != mapped)
                l2p[mapped[stale]] = UNMAPPED

        replay = np.flatnonzero(usable & (self._oob_serial >= horizon))
        if replay.size:
            order = np.argsort(self._oob_serial[replay], kind="stable")
            replay_sorted = replay[order]
            l2p[self._oob_lpn[replay_sorted]] = replay_sorted

        self.map = FullPageMap(g, self.logical_pages)
        self.map.l2p[:] = l2p
        mapped = np.flatnonzero(l2p != UNMAPPED)
        if mapped.size:
            ppns = l2p[mapped]
            self.map.p2l[ppns] = mapped
            self.map.valid_counts[:] = np.bincount(ppns // ppb, minlength=g.total_blocks)
            self.map.mapped_pages = int(mapped.size)

        # Clock resumes past the snapshot; replayed programs stand in for
        # the host writes whose ticks were lost (an upper bound -- GC
        # copies replay too -- which only ages cost-benefit decisions).
        self._clock = (snapshot.clock if snapshot is not None else 0) + int(replay.size)
        max_serial = int(self._oob_serial[tagged].max()) + 1 if tagged.any() else 0
        self._program_serial = max(horizon, max_serial)
        self._fault_counts = {}

        self.policy = make_policy(self.config.gc_policy)
        self._seal_time_arr.fill(0)
        self._sealed_mask.fill(False)
        live = ~bad
        excluded = self._recovery_excluded_blocks()
        if excluded:
            live[np.fromiter(excluded, dtype=np.int64, count=len(excluded))] = False
        self._free = np.flatnonzero(live & (offsets == 0)).tolist()
        for block in np.flatnonzero(live & (offsets == ppb)).tolist():
            self._seal(block)
        self._active = {s: None for s in range(self.config.streams)}
        self._gc_active = {s: None for s in range(self.config.gc_streams)}
        host_slots = list(range(self.config.streams))
        gc_slots = list(range(self.config.gc_streams))
        partials = np.flatnonzero(live & (offsets > 0) & (offsets < ppb)).tolist()
        for block in partials:
            if host_slots:
                self._active[host_slots.pop(0)] = block
            elif gc_slots:
                self._gc_active[gc_slots.pop(0)] = block
            else:
                self._pad_and_seal(block)

        self.stats.crash_recoveries += 1
        self.stats.pages_replayed += int(replay.size)
        if self.tracer.enabled:
            self.tracer.publish(
                RecoveryEvent(
                    "ftl.ftl", "crash-recovered", pages_moved=int(replay.size),
                    detail="snapshot" if snapshot is not None else "full-replay",
                )
            )
        return int(replay.size)

    def _pad_and_seal(self, block: int) -> None:
        """Fill a partial block with padding and seal it (recovery only).

        Used when recovery finds more partially-written blocks than it
        has active slots; the padding carries no logical data, so its
        OOB is cleared. Padding is a ``program_run``, never fault-injected
        -- a paranoid firmware pads with relaxed single-level-cell programs.
        """
        free = self.geometry.pages_per_block - self.nand.write_offset(block)
        first, _ = self.nand.program_run(block, free, "recovery")
        self._oob_lpn[first : first + free] = UNMAPPED
        self._seal(block)

    # -- Consistency checking (used by property tests) -----------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        self.nand.check_invariants()
        for owner, name in (
            (self.map, "l2p"),
            (self.map, "p2l"),
            (self.map, "valid_counts"),
            (self, "_oob_lpn"),
            (self, "_oob_serial"),
            (self, "_seal_time_arr"),
            (self, "_sealed_mask"),
        ):
            view = getattr(owner, name + "_v")
            assert view.obj is getattr(owner, name), f"{name} rebound away from its view"
        active_blocks = {b for b in self._active.values() if b is not None}
        active_blocks |= {b for b in self._gc_active.values() if b is not None}
        free = set(self._free)
        sealed = self.sealed_blocks
        assert not (free & sealed), "block both free and sealed"
        assert not (free & active_blocks), "block both free and active"
        assert not (sealed & active_blocks), "block both sealed and active"
        for block in free:
            assert self.nand.is_block_erased(block), f"free block {block} not erased"
        for block in sealed:
            assert self.nand.is_block_full(block), f"sealed block {block} not full"
        total_valid = int(self.map.valid_counts.sum())
        assert total_valid == self.map.mapped_pages, "valid counts disagree with map"
        ppb = self.geometry.pages_per_block
        valid = np.flatnonzero(self.map.p2l != UNMAPPED)
        below = valid % ppb < self.nand.write_offsets[valid // ppb]
        assert below.all(), "valid page at or above its block's write offset"


__all__ = [
    "CapacityError",
    "ConventionalFTL",
    "FTLConfig",
    "FTLStats",
    "GCStuckError",
    "UnmappedReadError",
]
