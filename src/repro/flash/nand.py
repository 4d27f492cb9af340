"""The raw NAND array state machine.

:class:`NandArray` is the single physical substrate under both device
models. It enforces exactly the constraints the paper's flash primer lays
out, and nothing more:

- a page can be read only after it has been programmed;
- pages within an erasure block must be programmed strictly sequentially;
- a programmed page cannot be reprogrammed until its block is erased;
- erases cover whole blocks and consume endurance.

It deliberately knows nothing about logical addresses, validity, zones, or
garbage collection -- those are FTL/host concepts layered above. Payloads
are optional Python objects; experiments that only count operations skip
them and pay no storage cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.flash.errors import (
    BadBlockError,
    ProgramFaultError,
    ProgramOrderError,
    ReadUnwrittenError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.state import Replayable
from repro.flash.timing import TimingModel
from repro.flash.wear import WearTracker
from repro.obs.events import FlashOpEvent
from repro.obs.frame import OpCounter
from repro.obs.runtime import new_tracer
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # imported lazily to avoid a faults <-> flash cycle
    from repro.faults.injector import FaultInjector


class NandArray(Replayable):
    """Raw flash: program/read/erase with physical constraints enforced.

    Every operation takes the cause its caller names (one of
    :data:`~repro.obs.events.CAUSES`) and books itself once, under that
    cause, in :attr:`counters`, a plain :class:`OpCounter` the array
    owns -- the stack's only op count; only when a sink is attached to
    the array's tracer does it also publish a :class:`FlashOpEvent`
    (layer ``flash.nand``) carrying the same cause, count and bytes.

    Parameters
    ----------
    geometry:
        Shape of the array.
    timing:
        Latency model; every operation returns its latency in microseconds
        so callers can feed a DES or ignore it.
    wear:
        Endurance tracker; defaults to one with wear-out disabled.
    store_data:
        If True, :meth:`program` accepts payload objects returned verbatim
        by :meth:`read`. Off by default: counting experiments do not pay
        for payload storage.
    tracer:
        The telemetry bus to publish on. Facades stacking layers pass one
        shared tracer down; standalone arrays get their own.
    faults:
        A :class:`~repro.faults.injector.FaultInjector` to consult on
        each operation, or None. A disarmed injector is dropped at
        construction, so the unfaulted hot paths stay byte-identical to
        an array built with no injector at all.
    """

    def __init__(
        self,
        geometry: FlashGeometry,
        timing: TimingModel | None = None,
        wear: WearTracker | None = None,
        store_data: bool = False,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
    ):
        self.geometry = geometry
        self.timing = timing or TimingModel.for_cell(geometry.cell_type)
        # Constants of two frozen dataclasses; ``timing`` is never rebound.
        self._program_page_us = self.timing.program_total_us(geometry.page_size)
        self._read_page_us = self.timing.read_total_us(geometry.page_size)
        self.wear = wear or WearTracker(total_blocks=geometry.total_blocks)
        if self.wear.total_blocks != geometry.total_blocks:
            raise ValueError(
                f"wear tracker covers {self.wear.total_blocks} blocks, "
                f"geometry has {geometry.total_blocks}"
            )
        self.store_data = store_data
        self.tracer = tracer if tracer is not None else new_tracer()
        #: Physical operation counters, per op and cause; a copy also
        #: programs its destination page (``counters.programmed_pages()``).
        self.counters = OpCounter()
        # Disarmed injectors are dropped: the hot-path guard is a single
        # attribute check, and no RNG is ever consulted.
        self.faults = faults if faults is not None and faults.armed else None
        if self.faults is not None and self.faults.tracer is None:
            self.faults.bind(self.tracer)
        # Next programmable page offset within each block; == pages_per_block
        # means the block is full. Each per-block array has a ``*_v``
        # memoryview of its own buffer: scalar ops index the view (a plain
        # int, no numpy scalar boxed), runs and scans the array. Neither is
        # ever rebound (DESIGN.md §6, "Scalar state reads through a view").
        self._write_offsets = np.zeros(geometry.total_blocks, dtype=np.int32)
        self._write_offsets_v = memoryview(self._write_offsets)
        self._data: dict[int, Any] = {}

    # -- Introspection -------------------------------------------------------

    def write_offset(self, block: int) -> int:
        """Offset of the next programmable page in ``block``."""
        if not 0 <= block < self.geometry.total_blocks:
            self.geometry.check_block(block)
        return self._write_offsets_v[block]

    @property
    def write_offsets(self) -> np.ndarray:
        """Per-block next-programmable offsets (a copy).

        Firmware recovery scans these to classify blocks (erased / partial
        / full) after a power loss -- the write offset is physical state,
        readable back from the flash itself.
        """
        return self._write_offsets.copy()

    def is_block_full(self, block: int) -> bool:
        return self.write_offset(block) >= self.geometry.pages_per_block

    def is_block_erased(self, block: int) -> bool:
        return self.write_offset(block) == 0

    def is_programmed(self, page: int) -> bool:
        block, offset = self.geometry.split_page(page)
        return offset < self._write_offsets_v[block]

    def free_pages_in_block(self, block: int) -> int:
        return self.geometry.pages_per_block - self.write_offset(block)

    # -- Operations ------------------------------------------------------------

    def program(self, page: int, cause: str, data: Any = None) -> float:
        """Program one page; returns operation latency in microseconds.

        Raises :class:`ProgramOrderError` unless ``page`` is exactly the
        next free page of its block, and :class:`BadBlockError` if the
        block has been retired.
        """
        geometry = self.geometry
        if not 0 <= page < geometry.total_pages:
            geometry.check_page(page)
        block, offset = divmod(page, geometry.pages_per_block)
        if self.wear.bad_mask_v[block]:
            raise BadBlockError(f"program on retired block {block}")
        expected = self._write_offsets_v[block]
        if offset != expected:
            raise ProgramOrderError(
                f"page {page} is offset {offset} of block {block}; next "
                f"programmable offset is {expected}"
            )
        latency = self._program_page_us
        if self.faults is not None:
            fault, extra = self.faults.on_program(block, page, latency)
            if fault:
                # The failed attempt still burns the page: the write
                # offset advances, but the data is bad. The layer above
                # must rewrite elsewhere.
                self._write_offsets_v[block] = offset + 1
                raise ProgramFaultError(
                    f"program fault burned page {page} of block {block}",
                    latency_us=latency,
                )
            latency += extra
        self._write_offsets_v[block] = offset + 1
        if self.store_data:
            self._data[page] = data
        self.counters.note("program", cause)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "flash.nand", "program", block, page,
                    nbytes=self.geometry.page_size, latency_us=latency, cause=cause,
                )
            )
        return latency

    def program_next(self, block: int, cause: str, data: Any = None) -> tuple[int, float]:
        """Program the next free page of ``block``; returns (page, latency).

        Convenience used by append-style writers that track blocks, not
        page offsets.
        """
        ppb = self.geometry.pages_per_block
        offset = self.write_offset(block)
        if offset >= ppb:
            raise ProgramOrderError(f"block {block} is full")
        page = block * ppb + offset
        return page, self.program(page, cause, data)

    def read(self, page: int, cause: str) -> tuple[Any, float]:
        """Read one page; returns (payload, latency_us).

        Payload is ``None`` unless the array stores data. The checks are
        :meth:`_check_and_sense`'s, inline: this is the hottest flash op.
        """
        geometry = self.geometry
        if not 0 <= page < geometry.total_pages:
            geometry.check_page(page)
        block, offset = divmod(page, geometry.pages_per_block)
        if self.wear.bad_mask_v[block]:
            raise BadBlockError(f"read on retired block {block}")
        if offset >= self._write_offsets_v[block]:
            raise ReadUnwrittenError(f"page {page} has not been programmed")
        payload = self._data.get(page) if self.store_data else None
        latency = self._read_page_us
        if self.faults is not None:
            # May raise UncorrectableReadError after walking the full ECC
            # retry ladder; otherwise adds the ladder/spike latency.
            latency += self.faults.on_read(block, page)
        self.counters.note("read", cause)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "flash.nand", "read", block, page,
                    nbytes=self.geometry.page_size, latency_us=latency, cause=cause,
                )
            )
        return payload, latency

    def _check_and_sense(self, page: int) -> tuple[int, Any]:
        """Shared read path: the constraint checks.

        Used by host reads (which publish/count) and internal copy reads
        (which do not -- a copy is not a host read). Returns
        ``(block, payload)``.
        """
        block, offset = self.geometry.split_page(page)
        if self.wear.bad_mask_v[block]:
            raise BadBlockError(f"read on retired block {block}")
        if offset >= self._write_offsets_v[block]:
            raise ReadUnwrittenError(f"page {page} has not been programmed")
        return block, self._data.get(page) if self.store_data else None

    def sense_for_copy(self, page: int) -> Any:
        """Read a page for device-internal copying.

        Physical constraint checks apply, but the access is neither
        counted nor published as a host read -- device-managed copies
        (copyback, NVMe simple copy) account for themselves at their own
        layer.
        """
        return self._check_and_sense(page)[1]

    def erase(self, block: int, cause: str) -> float:
        """Erase a block; returns latency. May retire the block (wear-out).

        Raises :class:`BadBlockError` if the block was already retired or
        fails during this erase; the erase still consumed time and a cycle.
        """
        if not 0 <= block < self.geometry.total_blocks:
            self.geometry.check_block(block)
        if self.wear.bad_mask_v[block]:
            raise BadBlockError(f"erase on retired block {block}")
        survived = self.wear.record_erase(block)
        if survived and self.faults is not None and self.faults.on_erase(block):
            # Injected grown bad block: the erase consumed its cycle but
            # the block is retired, same as a wear-driven failure.
            self.wear.mark_bad(block)
            survived = False
        self._write_offsets_v[block] = 0
        if self.store_data:
            for page in self.geometry.pages_of_block(block):
                self._data.pop(page, None)
        self.counters.note("erase", cause)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "flash.nand", "erase", block, latency_us=self.timing.erase_us,
                    cause=cause,
                )
            )
        if not survived:
            raise BadBlockError(f"block {block} failed erase and was retired")
        return self.timing.erase_us

    def copy_page(self, src_page: int, dst_page: int, cause: str) -> float:
        """On-die copy (copyback / NVMe simple-copy building block).

        Moves a page without crossing the host interface: read array time
        plus program array time, but no channel transfers. Used by the
        device-side implementation of the NVMe *simple copy* command
        (paper §2.3) and by copyback-capable FTL garbage collection.
        """
        _, payload = self._check_and_sense(src_page)
        block, offset = self.geometry.split_page(dst_page)
        if self.wear.bad_mask_v[block]:
            raise BadBlockError(f"copy into retired block {block}")
        if offset != self._write_offsets_v[block]:
            raise ProgramOrderError(
                f"copy destination page {dst_page} out of order in block {block}"
            )
        self._write_offsets_v[block] = offset + 1
        if self.store_data:
            self._data[dst_page] = payload
        latency = self.timing.read_us + self.timing.program_us
        # Not a host read/write: one copy, whose page was nonetheless
        # programmed to flash.
        self.counters.note("copy", cause)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "flash.nand", "copy", block, dst_page,
                    nbytes=self.geometry.page_size, latency_us=latency, cause=cause,
                )
            )
        return latency

    # -- Run operations ------------------------------------------------------------
    #
    # A run performs the same state transitions as a loop of scalar calls,
    # with the same constraint checks, but mutates the arrays in bulk,
    # books the run once and publishes ONE aggregate trace event
    # (``count=n``, ``nbytes=n * page_size``), so the counters -- and a
    # counter sink over the stream -- read totals identical to the scalar
    # calls. Constraints are validated before any mutation.

    def program_run(self, block: int, n: int, cause: str) -> tuple[int, float]:
        """Program the next ``n`` free pages of ``block``; returns (first_page, latency).

        The append-style run: no per-page addresses needed, just the run
        length. Fastest path for FTL active-block fills and zone lanes.
        Like a copy, a run is never fault-injected: an armed injector has
        one program contract, a fault burning its page in :meth:`program`,
        so writers under one program page by page (and recovery pads,
        which must not fail, use a run).
        """
        if not 0 <= block < self.geometry.total_blocks:
            self.geometry.check_block(block)
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.wear.bad_mask_v[block]:
            raise BadBlockError(f"program on retired block {block}")
        offset = self._write_offsets_v[block]
        if offset + n > self.geometry.pages_per_block:
            raise ProgramOrderError(
                f"block {block} has {self.geometry.pages_per_block - offset} "
                f"free pages; batch wants {n}"
            )
        first_page = block * self.geometry.pages_per_block + offset
        latency = n * self._program_page_us
        self._write_offsets_v[block] = offset + n
        self.counters.note("program", cause, n)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "flash.nand", "program", block, first_page,
                    nbytes=n * self.geometry.page_size, count=n, latency_us=latency,
                    cause=cause,
                )
            )
        return first_page, latency

    def copy_run(
        self, src_pages: np.ndarray, dst_block: int, dst_offset: int, cause: str
    ) -> float:
        """On-die copy of one victim block's pages onto a contiguous run.

        The collector's shape: ``src_pages`` ascending within a single
        source block -- not necessarily contiguous, and a strided view
        is fine: multi-stream GC hands each destination every k-th valid
        page -- the destination the next ``n`` free pages of
        ``dst_block``. Equivalent to :meth:`copy_page` per page -- the
        source pages must be programmed, the destination obeys program
        order, and the counters book the same copy count (as does the one
        aggregate event) -- with O(1) validation.
        """
        n = len(src_pages)
        if n == 0:
            raise ValueError("empty page batch")
        ppb = self.geometry.pages_per_block
        first_src = int(src_pages[0])
        last_src = int(src_pages[-1])
        src_block = first_src // ppb
        if first_src < 0 or last_src >= self.geometry.total_pages:
            raise IndexError(f"page batch out of range [0, {self.geometry.total_pages})")
        if last_src // ppb != src_block or last_src - first_src + 1 < n:
            raise ValueError("copy_run sources must ascend within one block")
        if self.wear.bad_mask_v[src_block]:
            raise BadBlockError(f"read on retired block {src_block}")
        if last_src - src_block * ppb >= self._write_offsets_v[src_block]:
            raise ReadUnwrittenError("batch copies at least one unprogrammed page")
        if self.wear.bad_mask_v[dst_block]:
            raise BadBlockError(f"program on retired block {dst_block}")
        if dst_offset != self._write_offsets_v[dst_block]:
            raise ProgramOrderError(
                f"copy destination offset {dst_offset} out of order in block {dst_block}"
            )
        if dst_offset + n > ppb:
            raise ProgramOrderError(f"copy run of {n} pages overflows block {dst_block}")
        self._write_offsets_v[dst_block] = dst_offset + n
        dst_first = dst_block * ppb + dst_offset
        if self.store_data:
            for i, src in enumerate(src_pages.tolist()):
                self._data[dst_first + i] = self._data.get(src)
        latency = n * (self.timing.read_us + self.timing.program_us)
        self.counters.note("copy", cause, n)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "flash.nand", "copy", dst_block, dst_first,
                    nbytes=n * self.geometry.page_size, count=n, latency_us=latency,
                    cause=cause,
                )
            )
        return latency

    # -- Bulk helpers -----------------------------------------------------------

    def erased_blocks(self) -> list[int]:
        """All live blocks currently erased (write offset 0)."""
        mask = (self._write_offsets == 0) & ~self.wear.bad_mask
        return np.flatnonzero(mask).tolist()

    # -- Consistency checking (used by property tests) -----------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        for owner, name in (
            (self, "_write_offsets"),
            (self.wear, "erase_counts"),
            (self.wear, "bad_mask"),
        ):
            view = getattr(owner, name + "_v")
            assert view.obj is getattr(owner, name), f"{name} rebound away from its view"
        ppb = self.geometry.pages_per_block
        offsets = self._write_offsets
        assert ((offsets >= 0) & (offsets <= ppb)).all(), "write offset outside [0, ppb]"
        if self.store_data and self._data:
            pages = np.fromiter(self._data, dtype=np.int64, count=len(self._data))
            below = pages % ppb < offsets[pages // ppb]
            assert below.all(), "payload at or above its block's write offset"


__all__ = ["NandArray"]
