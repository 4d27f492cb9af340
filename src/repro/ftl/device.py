"""Conventional SSD device facades.

:class:`ConventionalSSD` is the untimed block device (implements
:class:`repro.block.interface.BlockDevice`) used by counting experiments
and applications. :class:`TimedConventionalSSD` wraps the same FTL in the
DES: host requests contend with background garbage collection on planes
and channels, reproducing the GC-interference tail latencies of §2.4.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.block.interface import check_extent
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.ops import FlashOp, OpKind
from repro.flash.service import FlashServiceModel
from repro.flash.timing import TimingModel
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.hostio.frontend import TimedFrontEnd
from repro.obs.events import GcEvent
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine


class ConventionalSSD:
    """Block device over a page-mapped FTL (untimed).

    Logical blocks are exactly flash pages (4 KiB by default). Payload
    storage is optional and follows the underlying NAND configuration.
    """

    def __init__(
        self,
        geometry: FlashGeometry | None = None,
        config: FTLConfig | None = None,
        store_data: bool = False,
        timing: TimingModel | None = None,
        tracer: Tracer | None = None,
    ):
        geometry = geometry or FlashGeometry.bench()
        nand = NandArray(geometry, timing=timing, store_data=store_data, tracer=tracer)
        self.ftl = ConventionalFTL(geometry, config=config, nand=nand)
        self.tracer = self.ftl.tracer
        self._payloads: dict[int, Any] = {}
        self._store_data = store_data

    @property
    def block_size(self) -> int:
        return self.ftl.geometry.page_size

    @property
    def num_blocks(self) -> int:
        return self.ftl.logical_pages

    def read_block(self, lba: int) -> Any:
        self.ftl.read(lba, build_ops=False)
        return self._payloads.get(lba) if self._store_data else None

    def write_block(self, lba: int, data: Any = None) -> None:
        self.ftl.write(lba, build_ops=False)
        if self._store_data:
            self._payloads[lba] = data

    def write_blocks(self, start: int, count: int) -> None:
        check_extent(self, start, count)
        # The extent is checked whole: the FTL's write loop skips its own check.
        self.ftl._write_checked(np.arange(start, start + count, dtype=np.int64), 0, True)
        if self._store_data:
            self._payloads.update(dict.fromkeys(range(start, start + count)))

    def trim_block(self, lba: int) -> None:
        self.ftl.trim(lba)
        self._payloads.pop(lba, None)


class TimedConventionalSSD(TimedFrontEnd):
    """DES-driven conventional SSD with background garbage collection.

    :meth:`submit_read` / :meth:`submit_write` each return a
    :class:`~repro.sim.engine.Process` whose value is the request latency.
    The collector runs whenever the free-block watermarks ask for it,
    holding planes/channels while it works, so host requests queue behind
    it: a conventional SSD has no knob for when GC may run, which is
    precisely the paper's complaint. It times the FTL it is given, so a
    warmed FTL's copy can be timed once per arm (DESIGN.md §6).
    """

    def __init__(
        self,
        engine: Engine,
        ftl: ConventionalFTL,
        prioritize_reads: bool = False,
        erase_suspend_slices: int = 1,
    ):
        self.ftl = ftl
        # Writes stall at or below this many free blocks: it leaves the
        # collector one transient working block per GC destination stream.
        self._stall_threshold = ftl.config.streams + ftl.config.gc_streams - 1
        service = FlashServiceModel(
            engine, ftl.geometry, timing=ftl.nand.timing, prioritize_reads=prioritize_reads,
            erase_suspend_slices=erase_suspend_slices, tracer=ftl.tracer,
        )
        super().__init__(engine, service, background="ftl-gc")

    def submit_read(self, lpn: int):
        return self.engine.process(
            self._request("read", self.ftl.geometry.page_size, lambda: [self.ftl.read(lpn)])
        )

    def submit_write(self, lpn: int):
        """Stalls while the FTL is nearly out of free blocks: the latency cliff."""
        return self.engine.process(
            self._request(
                "write", self.ftl.geometry.page_size,
                lambda: self.ftl.write(lpn, auto_gc=False), may_stall=True,
            )
        )

    def _stalled(self) -> bool:
        return self.ftl.free_block_count <= self._stall_threshold

    def _stall_began(self) -> None:
        self.ftl.stats.foreground_gc_stalls += 1
        if self.tracer.enabled:
            self.tracer.publish(
                GcEvent("ftl.gc", "stall", free_blocks=self.ftl.free_block_count, t=self.engine.now)
            )

    def _background_step(self) -> tuple[list[FlashOp], list[FlashOp], None] | None:
        """One collection: its copies fan out across the GC destination
        streams' planes, then its erases run. All at host I/O priority:
        the FTL's scheduling is opaque FIFO, the §2.4 interference."""
        if not (self.ftl.gc_needed() and self.ftl.sealed_blocks):
            return None
        ops = self.ftl.collect_once()
        copies = [op for op in ops if op.kind is not OpKind.ERASE]
        erases = [op for op in ops if op.kind is OpKind.ERASE]
        return copies, erases, None


__all__ = ["ConventionalSSD", "TimedConventionalSSD"]
