"""Conventional SSD device facades.

:class:`ConventionalSSD` is the untimed block device (implements
:class:`repro.block.interface.BlockDevice`) used by counting experiments
and applications. :class:`TimedConventionalSSD` wraps the same FTL in the
DES: host requests contend with background garbage collection on planes
and channels, reproducing the GC-interference tail latencies of §2.4.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import replace
from typing import Any

import itertools

import numpy as np

from repro.block.interface import check_extent
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.ops import OpKind
from repro.flash.service import FlashServiceModel
from repro.flash.timing import TimingModel
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.obs.events import GcEvent, HostRequestEvent
from repro.obs.frame import MetricsFrame
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

    @property
    def device_write_amplification(self) -> float:
        return self.ftl.stats.device_write_amplification

    def read_block(self, lba: int) -> Any:
        self.ftl.read(lba)
        return self._payloads.get(lba) if self._store_data else None

    def write_block(self, lba: int, data: Any = None) -> None:
        self.ftl.write(lba)
        if self._store_data:
            self._payloads[lba] = data

    def write_blocks(self, start: int, count: int) -> None:
        check_extent(self, start, count)
        self.ftl.write_pages(np.arange(start, start + count))
        if self._store_data:
            self._payloads.update(dict.fromkeys(range(start, start + count)))

    def trim_block(self, lba: int) -> None:
        self.ftl.trim(lba)
        self._payloads.pop(lba, None)


class TimedConventionalSSD:
    """DES-driven conventional SSD with background garbage collection.

    Host requests are issued with :meth:`submit_read` / :meth:`submit_write`
    (each returns a :class:`~repro.sim.engine.Process` whose value is the
    request latency). A background collector process watches the free-block
    watermarks and performs GC op-by-op, holding planes/channels while it
    works -- host requests queued behind it observe the interference.

    The ``gc_pause`` event hook lets host-side schedulers (§4.1 / E11)
    gate when the collector may run; on a conventional SSD that knob does
    not exist, which is precisely the paper's complaint, so by default the
    collector is always allowed.
    """

    def __init__(
        self,
        engine: Engine,
        geometry: FlashGeometry | None = None,
        config: FTLConfig | None = None,
        timing: TimingModel | None = None,
        gc_poll_interval_us: float = 100.0,
        prioritize_reads: bool = False,
        erase_suspend_slices: int = 1,
        tracer: Tracer | None = None,
    ):
        geometry = geometry or FlashGeometry.bench()
        if config is None:
            # Timed runs default to plane-parallel GC (4 destination
            # streams), matching real controllers.
            config = FTLConfig(gc_streams=4)
        elif config.gc_streams == 1:
            config = replace(config, gc_streams=4)
        self.engine = engine
        self.ftl = ConventionalFTL(geometry, config=config, timing=timing, tracer=tracer)
        self.tracer = self.ftl.tracer
        self.service = FlashServiceModel(
            engine,
            geometry,
            timing=self.ftl.nand.timing,
            prioritize_reads=prioritize_reads,
            erase_suspend_slices=erase_suspend_slices,
            tracer=self.tracer,
        )
        #: Host request latencies, one exact series per op
        #: (``hostio.request.<op>.latency_us``), booked at completion.
        self.frame = MetricsFrame()
        self._request_ids = itertools.count()
        self.gc_poll_interval_us = gc_poll_interval_us
        # Writes stall at or below this many free blocks: it leaves the
        # collector its transient working blocks (one per GC destination
        # stream).
        self._stall_threshold = self.ftl.config.streams + self.ftl.config.gc_streams - 1
        self._collector = engine.process(self._collector_loop(), name="ftl-gc")

    # -- Host request processes ------------------------------------------------

    def submit_read(self, lpn: int):
        return self.engine.process(self._read_proc(lpn), name=f"read-{lpn}")

    def submit_write(self, lpn: int):
        return self.engine.process(self._write_proc(lpn), name=f"write-{lpn}")

    def _read_proc(self, lpn: int) -> Generator:
        start = self.engine.now
        request_id = next(self._request_ids)
        pagesize = self.ftl.geometry.page_size
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "read", "enqueue",
                    request_id=request_id, nbytes=pagesize, t=start,
                )
            )
        op = self.ftl.read(lpn)
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "read", "service-start",
                    request_id=request_id, t=self.engine.now,
                )
            )
        yield self.engine.process(self.service.execute(op))
        latency = self.engine.now - start
        self.frame.sample("hostio.request.read.latency_us", latency)
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "read", "complete", request_id=request_id,
                    latency_us=latency, nbytes=pagesize, t=self.engine.now,
                )
            )
        return latency

    def _write_proc(self, lpn: int) -> Generator:
        start = self.engine.now
        request_id = next(self._request_ids)
        pagesize = self.ftl.geometry.page_size
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "write", "enqueue",
                    request_id=request_id, nbytes=pagesize, t=start,
                )
            )
        # If the FTL is nearly out of free blocks the write stalls until
        # the background collector frees some: the conventional-SSD
        # latency cliff.
        if self._stalled():
            if self.tracer.enabled:
                self.tracer.publish(
                    GcEvent(
                        "ftl.gc", "stall",
                        free_blocks=self.ftl.free_block_count,
                        t=self.engine.now,
                    )
                )
            # Bound first: `stats.x += (yield ...)` would read the counter
            # before suspending and drop every other writer's increments.
            ticks = yield self.engine.poll(self._stalled, self.gc_poll_interval_us)
            self.ftl.stats.foreground_gc_stalls += 1 + ticks
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "write", "service-start",
                    request_id=request_id, t=self.engine.now,
                )
            )
        ops = self.ftl.write(lpn, auto_gc=False)
        for op in ops:
            yield self.engine.process(self.service.execute(op))
        latency = self.engine.now - start
        self.frame.sample("hostio.request.write.latency_us", latency)
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "write", "complete", request_id=request_id,
                    latency_us=latency, nbytes=pagesize, t=self.engine.now,
                )
            )
        return latency

    def _stalled(self) -> bool:
        """Whether a write must wait for free blocks (a pure poll predicate)."""
        return self.ftl.free_block_count <= self._stall_threshold

    # -- Background collection ----------------------------------------------------

    def _collector_loop(self) -> Generator:
        while True:
            if self.ftl.gc_needed() and self.ftl.sealed_blocks:
                ops = self.ftl.collect_once()
                # Copies fan out (multi-stream GC destinations sit on
                # different planes); the erase runs after they land.
                copies = [op for op in ops if op.kind is not OpKind.ERASE]
                erases = [op for op in ops if op.kind is OpKind.ERASE]
                # GC ops run at the same priority as host I/O: the FTL's
                # internal scheduling is opaque FIFO, which is exactly the
                # §2.4 interference complaint. (Host-side reclaim over ZNS
                # is where priorities become possible -- see E11.)
                in_flight = [
                    self.engine.process(self.service.execute(op))
                    for op in copies
                ]
                if in_flight:
                    yield self.engine.all_of(in_flight)
                for op in erases:
                    yield self.engine.process(self.service.execute(op))
            else:
                yield self.engine.sleep(self.gc_poll_interval_us)


__all__ = ["ConventionalSSD", "TimedConventionalSSD"]
