"""Timed host stack: the zoned block device inside the DES.

Combines :class:`~repro.block.dmzoned.ZonedBlockDevice` (state machine),
:class:`~repro.flash.service.FlashServiceModel` (plane/channel contention),
and a :class:`~repro.hostio.scheduler.ReclaimScheduler` (when reclaim may
run). This is the host-side counterpart of
:class:`~repro.ftl.device.TimedConventionalSSD` and powers experiments E3,
E11, and E12: same workload, but reclaim is scheduled by the host and GC
copies can stay inside the device via simple copy.
"""

from __future__ import annotations

from collections.abc import Generator

import itertools

from repro.block.dmzoned import ZonedBlockConfig, ZonedBlockDevice
from repro.block.interface import ZonedDevice
from repro.flash.geometry import ZonedGeometry
from repro.flash.service import FlashServiceModel
from repro.flash.timing import TimingModel
from repro.hostio.scheduler import AlwaysOnScheduler, HostIOState, ReclaimScheduler
from repro.obs.events import HostRequestEvent, ReclaimEvent
from repro.obs.frame import MetricsFrame
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.zns.device import ZNSDevice


class TimedZonedBlockDevice:
    """DES wrapper around the host block-on-ZNS translation layer."""

    def __init__(
        self,
        engine: Engine,
        geometry: ZonedGeometry | None = None,
        config: ZonedBlockConfig | None = None,
        scheduler: ReclaimScheduler | None = None,
        timing: TimingModel | None = None,
        prioritize_reads: bool = True,
        reclaim_poll_interval_us: float = 100.0,
        reclaim_quantum_copies: int = 4,
        device: ZonedDevice | None = None,
        tracer: Tracer | None = None,
        lifecycle=None,
    ):
        geometry = geometry or ZonedGeometry.bench()
        self.engine = engine
        if device is None:
            device = ZNSDevice(geometry, timing=timing, tracer=tracer)
        if lifecycle is not None and lifecycle.device is not device:
            raise ValueError("lifecycle manager must wrap the same device")
        self.lifecycle = lifecycle
        self.layer = ZonedBlockDevice(
            device, config=config, tracer=tracer, lifecycle=lifecycle
        )
        # One bus end to end: host requests, reclaim decisions, NVMe
        # commands and flash ops all land on the same stream.
        self.tracer = self.layer.tracer
        self.service = FlashServiceModel(
            engine, geometry.flash, timing=device.nand.timing,
            prioritize_reads=prioritize_reads,
            tracer=self.tracer,
        )
        self.scheduler = scheduler or AlwaysOnScheduler()
        #: Host request latencies, one exact series per op
        #: (``hostio.request.<op>.latency_us``), booked at completion.
        self.frame = MetricsFrame()
        self._request_ids = itertools.count()
        self.reclaim_poll_interval_us = reclaim_poll_interval_us
        self.reclaim_quantum_copies = reclaim_quantum_copies
        self._io_state = HostIOState(low_watermark=self.layer.config.gc_low_zones)
        self._reclaimer = engine.process(self._reclaim_loop(), name="host-reclaim")

    # -- Host requests --------------------------------------------------------

    def submit_read(self, lba: int):
        return self.engine.process(self._read_proc(lba))

    def submit_write(self, lba: int):
        return self.engine.process(self._write_proc(lba))

    def _read_proc(self, lba: int) -> Generator:
        start = self.engine.now
        request_id = next(self._request_ids)
        pagesize = self.layer.block_size
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "read", "enqueue",
                    request_id=request_id, nbytes=pagesize, t=start,
                )
            )
        self._io_state.pending_reads += 1
        try:
            _, op = self.layer.read(lba)
            if self.tracer.enabled:
                self.tracer.publish(
                    HostRequestEvent(
                        "hostio.request", "read", "service-start",
                        request_id=request_id, t=self.engine.now,
                    )
                )
            yield self.engine.process(self.service.execute(op))
        finally:
            self._io_state.pending_reads -= 1
            self._io_state.last_read_at = self.engine.now
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

    def _write_proc(self, lba: int) -> Generator:
        start = self.engine.now
        request_id = next(self._request_ids)
        pagesize = self.layer.block_size
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "write", "enqueue",
                    request_id=request_id, nbytes=pagesize, t=start,
                )
            )
        # Stall while the host is out of zones (reclaim will free some).
        if self._out_of_zones():
            # Bound first, as in TimedConventionalSSD._write_proc.
            ticks = yield self.engine.poll(self._out_of_zones, self.reclaim_poll_interval_us)
            self.layer.stats.write_stalls += 1
            self.layer.stats.write_stall_ticks += ticks
        if self.tracer.enabled:
            self.tracer.publish(
                HostRequestEvent(
                    "hostio.request", "write", "service-start",
                    request_id=request_id, t=self.engine.now,
                )
            )
        ops = self.layer.write(lba, auto_gc=False)
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

    def _out_of_zones(self) -> bool:
        return self.layer.free_zone_count <= 1

    # -- Background reclaim -----------------------------------------------------

    def _reclaim_loop(self) -> Generator:
        """Reclaim in bounded quanta, consulting the scheduler between them.

        The quantum (a handful of simple-copy pages) is short enough to
        fit inside read-idle gaps, so an idle-window scheduler genuinely
        moves reclaim out of the way of read bursts.
        """
        while True:
            self._io_state.now = self.engine.now
            self._io_state.free_zones = self.layer.free_zone_count
            wants_work = (
                (self.layer.gc_needed() and self.layer._sealed)
                or self.layer.reclaim_in_progress
                or (self.lifecycle is not None and self.lifecycle.backlog > 0)
            )
            if wants_work and self.scheduler.may_reclaim(self._io_state):
                if self.tracer.enabled:
                    self.tracer.publish(
                        ReclaimEvent(
                            "hostio.scheduler", "granted",
                            free_zones=self.layer.free_zone_count,
                            t=self.engine.now,
                        )
                    )
                ops = self.layer.reclaim_step(self.reclaim_quantum_copies)
                if self.lifecycle is not None:
                    # Deferred finishes and reset-ahead ride the same
                    # granted window as reclaim copies, with reset-ahead
                    # priced (ZnsFTL.reset_cost_us) to fit one poll
                    # interval so a granted gap never turns into a
                    # reset convoy.
                    ops.extend(
                        self.lifecycle.tick(
                            self._io_state,
                            budget_us=self.reclaim_poll_interval_us,
                        )
                    )
                for op in ops:
                    yield self.engine.process(
                        self.service.execute(op, priority=FlashServiceModel.PRIO_BACKGROUND)
                    )
            else:
                if wants_work and self.tracer.enabled:
                    self.tracer.publish(
                        ReclaimEvent(
                            "hostio.scheduler", "deferred",
                            free_zones=self.layer.free_zone_count,
                            t=self.engine.now,
                        )
                    )
                yield self.engine.sleep(self.reclaim_poll_interval_us)


__all__ = ["TimedZonedBlockDevice"]
