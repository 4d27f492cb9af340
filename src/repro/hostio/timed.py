"""Timed host stack: the zoned block device inside the DES (E3, E11, E12).

:class:`~repro.block.dmzoned.ZonedBlockDevice` on the timed front end
(:class:`~repro.hostio.frontend.TimedFrontEnd`): the host-side
counterpart of :class:`~repro.ftl.device.TimedConventionalSSD`. Same
workload, but a :class:`~repro.hostio.scheduler.ReclaimScheduler` decides
when reclaim runs, and GC copies can stay inside the device via simple
copy.
"""

from __future__ import annotations

from repro.block.dmzoned import ZonedBlockDevice
from repro.flash.ops import FlashOp
from repro.flash.service import FlashServiceModel
from repro.hostio.frontend import POLL_INTERVAL_US, TimedFrontEnd
from repro.hostio.scheduler import AlwaysOnScheduler, HostIOState, ReclaimScheduler
from repro.obs.events import ReclaimEvent
from repro.sim.engine import Engine


#: Simple-copy pages one reclaim step may move: short enough to fit
#: inside read-idle gaps, so an idle-window scheduler genuinely moves
#: reclaim out of the way of read bursts.
RECLAIM_QUANTUM_COPIES = 4


class TimedZonedBlockDevice(TimedFrontEnd):
    """DES wrapper around a host block-on-ZNS translation layer, and the
    lifecycle manager its zone log was given, if any."""

    def __init__(
        self,
        engine: Engine,
        layer: ZonedBlockDevice,
        scheduler: ReclaimScheduler | None = None,
        prioritize_reads: bool = True,
    ):
        self.layer = layer
        self.lifecycle = layer.log.lifecycle
        self.scheduler = scheduler or AlwaysOnScheduler()
        self._io_state = HostIOState(low_watermark=layer.config.gc_low_zones)
        # One bus end to end: host requests, reclaim decisions, NVMe
        # commands and flash ops all land on the same stream.
        device = layer.device
        service = FlashServiceModel(
            engine, device.geometry.flash, timing=device.nand.timing,
            prioritize_reads=prioritize_reads, tracer=layer.tracer,
        )
        super().__init__(engine, service, background="host-reclaim")

    def submit_read(self, lba: int):
        return self.engine.process(
            self._request("read", self.layer.block_size, lambda: [self.layer.read(lba)[1]])
        )

    def submit_write(self, lba: int):
        """A write stalls while the host is out of zones (reclaim will free some)."""
        return self.engine.process(
            self._request(
                "write", self.layer.block_size,
                lambda: self.layer.write(lba, auto_gc=False), may_stall=True,
            )
        )

    def _stalled(self) -> bool:
        return self.layer.free_zone_count <= 1

    def _stall_began(self) -> None:
        self.layer.stats.write_stalls += 1

    def _background_step(self) -> tuple[tuple, list[FlashOp], float] | None:
        """One reclaim quantum, run serially at background priority, if
        there is work and the scheduler grants it."""
        io_state = self._io_state
        io_state.now = self.engine.now
        io_state.free_zones = self.layer.free_zone_count
        wants_work = (
            (self.layer.gc_needed() and self.layer.log.sealed.any())
            or self.layer.reclaim_in_progress
            or (self.lifecycle is not None and self.lifecycle.backlog > 0)
        )
        if not wants_work:
            return None
        granted = self.scheduler.may_reclaim(io_state)
        if self.tracer.enabled:
            action = "granted" if granted else "deferred"
            free_zones = self.layer.free_zone_count
            self.tracer.publish(
                ReclaimEvent("hostio.scheduler", action, free_zones=free_zones, t=self.engine.now)
            )
        if not granted:
            return None
        ops = self.layer.reclaim_step(RECLAIM_QUANTUM_COPIES)
        if self.lifecycle is not None:
            # Deferred finishes and reset-ahead ride the same granted
            # window as reclaim copies, with reset-ahead priced
            # (ZnsFTL.reset_cost_us) to fit one idle interval so a
            # granted gap never turns into a reset convoy.
            ops.extend(self.lifecycle.tick(io_state, budget_us=POLL_INTERVAL_US))
        return (), ops, FlashServiceModel.PRIO_BACKGROUND


__all__ = ["POLL_INTERVAL_US", "RECLAIM_QUANTUM_COPIES", "TimedZonedBlockDevice"]
