"""Timed service model: planes and channels as DES resources.

A NAND operation occupies its plane for the array time (sense, program, or
erase) and, for host-visible reads/programs, its channel for the transfer
time. Operations on distinct planes run in parallel; transfers on one
channel serialize. This is the contention structure that makes
conventional-SSD garbage collection inflate read tail latency (paper
§2.4): a multi-millisecond erase or a burst of GC copies parks on a plane
and queued host reads behind it stall.

The model is deliberately non-preemptive by default (an in-flight erase
cannot be revoked); optional erase suspension is exposed via
``suspend_erase_for_reads`` using the resume-overhead figure from the
timing model.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.flash.geometry import FlashGeometry
from repro.flash.ops import FlashOp, OpKind
from repro.flash.timing import TimingModel
from repro.obs.events import FlashOpEvent
from repro.obs.runtime import new_tracer
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.resources import PriorityResource

_OP_NAMES = {
    OpKind.READ: "read",
    OpKind.PROGRAM: "program",
    OpKind.ERASE: "erase",
    OpKind.COPY: "copy",
    OpKind.MGMT: "mgmt",
}


class FlashServiceModel:
    """Maps :class:`FlashOp` records onto plane/channel resource holds.

    Each executed op publishes a :class:`FlashOpEvent` (layer
    ``flash.service``) whose ``queued_us`` is the wait for the first
    plane/channel grant -- the §2.4 interference, measured per op.

    Parameters
    ----------
    engine:
        The DES engine.
    geometry / timing:
        Shape and latency model of the device being timed.
    tracer:
        Telemetry bus; facades share theirs so service events land on the
        same stream as the NAND/FTL events beneath them.
    """

    #: Priority levels: lower is served first at a busy resource.
    PRIO_READ = 0.0
    PRIO_WRITE = 1.0
    PRIO_BACKGROUND = 2.0

    def __init__(
        self,
        engine: Engine,
        geometry: FlashGeometry,
        timing: TimingModel | None = None,
        prioritize_reads: bool = False,
        erase_suspend_slices: int = 1,
        tracer: Tracer | None = None,
    ):
        if erase_suspend_slices < 1:
            raise ValueError("erase_suspend_slices must be >= 1")
        self.tracer = tracer if tracer is not None else new_tracer()
        self.engine = engine
        self.geometry = geometry
        self.timing = timing or TimingModel.for_cell(geometry.cell_type)
        self.prioritize_reads = prioritize_reads
        #: >1 enables erase suspension (Wu & He, FAST'12): the erase is
        #: split into this many suspendable slices, releasing the plane
        #: between them so queued reads can slip in. Each resume after a
        #: preemption costs ``timing.erase_suspend_overhead_us``.
        self.erase_suspend_slices = erase_suspend_slices
        self.planes = [PriorityResource(engine) for _ in range(geometry.total_planes)]
        self.channels = [PriorityResource(engine) for _ in range(geometry.channels)]

    def _priority(self, op: FlashOp) -> float:
        if not self.prioritize_reads:
            return 0.0  # strict FCFS across all op kinds
        if op.kind == OpKind.READ:
            return self.PRIO_READ
        if op.kind == OpKind.PROGRAM:
            return self.PRIO_WRITE
        return self.PRIO_BACKGROUND

    def _split(self, op: FlashOp) -> tuple[float, float]:
        """(array_time, transfer_time) for an op."""
        if op.kind == OpKind.READ:
            return self.timing.read_us, self.timing.transfer_us(self.geometry.page_size)
        if op.kind == OpKind.PROGRAM:
            return self.timing.program_us, self.timing.transfer_us(self.geometry.page_size)
        if op.kind == OpKind.ERASE:
            return self.timing.erase_us, 0.0
        if op.kind == OpKind.COPY:
            # Copyback: read + program array time on the plane, no channel.
            return self.timing.read_us + self.timing.program_us, 0.0
        if op.kind == OpKind.MGMT:
            # Zone-management overhead carries its own configured latency
            # (it is per-device ZoneMgmtTiming, not part of the NAND
            # timing model) and holds a die lane without channel use.
            return op.latency_us, 0.0
        raise ValueError(f"unknown op kind: {op.kind}")

    def execute(self, op: FlashOp, priority: float | None = None) -> Generator:
        """DES process body: perform one op with resource contention.

        Yields resource requests and timeouts; returns the op's end-to-end
        latency (queueing included) as seen by the issuer.
        """
        start = self.engine.now
        first_grant_at = start
        prio = self._priority(op) if priority is None else priority
        plane = self.planes[self.geometry.plane_of_block(op.block)]
        channel = self.channels[self.geometry.channel_of_block(op.block)]
        array_time, transfer_time = self._split(op)

        if op.kind == OpKind.READ:
            # Sense on the plane, then move data over the channel.
            plane_req = yield plane.request(prio)
            first_grant_at = self.engine.now
            yield self.engine.sleep(array_time)
            plane.release(plane_req)
            if transfer_time > 0 and op.uses_channel:
                chan_req = yield channel.request(prio)
                yield self.engine.sleep(transfer_time)
                channel.release(chan_req)
        elif op.kind == OpKind.ERASE and self.erase_suspend_slices > 1:
            # Suspendable erase: hold the plane one slice at a time. If
            # something else (a prioritized read) grabbed the plane while
            # we were suspended, resuming costs extra.
            slice_time = array_time / self.erase_suspend_slices
            for i in range(self.erase_suspend_slices):
                grants_before = plane.total_grants
                plane_req = yield plane.request(prio)
                if i == 0:
                    first_grant_at = self.engine.now
                if i > 0 and plane.total_grants > grants_before + 1:
                    yield self.engine.sleep(self.timing.erase_suspend_overhead_us)
                yield self.engine.sleep(slice_time)
                plane.release(plane_req)
        else:
            # Writes: transfer into the plane's page buffer first, then
            # program. Erase/copy skip the channel.
            if transfer_time > 0 and op.uses_channel:
                chan_req = yield channel.request(prio)
                first_grant_at = self.engine.now
                yield self.engine.sleep(transfer_time)
                channel.release(chan_req)
                plane_req = yield plane.request(prio)
            else:
                plane_req = yield plane.request(prio)
                first_grant_at = self.engine.now
            yield self.engine.sleep(array_time)
            plane.release(plane_req)

        elapsed = self.engine.now - start
        if self.tracer.enabled:
            nbytes = (
                0
                if op.kind in (OpKind.ERASE, OpKind.MGMT)
                else self.geometry.page_size
            )
            self.tracer.publish(
                FlashOpEvent(
                    "flash.service",
                    _OP_NAMES[op.kind],
                    op.block,
                    op.page,
                    nbytes=nbytes,
                    latency_us=elapsed,
                    queued_us=first_grant_at - start,
                    t=self.engine.now,
                )
            )
        return elapsed


__all__ = ["FlashServiceModel"]
