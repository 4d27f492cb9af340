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

_READ, _ERASE, _MGMT = OpKind.READ, OpKind.ERASE, OpKind.MGMT
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
        # What an op costs is a function of its block and kind alone, so
        # both are resolved once here, not per op.
        self._holds = [
            (
                self.planes[geometry.plane_of_block(block)],
                self.channels[geometry.channel_of_block(block)],
            )
            for block in range(geometry.total_blocks)
        ]
        timing = self.timing
        transfer = timing.transfer_us(geometry.page_size)
        self._times = {
            OpKind.READ: (timing.read_us, transfer),
            OpKind.PROGRAM: (timing.program_us, transfer),
            OpKind.ERASE: (timing.erase_us, 0.0),
            # Copyback: read + program array time on the plane, no channel.
            OpKind.COPY: (timing.read_us + timing.program_us, 0.0),
        }
        self._priorities = {
            OpKind.READ: self.PRIO_READ,
            OpKind.PROGRAM: self.PRIO_WRITE,
            OpKind.ERASE: self.PRIO_BACKGROUND,
            OpKind.COPY: self.PRIO_BACKGROUND,
            OpKind.MGMT: self.PRIO_BACKGROUND,
        }

    def execute(self, op: FlashOp, priority: float | None = None) -> Generator:
        """DES process body: perform one op with resource contention.

        Yields resource requests and timeouts; returns the op's end-to-end
        latency (queueing included) as seen by the issuer. Without
        ``priority``, every op is served FCFS unless the model prioritizes
        reads (then reads, then programs, then the rest).
        """
        engine = self.engine
        start = engine.now
        first_grant_at = start
        kind = op.kind
        if priority is not None:
            prio = priority
        elif self.prioritize_reads:
            prio = self._priorities[kind]
        else:
            prio = 0.0
        block = op.block
        if not 0 <= block < self.geometry.total_blocks:
            self.geometry.check_block(block)  # raises its IndexError
        plane, channel = self._holds[block]
        if kind is _MGMT:
            # Zone-management overhead carries its own configured latency
            # (it is per-device ZoneMgmtTiming, not part of the NAND
            # timing model) and holds a die lane without channel use.
            array_time, transfer_time = op.latency_us, 0.0
        else:
            array_time, transfer_time = self._times[kind]

        if kind is _READ:
            # Sense on the plane, then move data over the channel.
            plane_req = yield plane.request(prio)
            first_grant_at = engine.now
            yield engine.sleep(array_time)
            plane.release(plane_req)
            if transfer_time > 0 and op.uses_channel:
                chan_req = yield channel.request(prio)
                yield engine.sleep(transfer_time)
                channel.release(chan_req)
        elif kind is _ERASE and self.erase_suspend_slices > 1:
            # Suspendable erase: hold the plane one slice at a time. If
            # something else (a prioritized read) grabbed the plane while
            # we were suspended, resuming costs extra.
            slice_time = array_time / self.erase_suspend_slices
            for i in range(self.erase_suspend_slices):
                grants_before = plane.total_grants
                plane_req = yield plane.request(prio)
                if i == 0:
                    first_grant_at = engine.now
                if i > 0 and plane.total_grants > grants_before + 1:
                    yield engine.sleep(self.timing.erase_suspend_overhead_us)
                yield engine.sleep(slice_time)
                plane.release(plane_req)
        else:
            # Writes: transfer into the plane's page buffer first, then
            # program. Erase/copy skip the channel.
            if transfer_time > 0 and op.uses_channel:
                chan_req = yield channel.request(prio)
                first_grant_at = engine.now
                yield engine.sleep(transfer_time)
                channel.release(chan_req)
                plane_req = yield plane.request(prio)
            else:
                plane_req = yield plane.request(prio)
                first_grant_at = engine.now
            yield engine.sleep(array_time)
            plane.release(plane_req)

        elapsed = engine.now - start
        if self.tracer.enabled:
            nbytes = 0 if kind is _ERASE or kind is _MGMT else self.geometry.page_size
            self.tracer.publish(
                FlashOpEvent(
                    "flash.service",
                    _OP_NAMES[kind],
                    block,
                    op.page,
                    nbytes=nbytes,
                    latency_us=elapsed,
                    queued_us=first_grant_at - start,
                    t=engine.now,
                )
            )
        return elapsed


__all__ = ["FlashServiceModel"]
