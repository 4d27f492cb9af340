"""The one host-request lifecycle and background loop of every timed stack.

A module of its own, importing no stack: :mod:`repro.zns.device` defines
a front end while :mod:`repro.hostio.timed` builds a ``ZNSDevice``.
"""

from __future__ import annotations

from collections.abc import Callable, Generator

import itertools

from repro.flash.service import FlashServiceModel
from repro.hostio.scheduler import HostIOState
from repro.obs.events import HostRequestEvent
from repro.obs.frame import MetricsFrame
from repro.sim.engine import Engine
from repro.sim.resources import Resource

#: A stalled write re-checks for free space this often, an idle background
#: loop sleeps this long, and a granted reclaim window is priced at this.
POLL_INTERVAL_US = 100.0


class TimedFrontEnd:
    """Host requests and background work of one timed stack, in the DES.

    One process per request and one background loop; the stack beneath
    only returns work (the shape of wiscsee's ``dftldes``): a request's
    command returns its flash ops. A subclass supplies, if its writes may
    stall, ``_stalled()`` (a pure poll predicate), ``_stall_ended(ticks)``
    and optionally ``_stall_began()``; if it has background work,
    ``_background_step()`` returning ``(wave, serial, priority)`` or
    ``None``. Latencies land in ``frame`` as the exact series
    ``hostio.request.<op>.latency_us``.
    """

    #: Reads in flight and the last read's completion, for a stack whose
    #: reclaim scheduler watches them.
    _io_state: HostIOState | None = None

    def __init__(self, engine: Engine, service: FlashServiceModel, background: str | None = None):
        self.engine = engine
        self.service = service
        self.tracer = service.tracer
        self.frame = MetricsFrame()
        self._request_ids = itertools.count()
        if background is not None:
            engine.process(self._background(), name=background)

    def _request(
        self, op: str, nbytes: int, command: Callable[[], list], may_stall: bool = False,
        lock: Resource | None = None, gate: Resource | None = None,
    ) -> Generator:
        """Enqueue; wait for ``lock``, then ``gate``, then while ``_stalled()``
        if the request ``may_stall``; issue ``command()``; replay the flash
        ops it returns one by one; return the end-to-end latency.

        A request that may stall is in service before its command runs,
        any other after it (after its flash events): the order the traces
        pin.
        """
        engine = self.engine
        tracer = self.tracer
        start = engine.now
        rid = next(self._request_ids)
        if tracer.enabled:
            tracer.publish(
                HostRequestEvent("hostio.request", op, "enqueue", rid, nbytes=nbytes, t=start)
            )
        if lock is not None:
            req = yield lock.request()
        if gate is not None:
            gate.release((yield gate.request()))
        if may_stall and self._stalled():
            self._stall_began()
            # Bound first: `stats.x += (yield ...)` would read the counter
            # before suspending and drop every other writer's increments.
            ticks = yield engine.poll(self._stalled, POLL_INTERVAL_US)
            self._stall_ended(ticks)
        io_state = self._io_state if op == "read" else None
        if io_state is not None:
            io_state.pending_reads += 1
        try:
            if not may_stall:
                ops = command()
            if tracer.enabled:
                tracer.publish(
                    HostRequestEvent("hostio.request", op, "service-start", rid, t=engine.now)
                )
            if may_stall:
                ops = command()
            for flash_op in ops:
                yield engine.process(self.service.execute(flash_op))
        finally:
            if lock is not None:
                lock.release(req)
            if io_state is not None:
                io_state.pending_reads -= 1
                io_state.last_read_at = engine.now
        latency = engine.now - start
        self.frame.sample(f"hostio.request.{op}.latency_us", latency)
        if tracer.enabled:
            tracer.publish(
                HostRequestEvent("hostio.request", op, "complete", rid, latency, nbytes, engine.now)
            )
        return latency

    def _stall_began(self) -> None:
        """A write found the stack stalled; nothing to report by default."""

    def _background(self) -> Generator:
        """Background steps forever: a step's ``wave`` fans out under one
        ``all_of``, then its ``serial`` ops run one by one, all at its
        ``priority`` (``None``: the service's per-op choice); no step, one
        interval's sleep."""
        engine = self.engine
        execute = self.service.execute
        while True:
            step = self._background_step()
            if step is None:
                yield engine.sleep(POLL_INTERVAL_US)
                continue
            wave, serial, priority = step
            if wave:
                yield engine.all_of([engine.process(execute(op, priority)) for op in wave])
            for op in serial:
                yield engine.process(execute(op, priority))


__all__ = ["POLL_INTERVAL_US", "TimedFrontEnd"]
