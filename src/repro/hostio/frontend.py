"""The one host-request lifecycle and background loop of every timed stack.

A module of its own, importing no stack: :mod:`repro.zns.device` defines
a front end while :mod:`repro.hostio.timed` builds a ``ZNSDevice``.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable, Generator

from repro.flash.service import FlashServiceModel
from repro.hostio.scheduler import HostIOState
from repro.obs.events import HostRequestEvent
from repro.obs.frame import MetricsFrame
from repro.sim.engine import Engine, Event
from repro.sim.resources import Resource

#: An idle background loop sleeps this long before asking for work again,
#: and a granted reclaim window is priced at this.
POLL_INTERVAL_US = 100.0


class TimedFrontEnd:
    """Host requests and background work of one timed stack, in the DES.

    One process per request and one background loop; the stack beneath
    only returns work (the shape of wiscsee's ``dftldes``): a request's
    command returns its flash ops. A subclass supplies, if its writes may
    stall, ``_stalled()`` and ``_stall_began()`` (a write parks); if it
    has background work, ``_background_step()`` returning ``(wave, serial,
    priority)`` or ``None``. Latencies land in ``frame`` as the exact
    series ``hostio.request.<op>.latency_us``.

    Stalled writers wait in ``_parked``, first come first served, each on
    an event of its own. Only the background step frees space, so the
    loop wakes the head right after each step; the head keeps its place
    until its command has run, then passes the wake on. A writer parks
    while anyone is parked, so no arrival overtakes one.
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
        self._parked: deque[Event] = deque()
        if background is not None:
            engine.process(self._background(), name=background)

    def _request(
        self, op: str, nbytes: int, command: Callable[[], list], may_stall: bool = False,
        lock: Resource | None = None, gate: Resource | None = None,
    ) -> Generator:
        """Enqueue; wait for ``lock``, then ``gate``, then, if the request
        ``may_stall``, for its turn among stalled writers; issue
        ``command()``; replay the flash ops it returns one by one; return
        the end-to-end latency.

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
        stalled = may_stall and (bool(self._parked) or self._stalled())
        if stalled:
            self._stall_began()
            wake = engine.event()
            self._parked.append(wake)
            yield wake
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
                if stalled:
                    self._parked.popleft()
                    self._wake_stalled()
            execute = self.service.execute
            for flash_op in ops:
                yield from engine.inline(execute(flash_op))
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

    def _wake_stalled(self) -> None:
        """Wake the first parked writer if there is space for it and no
        woken writer still holds the turn."""
        parked = self._parked
        if parked and not parked[0].triggered and not self._stalled():
            parked[0].succeed()

    def check_invariants(self) -> None:
        """Only the head of the parked queue may be woken, and a writer
        still parked behind nobody woken means the stack is stalled (no
        lost wake-up)."""
        parked = self._parked
        if any(wake.triggered for wake in itertools.islice(parked, 1, None)):
            raise AssertionError("a parked writer behind the head was woken")
        if parked and not parked[0].triggered and not self._stalled():
            raise AssertionError("a writer is parked while the stack has space")

    def _background(self) -> Generator:
        """Background steps forever: a step's ``wave`` fans out under one
        ``all_of``, then its ``serial`` ops run one by one, all at its
        ``priority`` (``None``: the service's per-op choice); no step, one
        interval's sleep. A step is where space is freed, so the first
        stalled writer is woken as soon as it returns, before its ops
        run."""
        engine = self.engine
        execute = self.service.execute
        while True:
            step = self._background_step()
            self._wake_stalled()
            if step is None:
                yield engine.sleep(POLL_INTERVAL_US)
                continue
            wave, serial, priority = step
            if wave:
                yield engine.all_of([engine.process(execute(op, priority)) for op in wave])
            for op in serial:
                yield engine.process(execute(op, priority))


__all__ = ["POLL_INTERVAL_US", "TimedFrontEnd"]
