"""Shared resources with FCFS and priority queueing.

A :class:`Resource` models a server pool with fixed capacity (e.g. a NAND
plane that can execute one operation at a time, or a channel that can carry
one transfer at a time). Processes ``yield resource.request()`` to acquire a
slot and call ``resource.release(req)`` when done; the ``with``-less style
mirrors the explicit request/release protocol of SimPy.

:class:`PriorityResource` adds a numeric priority (lower value = served
first) so host I/O schedulers can let reads overtake background erases.
"""

from __future__ import annotations

import heapq
import itertools

from repro.sim.engine import _PENDING, _TRIGGERED, Engine, Event, SimulationError


class Request(Event):
    """A pending or granted claim on a resource slot."""

    __slots__ = ("resource", "priority")

    def __init__(self, resource: "Resource", priority: float = 0.0):
        # Every slot set here: one request per plane or channel hold.
        self.engine = resource.engine
        self.callbacks = []
        self.value = None
        self._state = _PENDING
        self._exception = None
        self._pool = None
        self.resource = resource
        self.priority = priority


class Resource:
    """A fixed-capacity FCFS resource.

    Attributes
    ----------
    capacity:
        Number of slots that can be held simultaneously.
    count:
        Number of slots currently held.
    queue_length:
        Number of requests waiting (not yet granted).
    """

    def __init__(self, engine: Engine, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.count = 0
        self._waiting: list[tuple[float, int, Request]] = []
        self._sequence = itertools.count()
        # Observability: grants so far (the flash service model reads it).
        self.total_grants = 0

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self, priority: float = 0.0) -> Request:
        """Claim a slot; the returned event triggers when granted."""
        req = Request(self, priority)
        if self.count < self.capacity and not self._waiting:
            # Granted at once: ``req.succeed(req)``, in place.
            self.count += 1
            self.total_grants += 1
            req.value = req
            req._state = _TRIGGERED
            engine = self.engine
            engine._fifo.append((engine.now, next(engine._sequence), req))
        else:
            heapq.heappush(self._waiting, self._key(req))
        return req

    def _key(self, req: Request) -> tuple[float, int, Request]:
        # Plain Resource ignores priority: strict FCFS via sequence numbers.
        return (0.0, next(self._sequence), req)

    def release(self, req: Request) -> None:
        """Return a granted slot; the longest-waiting request is granted."""
        if req._state == _PENDING or self.count <= 0:
            raise SimulationError("release() without matching grant")
        self.count -= 1
        while self._waiting and self.count < self.capacity:
            waiter = heapq.heappop(self._waiting)[2]
            self.count += 1
            self.total_grants += 1
            waiter.succeed(waiter)


class PriorityResource(Resource):
    """A resource whose queue is ordered by request priority.

    Lower priority values are granted first; ties are FCFS. Grants are
    non-preemptive: a running low-priority holder is never evicted, which
    matches NAND reality (an in-flight erase cannot be revoked, only
    suspended -- see :mod:`repro.flash.timing` for erase-suspend modeling).
    """

    def _key(self, req: Request) -> tuple[float, int, Request]:
        return (req.priority, next(self._sequence), req)


__all__ = ["PriorityResource", "Request", "Resource"]
