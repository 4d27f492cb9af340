"""Event loop, events, and generator-based processes.

The engine is a classic calendar-queue DES:

- :class:`Event` is a one-shot occurrence with callbacks and an optional
  value. Events are *triggered* (scheduled at a time) and then *processed*
  (callbacks run) when the clock reaches that time.
- :class:`Process` wraps a Python generator. Each ``yield`` must produce an
  :class:`Event`; the process suspends until that event is processed, then
  resumes with the event's value (``event.value``). A process is itself an
  event that triggers when the generator returns, so processes can wait on
  each other.
- :class:`Timeout` is an event that triggers ``delay`` after creation.

A process that waits for a condition parks on a plain :class:`Event`,
and whatever changes the condition succeeds it (the stalled writers of
:class:`~repro.hostio.frontend.TimedFrontEnd`, or
:class:`~repro.sim.resources.Resource`'s queue); nothing re-checks on a
timer.

Example::

    eng = Engine()

    def worker(eng, results):
        yield Timeout(eng, 5.0)
        results.append(eng.now)

    results = []
    eng.process(worker(eng, results))
    eng.run()
    assert results == [5.0]
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable, Generator
from typing import Any


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. double trigger)."""


# Event lifecycle states.
_PENDING = 0  # created, not yet triggered
_TRIGGERED = 1  # scheduled on the event queue
_PROCESSED = 2  # callbacks have run


class Event:
    """A one-shot occurrence on the simulation timeline.

    Events start *pending*. :meth:`succeed` or :meth:`fail` triggers them,
    scheduling callback execution at the current simulation time (or later,
    for :class:`Timeout`). Waiting processes are resumed with
    :attr:`value`; if the event failed, the stored exception is thrown into
    them instead.
    """

    __slots__ = ("engine", "callbacks", "value", "_state", "_exception", "_pool")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.callbacks: list[Callable[[Event], None]] = []
        self.value: Any = None
        self._state = _PENDING
        self._exception: BaseException | None = None
        # Pool-managed events (engine-internal bootstraps and inline-op
        # events, Engine.sleep timeouts) name the pool they return to once
        # processed; any other event is left to the garbage collector.
        self._pool: list | None = None

    @property
    def triggered(self) -> bool:
        return self._state >= _TRIGGERED

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully, carrying ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        engine = self.engine
        if delay == 0.0:
            engine._fifo.append((engine.now, next(engine._sequence), self))
        else:
            # Scheduled first: a rejected delay leaves the event pending.
            engine._schedule(self, delay)
        self.value = value
        self._state = _TRIGGERED
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self.engine._schedule(self, delay)
        self._exception = exception
        self._state = _TRIGGERED
        return self

    def _process(self) -> None:
        """Run callbacks. Called by the engine when the clock reaches us."""
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        if (
            not callbacks
            and self._exception is not None
            and isinstance(self, Process)
        ):
            # A process died and nobody was waiting on it: re-raise here
            # rather than letting the error vanish. (Waited-on failures
            # are delivered to the waiter instead.)
            raise self._exception
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: Engine, delay: float, value: Any = None):
        super().__init__(engine)
        self.delay = delay
        self.value = value
        self._state = _TRIGGERED
        engine._schedule(self, delay)


class AllOf(Event):
    """Triggers once every child event has been processed.

    The value is a list of child values in the order given.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, engine: Engine, events: list[Event]):
        super().__init__(engine)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            if event._state == _PROCESSED:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if event._exception is not None:
            self.fail(event._exception)  # propagate the first failure
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self._events])


class Process(Event):
    """A running generator; also an event that triggers on return.

    The generator must yield :class:`Event` instances. The process resumes
    when each yielded event is processed, receiving ``event.value`` as the
    result of the ``yield`` expression. When the generator returns, the
    process event succeeds with the generator's return value.
    """

    __slots__ = ("generator", "name")

    def __init__(self, engine: Engine, generator: Generator, name: str | None = None):
        # Every slot set here: a process per request makes a helper chain dear.
        self.engine = engine
        self.callbacks = []
        self.value = None
        self._state = _PENDING
        self._exception = None
        self._pool = None
        self.generator = generator
        self.name = name
        # Bootstrap: resume on an immediately-triggered event. The event is
        # engine-internal (no reference escapes), so it comes from a pool.
        start = engine._acquire_event()
        start.callbacks.append(self._resume)
        start._state = _TRIGGERED
        engine._fifo.append((engine.now, next(engine._sequence), start))

    def _resume(self, event: Event) -> None:
        while True:
            try:
                if event._exception is not None:
                    target = self.generator.throw(event._exception)
                else:
                    target = self.generator.send(event.value)
            except StopIteration as stop:
                if self._state == _PENDING:
                    self.succeed(stop.value)
                return
            except BaseException as exc:
                # Any other exception fails the process; waiters receive
                # it at their own yield (and run(until=...) re-raises it),
                # so errors surface where they can be handled instead of
                # tearing down the whole event loop.
                if self._state == _PENDING:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                name = self.name or getattr(self.generator, "__name__", "process")
                raise SimulationError(
                    f"process {name!r} yielded {target!r}; processes must "
                    "yield Event instances"
                )
            if target._state == _PROCESSED:
                # Already done -- loop and resume immediately with its value.
                event = target
                continue
            target.callbacks.append(self._resume)
            return


class Engine:
    """The simulation event loop.

    Maintains the clock (:attr:`now`, microseconds), a priority queue of
    triggered events and a fifo of zero-delay ones. :meth:`run` processes
    events in ``(time, seq)`` order across both until they are empty or
    ``until`` is reached.
    """

    #: Upper bound on each recycling pool; beyond this, events are simply
    #: dropped to the garbage collector.
    _POOL_LIMIT = 4096

    def __init__(self):
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Event]] = []
        # Same-time fast lane: events scheduled with zero delay. Entries
        # carry (time, seq) like heap entries and are appended at the
        # current clock with increasing sequence numbers, so the head is
        # always the lane's minimum and a single head-to-head comparison
        # with the heap top recovers global (time, seq) order without
        # paying O(log n) per zero-delay event.
        self._fifo: deque[tuple[float, int, Event]] = deque()
        self._sequence = itertools.count()
        self._processed_count = 0
        self._event_pool: list[Event] = []
        self._timeout_pool: list[Timeout] = []

    @property
    def processed_events(self) -> int:
        """Number of events processed so far (observability/debugging)."""
        return self._processed_count

    def _schedule(self, event: Event, delay: float) -> None:
        if delay == 0.0:
            self._fifo.append((self.now, next(self._sequence), event))
        elif delay > 0.0:
            heapq.heappush(self._queue, (self.now + delay, next(self._sequence), event))
        else:
            # Negative or NaN: either would put an entry behind the clock.
            raise SimulationError(f"delay must be a non-negative number, got {delay!r}")

    def _acquire_event(self) -> Event:
        """A pending pool-managed :class:`Event` (engine-internal use)."""
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.value = None
            event._exception = None
            event._state = _PENDING
            return event
        event = Event(self)
        event._pool = pool
        return event

    # -- Public factory helpers ------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def sleep(self, delay: float, value: Any = None) -> Timeout:
        """A pooled :class:`Timeout` for fire-and-forget waits.

        Identical in behavior to ``Timeout(engine, delay, value)``, but the
        event object is recycled once processed. Use only for timeouts
        yielded inline and never referenced afterwards (the hot pattern in
        service models); holding one past its firing reads recycled state.
        """
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.delay = delay
            timeout.value = value
            timeout._exception = None
            timeout._state = _TRIGGERED
            if delay > 0.0:
                heapq.heappush(self._queue, (self.now + delay, next(self._sequence), timeout))
            else:
                self._schedule(timeout, delay)
            return timeout
        timeout = Timeout(self, delay, value)
        timeout._pool = pool
        return timeout

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def inline(self, generator: Generator) -> Generator:
        """Run ``generator`` inside the calling process, on the timeline
        that ``yield self.process(generator)`` would give it.

        Use as ``value = yield from engine.inline(body)``. A child process
        is processed twice, at its bootstrap and at its completion; this
        yields a pooled event at each of those two points instead. Each
        draws its sequence number where the child's would have, so every
        event is processed at the same ``(time, seq)`` and
        ``processed_events`` is unchanged, with no :class:`Process` built.
        A failure inside ``body`` reaches the caller at the completion
        point, as a failed child's does.
        """
        start = self._acquire_event()
        start._state = _TRIGGERED
        self._fifo.append((self.now, next(self._sequence), start))
        yield start
        try:
            value = yield from generator
        except GeneratorExit:
            raise  # the caller is being closed: nothing is waiting
        except BaseException as exc:
            done = self._acquire_event().fail(exc)
        else:
            done = self._acquire_event()
            done.value = value
            done._state = _TRIGGERED
            self._fifo.append((self.now, next(self._sequence), done))
        return (yield done)

    def all_of(self, events: list[Event]) -> AllOf:
        return AllOf(self, events)

    # -- Execution --------------------------------------------------------

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue drains, ``until`` time passes, or event fires.

        If ``until`` is an :class:`Event`, returns its value (raising its
        exception if it failed). If it is a number, the clock is advanced
        exactly to it. Failed process events with no waiters raise here, so
        errors never pass silently.
        """
        stop = until if isinstance(until, Event) else None
        horizon = float("inf")
        if stop is None and until is not None:
            horizon = float(until)
            if not horizon >= self.now:  # also refuses NaN
                raise SimulationError(f"cannot run until {horizon}; now is {self.now}")
        # The next event is the fifo head unless the heap's is earlier.
        fifo = self._fifo
        queue = self._queue
        heappop = heapq.heappop
        limit = self._POOL_LIMIT
        while stop is None or stop._state != _PROCESSED:
            if fifo and not (queue and queue[0] < fifo[0]):
                source = fifo
            elif queue:
                source = queue
            else:
                source = None
            if source is None:
                if stop is not None:
                    raise SimulationError("event queue drained before `until` event triggered")
                break
            when, _seq, event = source[0]
            if when > horizon:
                break
            if source is fifo:
                fifo.popleft()
            else:
                heappop(queue)
            self.now = when
            self._processed_count += 1
            event._process()
            pool = event._pool
            if pool is not None and len(pool) < limit:
                pool.append(event)
        if stop is not None:
            if stop._exception is not None:
                raise stop._exception
            return stop.value
        if horizon != float("inf"):
            self.now = horizon
        return None


__all__ = [
    "AllOf",
    "Engine",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
]
