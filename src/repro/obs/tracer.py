"""The trace bus: near-zero overhead when nobody is listening.

A :class:`Tracer` is a synchronous fan-out point: layers ``publish()``
typed events (:mod:`repro.obs.events`) and attached sinks receive them in
attachment order. One tracer is shared by every layer of a device stack
(NAND array, service model, FTL, translation layers, timed facades), so a
single sink attached at any point observes the whole stack.

The hot-path contract: publishers guard event *construction* with
``tracer.enabled``::

    if tracer.enabled:
        tracer.publish(FlashOpEvent(...))

``enabled`` is a plain attribute maintained by attach/detach, so a tracer
with no sinks costs one attribute load per potential event -- nothing is
allocated and nothing is called.

``enabled`` is True only because an observer asked: ``--trace`` /
``--metrics-out`` (:mod:`repro.obs.runtime`), the perf ledger's traced
pass, a test's sink. No device and no rack attaches one for its own
bookkeeping (the NAND's ``counters``, the timed devices' latency frames and the
fleet's frame are fields), so a run without those builds no event at all
(``tests/obs/test_tracer.py::TestUnobservedBusIsFree``).
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class Sink(Protocol):
    """Anything that consumes trace events."""

    def on_event(self, event: Any) -> None:
        """Receive one published event. Must not mutate it."""
        ...


class Tracer:
    """Synchronous event bus with sink fan-out in attachment order."""

    __slots__ = ("enabled", "_sinks", "_handlers")

    def __init__(self) -> None:
        self.enabled = False
        self._sinks: list[Sink] = []
        self._handlers: list = []  # pre-bound on_event methods, hot path

    @property
    def sinks(self) -> tuple[Sink, ...]:
        return tuple(self._sinks)

    def attach(self, sink: Sink) -> Sink:
        """Attach ``sink``; returns it for chaining."""
        self._sinks.append(sink)
        self._handlers.append(sink.on_event)
        self.enabled = True
        return sink

    def detach(self, sink: Sink) -> None:
        """Detach ``sink`` if attached; silently ignores strangers."""
        try:
            index = self._sinks.index(sink)
        except ValueError:
            return
        del self._sinks[index]
        del self._handlers[index]
        self.enabled = bool(self._sinks)

    def publish(self, event: Any) -> None:
        """Deliver ``event`` to every sink, in attachment order."""
        for handler in self._handlers:
            handler(event)


__all__ = ["Sink", "Tracer"]
