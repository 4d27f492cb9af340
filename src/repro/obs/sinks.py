"""Sinks: consumers of the trace stream.

Nothing in the device stack attaches one of these by itself: the devices
keep their own :class:`~repro.metrics.counters.OpCounter` and
:class:`~repro.metrics.latency.LatencyRecorder` as plain fields, updated
whether or not anyone listens. A sink is what an *observer* attaches:

- :class:`RecordingSink` -- keep every event (tests, ad-hoc analysis);
- :class:`OpCounterSink` / :class:`LatencySink` -- rebuild a device's
  ``counters`` / ``*_latency`` from the stream alone (a replayed JSONL
  trace, a cross-check that the fields and the events agree);
- :class:`LatencyBreakdownSink` -- per-phase latency attribution
  (host queueing vs device service) from the host-request lifecycle,
  plus per-layer flash-op tallies. This is the aggregator behind the
  CLI's ``--metrics-out``.
"""

from __future__ import annotations

from typing import Any

from repro.metrics.counters import OpCounter
from repro.metrics.latency import LatencyRecorder
from repro.obs.events import FaultEvent, FlashOpEvent, HostRequestEvent, RecoveryEvent


class RecordingSink:
    """Keeps every event in ``events``, optionally filtered by layer."""

    def __init__(self, layer: str | None = None):
        self.layer = layer
        self.events: list[Any] = []

    def on_event(self, event: Any) -> None:
        if self.layer is None or event.layer == self.layer:
            self.events.append(event)

    def of_kind(self, kind: str) -> list[Any]:
        return [event for event in self.events if event.kind == kind]

    def clear(self) -> None:
        self.events.clear()


class OpCounterSink:
    """Rebuilds one layer's :class:`OpCounter` from its flash-op events
    (each carries the ``count`` and ``nbytes`` the device booked for it).

    Parameters
    ----------
    layer:
        Only :class:`FlashOpEvent` with this exact layer tag are counted.
    copy_programs:
        If True (the physical-NAND convention), a copy also counts its
        bytes as programmed flash bytes (``bytes_written``); command-level
        layers (ZNS simple copy) count copies alone.
    """

    def __init__(self, layer: str, copy_programs: bool = False):
        self.layer = layer
        self.copy_programs = copy_programs
        self.counter = OpCounter()

    def on_event(self, event: Any) -> None:
        if event.__class__ is not FlashOpEvent or event.layer != self.layer:
            return
        counter = self.counter
        op = event.op
        if op == "program":
            counter.note_write(event.nbytes, event.count)
        elif op == "read":
            counter.note_read(event.nbytes, event.count)
        elif op == "erase":
            counter.note_erase(event.count)
        elif op == "copy":
            counter.note_copy(event.nbytes, event.count, self.copy_programs)
        else:
            raise ValueError(f"unknown flash op {op!r}")


class LatencySink:
    """Rebuilds a :class:`LatencyRecorder` from host-request completions.

    Filters on (layer, op): ``LatencySink("hostio.request", "read")``
    collects exactly what a timed device's own ``read_latency`` field
    records -- the same latencies, at the same completion points.
    """

    def __init__(
        self,
        layer: str = "hostio.request",
        op: str = "read",
        recorder: LatencyRecorder | None = None,
    ):
        self.layer = layer
        self.op = op
        self.recorder = recorder or LatencyRecorder()

    def on_event(self, event: Any) -> None:
        if (
            event.__class__ is HostRequestEvent
            and event.phase == "complete"
            and event.op == self.op
            and event.layer == self.layer
        ):
            self.recorder.record(event.latency_us)


class _PhaseStats:
    """Streaming aggregate for one (op, phase) latency series."""

    __slots__ = ("count", "total", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def summary(self) -> dict[str, float]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "mean_us": round(mean, 3),
            "max_us": round(self.max, 3),
        }


class LatencyBreakdownSink:
    """Per-phase latency attribution plus per-layer flash-op tallies.

    From the host-request lifecycle (enqueue -> service-start -> complete)
    it attributes each request's latency to *host queueing* (time between
    enqueue and service start: write stalls on free space, zone-lock
    waits) and *device service* (everything after), the split the paper's
    §2.4 tail-latency discussion turns on. Flash-op events are tallied per
    layer and op so a run's physical work (and write amplification) can
    be read off the same stream.
    """

    def __init__(self, layer: str = "hostio.request"):
        self.layer = layer
        self.reset()

    def reset(self) -> None:
        self._open: dict[tuple[str, int], tuple[float, float]] = {}
        self._phases: dict[str, dict[str, _PhaseStats]] = {}
        self._flash_ops: dict[str, dict[str, int]] = {}
        self._flash_bytes: dict[str, int] = {}
        self._faults: dict[str, int] = {}
        self._recoveries: dict[str, int] = {}

    def on_event(self, event: Any) -> None:
        cls = event.__class__
        if cls is FlashOpEvent:
            per_layer = self._flash_ops.setdefault(event.layer, {})
            per_layer[event.op] = per_layer.get(event.op, 0) + event.count
            self._flash_bytes[event.layer] = (
                self._flash_bytes.get(event.layer, 0) + event.nbytes
            )
            return
        if cls is FaultEvent:
            self._faults[event.fault] = self._faults.get(event.fault, 0) + 1
            return
        if cls is RecoveryEvent:
            key = f"{event.layer}:{event.action}"
            self._recoveries[key] = self._recoveries.get(key, 0) + 1
            return
        if cls is not HostRequestEvent or event.layer != self.layer:
            return
        key = (event.op, event.request_id)
        if event.phase == "enqueue":
            if event.t is not None:
                self._open[key] = (event.t, event.t)
        elif event.phase == "service-start":
            entry = self._open.get(key)
            if entry is not None and event.t is not None:
                self._open[key] = (entry[0], event.t)
        elif event.phase == "complete":
            entry = self._open.pop(key, None)
            stats = self._phases.setdefault(
                event.op,
                {"total": _PhaseStats(), "queued": _PhaseStats(), "service": _PhaseStats()},
            )
            stats["total"].add(event.latency_us)
            if entry is not None and event.t is not None:
                enqueued_at, service_at = entry
                queued = service_at - enqueued_at
                stats["queued"].add(queued)
                stats["service"].add(event.latency_us - queued)

    def summary(self) -> dict[str, Any]:
        """JSON-safe aggregate; empty dict when nothing was observed."""
        payload: dict[str, Any] = {}
        if self._phases:
            payload["host_requests"] = {
                op: {phase: stats.summary() for phase, stats in phases.items()}
                for op, phases in sorted(self._phases.items())
            }
        if self._flash_ops:
            payload["flash_ops"] = {
                layer: dict(sorted(ops.items()))
                for layer, ops in sorted(self._flash_ops.items())
            }
            payload["flash_bytes"] = dict(sorted(self._flash_bytes.items()))
        if self._faults:
            payload["faults"] = dict(sorted(self._faults.items()))
        if self._recoveries:
            payload["recoveries"] = dict(sorted(self._recoveries.items()))
        return payload


__all__ = [
    "LatencyBreakdownSink",
    "LatencySink",
    "OpCounterSink",
    "RecordingSink",
]
