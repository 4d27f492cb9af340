"""Sinks: consumers of the trace stream.

Nothing in the device stack attaches one of these by itself: the NAND
keeps its :class:`~repro.obs.frame.OpCounter` and the timed devices their
:class:`~repro.obs.frame.MetricsFrame` as plain fields, updated whether
or not anyone listens. A sink is what an *observer* attaches:

- :class:`RecordingSink` -- keep every event (tests, ad-hoc analysis);
- :class:`~repro.obs.frame.FrameSink` -- fold the stream into a
  :class:`~repro.obs.frame.MetricsFrame` (the aggregator behind the
  CLI's ``--metrics-out``, and the cross-check that the devices' fields
  and the events agree);
- :class:`~repro.obs.jsonl.JsonlSink` -- write the stream to a file.
"""

from __future__ import annotations

from typing import Any


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


__all__ = ["RecordingSink"]
