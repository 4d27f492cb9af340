"""repro.obs: the unified telemetry bus for the device stack.

One event stream makes visible what the devices' own instruments cannot
show -- the order of things, and the GC/reclaim/scheduler/zone decisions
behind the numbers. The instruments themselves are fields the devices
update directly: the NAND's :class:`~repro.obs.frame.OpCounter`, which
counts each flash op once under its cause
(:data:`~repro.obs.events.CAUSES`), and a
:class:`~repro.obs.frame.MetricsFrame` per timed device whose series hold
the exact request latencies. The bus is for observers, and costs nothing
until one attaches:

- :mod:`repro.obs.frame` -- the one aggregation type
  (:class:`~repro.obs.frame.MetricsFrame`, its typed counter slice
  :class:`~repro.obs.frame.OpCounter`) and the one aggregating sink
  (:class:`~repro.obs.frame.FrameSink`);
- :mod:`repro.obs.events` -- the typed event vocabulary, and the closed
  set of flash-op causes;
- :mod:`repro.obs.tracer` -- the publish/fan-out bus (no-op when no
  sinks are attached, and nothing attaches one unasked);
- :mod:`repro.obs.sinks` -- :class:`~repro.obs.sinks.RecordingSink`,
  which keeps every event;
- :mod:`repro.obs.jsonl` -- JSONL trace export and multi-process merge;
- :mod:`repro.obs.runtime` -- process-wide sink installation, including
  the ``ZNS_REPRO_TRACE`` / ``ZNS_REPRO_METRICS`` environment activation
  behind the CLI's ``--trace`` and ``--metrics-out``.

Quick taste::

    from repro.obs import RecordingSink
    from repro.zns.device import ZNSDevice

    device = ZNSDevice()
    log = device.tracer.attach(RecordingSink())
    device.write(0, npages=4)
    device.reset_zone(0)
    [e.kind for e in log.events]
    # ['zone-transition', 'flash-op', ..., 'zone-transition', 'flash-op']
"""

from repro.obs.events import (
    EVENT_TYPES,
    FlashOpEvent,
    GcEvent,
    HostRequestEvent,
    ReclaimEvent,
    ZoneAppendEvent,
    ZoneTransitionEvent,
    event_from_dict,
    event_to_dict,
)
from repro.obs.frame import (
    FrameSink,
    MetricsFrame,
    OpCounter,
    normalize_metric_key,
)
from repro.obs.jsonl import JsonlSink, merge_trace_parts, read_events
from repro.obs.runtime import (
    install_global_sink,
    new_tracer,
    remove_global_sink,
)
from repro.obs.sinks import RecordingSink
from repro.obs.tracer import Sink, Tracer

__all__ = [
    "EVENT_TYPES",
    "FlashOpEvent",
    "FrameSink",
    "GcEvent",
    "HostRequestEvent",
    "JsonlSink",
    "MetricsFrame",
    "OpCounter",
    "ReclaimEvent",
    "RecordingSink",
    "Sink",
    "Tracer",
    "ZoneAppendEvent",
    "ZoneTransitionEvent",
    "event_from_dict",
    "event_to_dict",
    "install_global_sink",
    "merge_trace_parts",
    "new_tracer",
    "normalize_metric_key",
    "read_events",
    "remove_global_sink",
]
