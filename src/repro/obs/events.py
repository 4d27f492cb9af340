"""Typed trace events: the vocabulary of the telemetry bus.

Every layer of the device stack publishes these through a
:class:`~repro.obs.tracer.Tracer`; sinks (:mod:`repro.obs.sinks`) consume
them. Each event type answers one of the paper's "where did the time/bytes
go" questions:

- :class:`FlashOpEvent` -- one physical (or command-level) flash
  operation: program/read/erase/copy, with bytes moved and, for timed
  runs, queueing vs service time on planes/channels (§2.4 interference).
- :class:`GcEvent` -- FTL garbage-collection activity: victim selection,
  completed collection passes, watermark crossings, foreground stalls,
  and wear-leveling passes (§2.2 write amplification).
- :class:`ZoneTransitionEvent` -- ZNS zone lifecycle changes
  (open/close/finish/full/reset) with the trigger that caused them.
- :class:`ZoneAppendEvent` -- a zone-append command and the offset the
  device assigned (§4.2).
- :class:`ReclaimEvent` -- host-side reclaim decisions: victim staging,
  bounded copy quanta, zone resets, and scheduler grant/defer verdicts
  (§4.1).
- :class:`HostRequestEvent` -- the host request lifecycle
  (enqueue / service-start / complete) enabling per-phase latency
  attribution: how much of a request's latency was host-side queueing vs
  device service.

Events are mutable slotted dataclasses (construction speed matters on the
hot path); treat them as immutable once published. ``t`` is simulation
time in microseconds, or ``None`` for untimed (counting) runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar

#: Why a flash op happened: the closed set every ``cause`` is drawn from,
#: wiscsee's tags (``data.user``, ``data.cleaning``, ``trans.cache``, ...)
#: spread over this stack's layers. DESIGN.md §2 names the call site
#: behind each one.
CAUSES: tuple[str, ...] = (
    "host",
    "gc",
    "wear-level",
    "translation-fetch",
    "translation-writeback",
    "translation-gc",
    "zone-mgmt",
    "reclaim",
    "recovery",
)


@dataclass(slots=True)
class FlashOpEvent:
    """One flash operation as seen by ``layer``.

    ``layer`` distinguishes the physical view (``flash.nand``: one event
    per page/block operation) from command-level views (``zns.device``,
    ``block.dmzoned``: one event per command, ``count`` operations).
    ``queued_us`` is only nonzero for ``flash.service`` events, where it
    is the wait for the first plane/channel grant. ``cause`` is one of
    :data:`CAUSES`, the one the op was booked under; ``flash.service``
    events carry ``""`` (untagged).
    """

    kind: ClassVar[str] = "flash-op"

    layer: str
    op: str  # "read" | "program" | "erase" | "copy"
    block: int | None = None
    page: int | None = None
    nbytes: int = 0
    count: int = 1
    latency_us: float = 0.0
    queued_us: float = 0.0
    t: float | None = None
    cause: str = ""


@dataclass(slots=True)
class GcEvent:
    """Device-FTL garbage collection activity (layer ``ftl.gc``)."""

    kind: ClassVar[str] = "gc"

    layer: str
    action: str  # "victim-selected" | "collected" | "watermark-low" |
    #              "watermark-recovered" | "stall" | "wear-level" | "zone-reset"
    victim: int | None = None
    valid_pages: int = 0
    pages_copied: int = 0
    free_blocks: int = 0
    t: float | None = None


@dataclass(slots=True)
class ZoneTransitionEvent:
    """A ZNS zone changed state (layer ``zns.device``)."""

    kind: ClassVar[str] = "zone-transition"

    layer: str
    zone: int
    old_state: str
    new_state: str
    trigger: str  # "open" | "implicit-open" | "close" | "implicit-close" |
    #               "finish" | "write-full" | "reset"
    wp: int = 0
    t: float | None = None


@dataclass(slots=True)
class ZoneAppendEvent:
    """A zone-append command and its device-assigned offset."""

    kind: ClassVar[str] = "zone-append"

    layer: str
    zone: int
    offset: int
    npages: int = 1
    t: float | None = None


@dataclass(slots=True)
class ZoneMgmtEvent:
    """One zone-management command with its hidden cost (layer ``zns.device``).

    Published only by devices with a :class:`~repro.flash.timing.ZoneMgmtTiming`
    attached (management cost modeling opted in): ``action`` is the
    command (``reset`` / ``finish`` / ``open`` / ``close``),
    ``latency_us`` the management overhead it charged (untimed runs
    report the command overhead alone -- erase time stays on the
    flash-op stream; timed runs report the full zone-hold span), and
    ``queued_behind`` how many requests were waiting on the zone's
    management gate when the command released it (timed runs only; the
    §2.4-style interference, but caused by management instead of GC).
    """

    kind: ClassVar[str] = "zone-mgmt"

    layer: str
    action: str  # "reset" | "finish" | "open" | "close"
    zone: int
    latency_us: float = 0.0
    queued_behind: int = 0
    t: float | None = None


@dataclass(slots=True)
class ReclaimEvent:
    """Host-side reclaim decision (layers ``block.dmzoned``, ``hostio.scheduler``)."""

    kind: ClassVar[str] = "reclaim"

    layer: str
    action: str  # "victim-selected" | "step" | "zone-reset" | "granted" | "deferred"
    zone: int | None = None
    copies: int = 0
    free_zones: int = 0
    t: float | None = None


@dataclass(slots=True)
class HostRequestEvent:
    """One phase of a host request's lifecycle (layer ``hostio.request``).

    Three phases per request, tied together by ``request_id``:
    ``enqueue`` (submitted), ``service-start`` (host-side stalls over,
    flash work begins), ``complete`` (``latency_us`` is end-to-end).
    """

    kind: ClassVar[str] = "host-request"

    layer: str
    op: str  # "read" | "write" | "append"
    phase: str  # "enqueue" | "service-start" | "complete"
    request_id: int = 0
    latency_us: float = 0.0
    nbytes: int = 0
    t: float | None = None


@dataclass(slots=True)
class FaultEvent:
    """An injected fault fired (layer ``faults.injector``).

    ``fault`` names what went wrong: ``program-fail`` (page burned),
    ``erase-fail`` / ``grown-bad-block`` (block retired at erase),
    ``read-error`` (ECC retry ladder walked, ``retries`` rungs,
    ``latency_us`` extra sense time), ``read-uncorrectable`` (ladder
    exhausted), ``latency-spike``, ``zone-offline``, ``reset-fail`` /
    ``finish-timeout`` / ``stuck-open`` (zone-management commands bounced
    with retryable errors). ``op_index`` is the
    injector's global flash-op counter when the fault fired, which makes
    seeded schedules reproducible and comparable across runs.
    """

    kind: ClassVar[str] = "fault"

    layer: str
    fault: str
    block: int | None = None
    page: int | None = None
    zone: int | None = None
    retries: int = 0
    latency_us: float = 0.0
    op_index: int = 0
    t: float | None = None


@dataclass(slots=True)
class RecoveryEvent:
    """A recovery action taken in response to a fault.

    Published by the layer that recovered (``ftl.ftl``, ``zns.device``,
    ``zns.ftl``): ``page-rewrite`` (program fault absorbed by rewriting
    elsewhere), ``block-retired`` (valid data relocated, block removed
    from circulation), ``zone-read-only``, ``zone-offline``,
    ``spare-substituted``, ``capacity-shrunk``, ``crash-recovered``
    (mapping rebuilt from checkpoint + out-of-band replay,
    ``pages_moved`` = pages replayed).
    """

    kind: ClassVar[str] = "recovery"

    layer: str
    action: str
    block: int | None = None
    zone: int | None = None
    pages_moved: int = 0
    detail: str = ""
    t: float | None = None


@dataclass(slots=True)
class TranslationEvent:
    """DFTL translation-page traffic (layer ``ftl.dftl``).

    The demand-paged FTL's mapping lives on flash, so mapping activity
    costs real ops: ``miss-fetch`` (CMT miss read a translation page),
    ``writeback`` (dirty CMT eviction programmed one), ``gc``
    (translation-block GC copied ``pages`` forward), ``flush``
    (checkpoint wrote back ``pages`` dirty entries).
    """

    kind: ClassVar[str] = "translation"

    layer: str
    action: str  # "miss-fetch" | "writeback" | "gc" | "flush"
    tvpn: int | None = None
    block: int | None = None
    pages: int = 1
    t: float | None = None


#: Every concrete event type, for (de)serialization and docs.
EVENT_TYPES: tuple[type, ...] = (
    FlashOpEvent,
    GcEvent,
    ZoneTransitionEvent,
    ZoneAppendEvent,
    ZoneMgmtEvent,
    ReclaimEvent,
    HostRequestEvent,
    FaultEvent,
    RecoveryEvent,
    TranslationEvent,
)

_KIND_TO_TYPE: dict[str, type] = {cls.kind: cls for cls in EVENT_TYPES}


def event_to_dict(event: Any) -> dict[str, Any]:
    """A JSON-safe dict for ``event``; inverse of :func:`event_from_dict`."""
    payload: dict[str, Any] = {"event": event.kind}
    for spec in fields(event):
        value = getattr(event, spec.name)
        if hasattr(value, "tolist"):  # numpy scalar or array payloads
            value = value.tolist()
        payload[spec.name] = value
    return payload


def event_from_dict(payload: dict[str, Any]) -> Any:
    """Rebuild a typed event from :func:`event_to_dict` output."""
    data = dict(payload)
    kind = data.pop("event", None)
    cls = _KIND_TO_TYPE.get(kind)
    if cls is None:
        raise ValueError(f"unknown event kind {kind!r}")
    return cls(**data)


__all__ = [
    "CAUSES",
    "EVENT_TYPES",
    "FaultEvent",
    "FlashOpEvent",
    "GcEvent",
    "HostRequestEvent",
    "ReclaimEvent",
    "RecoveryEvent",
    "TranslationEvent",
    "ZoneAppendEvent",
    "ZoneMgmtEvent",
    "ZoneTransitionEvent",
    "event_from_dict",
    "event_to_dict",
]
