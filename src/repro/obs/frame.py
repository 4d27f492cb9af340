"""The one aggregation type: ``MetricsFrame``, its ``OpCounter`` slice, ``FrameSink``.

Everything the simulator counts or samples lives in a frame (or, for
the NAND's per-op counts, in the frame's typed slice :class:`OpCounter`,
which counts each flash op once, under the cause its issuer named --
``flash.nand.<op>.<cause>`` in a frame). Sharded runs (the fleet layer, pooled sweeps)
produce per-shard telemetry that the parent must combine, so the merge
is defined field by field:

- **counters** are integers merged by sum (exact and order-free);
- **maxima** are floats merged by ``max`` (order-free);
- **series** are exact samples in arrival order (each an
  ``array("d")``), merged by concatenation in the order given.

So ``merge(merge(a, b), c) == merge(a, merge(b, c))`` byte-for-byte,
but the merge is not commutative: swapping two frames reorders their
series. Callers merge in a fixed order -- slot order in
:mod:`repro.exec`, device order within a fleet shard -- so every result
is deterministic. A quantile or a sample count depends only on the
multiset of samples, so a fleet's summary is the same for any shard
count even though its series' order is not; a :meth:`MetricsFrame.mean`
is a left-to-right sum and does depend on order.

The timed devices book each host request's latency into a series
(``hostio.request.<op>.latency_us``) and the fleet books each request's
(``fleet.request.<op>.latency_us``); the percentiles and means the
experiments report are read off those exact samples.

Metric keys are normalized to dotted lower-snake form
(:func:`normalize_metric_key`), ending the drift between ``p99_read_us``
/ ``Read P99 (µs)`` spellings across modules. :class:`FrameSink` is what
an observer attaches to fold the telemetry bus (:mod:`repro.obs.events`)
into a frame.
"""

from __future__ import annotations

import copy
import re
from array import array
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from repro.obs.events import CAUSES

#: Version of the frame's dict schema. Bump when the layout changes
#: (version 1 also held binned latency histograms).
FRAME_VERSION = 2

_KEY_JUNK = re.compile(r"[^a-z0-9.]+")


@lru_cache(maxsize=4096)
def normalize_metric_key(name: str) -> str:
    """Canonical dotted lower-snake spelling of a metric name.

    ``"Read P99 (µs)"`` -> ``"read_p99_us"``; ``"flash.nand. Program-Ops"``
    -> ``"flash.nand.program_ops"``. Idempotent. Cached: a simulation
    emits millions of events over a vocabulary of a few dozen keys, and
    the two regex passes were a top-three profile entry in the fleet
    serving loop.
    """
    key = name.strip().lower().replace("µ", "u").replace("μ", "u")
    key = _KEY_JUNK.sub("_", key)
    key = re.sub(r"_*\._*", ".", key)  # no underscores hugging a dot
    return key.strip("._")


def _no_ops() -> dict[str, dict[str, int]]:
    return {op: dict.fromkeys(CAUSES, 0) for op in ("read", "program", "erase", "copy")}


@dataclass
class OpCounter:
    """One layer's operation counts, per cause: the frame's typed counter slice.

    The NAND is the one layer that keeps one (``NandArray.counters``; the
    RAM disk, which has no NAND, keeps its own): it books every flash op
    once, under the cause its caller named (:data:`~repro.obs.events.CAUSES`;
    any other raises ``KeyError``), through :meth:`note` -- ``count``
    pages (blocks, for an erase) moved by one command. The layers above
    show through their flash-op events instead. ``ops[op][cause]`` is the
    only op count -- a total is the sum :meth:`count` takes -- and each
    entry is the value a :class:`FrameSink` reaches from the same layer's
    events: ``<layer>.<op>.<cause>``, for ``op`` one of read, program,
    erase, copy; ``count(op)``: ``<layer>.<op>.ops``. Bytes are ops times
    the page size.
    """

    ops: dict[str, dict[str, int]] = field(default_factory=_no_ops)

    def note(self, op: str, cause: str, count: int = 1) -> None:
        self.ops[op][cause] += count

    def count(self, op: str, *causes: str) -> int:
        """``op``s booked under ``causes``, or under any cause when none is named."""
        by_cause = self.ops[op]
        return sum(by_cause[cause] for cause in causes) if causes else sum(by_cause.values())

    def snapshot(self) -> "OpCounter":
        """A copy that later bookings leave alone (for :meth:`write_amplification`)."""
        return copy.deepcopy(self)

    def programmed_pages(self) -> int:
        """Pages written to flash whatever their cause: programs plus
        copies (an on-die copy programs its destination page)."""
        return self.count("program") + self.count("copy")

    def write_amplification(
        self, since: "OpCounter | None" = None, metadata_pages: int = 0
    ) -> float:
        """Device write amplification: pages programmed per ``host`` program.

        The one formula every experiment reports. The numerator is
        :meth:`programmed_pages` -- GC, wear leveling, translation
        traffic, relocation, padding and host programs alike -- plus
        ``metadata_pages`` a caller models off the flash (a checkpoint
        policy's). ``since``, an earlier :meth:`snapshot`, limits both
        sides to the ops booked after it. 1.0 when there is no host
        program to divide by.
        """
        flash = self.programmed_pages() + metadata_pages
        host = self.count("program", "host")
        if since is not None:
            flash -= since.programmed_pages()
            host -= since.count("program", "host")
        return flash / host if host else 1.0


@dataclass
class MetricsFrame:
    """A mergeable bundle of counters, maxima and exact sample series.

    Combining goes through :meth:`merge`, which returns a new frame; see
    the module docstring for the merge algebra.
    """

    counters: dict[str, int] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)
    series: dict[str, array] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.counters = {
            normalize_metric_key(k): int(v) for k, v in self.counters.items()
        }
        self.maxima = {
            normalize_metric_key(k): float(v) for k, v in self.maxima.items()
        }
        self.series = {
            normalize_metric_key(k): array("d", values)
            for k, values in self.series.items()
        }

    # -- Reading ---------------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(normalize_metric_key(name), default)

    def maximum(self, name: str, default: float = 0.0) -> float:
        return self.maxima.get(normalize_metric_key(name), default)

    def observations(self, name: str) -> int:
        """How many samples a series holds (0 when absent)."""
        return len(self.series.get(normalize_metric_key(name), ()))

    def mean(self, name: str) -> float:
        """Mean of a series (0.0 when absent or empty).

        The sum runs left to right in arrival order, one addition per
        sample: neither ``sum()`` (compensated from Python 3.12 on) nor
        ``np.mean`` (pairwise) rounds the same way, and experiments
        report this mean unrounded.
        """
        values = self.series.get(normalize_metric_key(name))
        if not values:
            return 0.0
        total = 0.0
        for value in values:
            total += value
        return total / len(values)

    def quantile(self, name: str, q: float) -> float:
        """The ``q``-quantile of a series (0.0 when absent or empty).

        Exactly ``np.percentile(series, q * 100)``: ``np.quantile(series,
        q)`` rounds differently, and experiments report series quantiles
        unrounded.
        """
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        values = self.series.get(normalize_metric_key(name))
        return float(np.percentile(values, q * 100)) if values else 0.0

    # -- Building --------------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        key = normalize_metric_key(name)
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def peak(self, name: str, value: float) -> None:
        key = normalize_metric_key(name)
        value = float(value)
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def sample(self, name: str, value: float) -> None:
        """Append one exact sample (e.g. a request latency, us) to a series."""
        if value < 0:
            raise ValueError(f"negative sample for {name!r}: {value}")
        key = normalize_metric_key(name)
        values = self.series.get(key)
        if values is None:
            values = self.series[key] = array("d")
        values.append(value)

    def extend(self, name: str, values: list[float]) -> None:
        """Append samples to a series in order, as a :meth:`sample` loop
        would, but all or nothing: a negative sample raises before any is
        booked. An empty list creates no series."""
        if not values:
            return
        if not min(values) >= 0:  # a negative, or a leading NaN min() cannot order
            for value in values:
                if value < 0:
                    raise ValueError(f"negative sample for {name!r}: {value}")
        key = normalize_metric_key(name)
        series = self.series.get(key)
        if series is None:
            self.series[key] = array("d", values)
        else:
            series.extend(values)

    # -- Merging ---------------------------------------------------------------

    @classmethod
    def merge(cls, frames: Iterable["MetricsFrame"]) -> "MetricsFrame":
        """Combine any number of frames, in order (associative; series
        concatenate in the order given). No input is mutated."""
        out = cls()
        counters, maxima, series = out.counters, out.maxima, out.series
        for frame in frames:
            for key, value in frame.counters.items():
                counters[key] = counters.get(key, 0) + value
            for key, value in frame.maxima.items():
                if key not in maxima or value > maxima[key]:
                    maxima[key] = value
            for key, values in frame.series.items():
                mine = series.get(key)
                if mine is None:
                    series[key] = array("d", values)
                else:
                    mine.extend(values)
        return out

    # -- Serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict, keys sorted; each series a list in arrival order."""
        return {
            "schema_version": FRAME_VERSION,
            "counters": dict(sorted(self.counters.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "series": {key: values.tolist() for key, values in sorted(self.series.items())},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsFrame":
        version = payload.get("schema_version", FRAME_VERSION)
        if version != FRAME_VERSION:
            raise ValueError(
                f"metrics frame schema version {version} not supported "
                f"(have {FRAME_VERSION})"
            )
        return cls(
            counters=dict(payload.get("counters", {})),
            maxima=dict(payload.get("maxima", {})),
            series=dict(payload.get("series", {})),
        )


class FrameSink:
    """The one aggregating sink: folds the event stream into a MetricsFrame.

    Counts flash operations and bytes per ``<layer>.<op>``, the same
    operations per ``<layer>.<op>.<cause>`` (every ``flash.nand``,
    ``zns.device`` and ``block.dmzoned`` op carries a cause, so those sum
    to ``.ops``; ``flash.service`` ops are untagged), host-request
    completions and their latencies, fault/recovery/translation events,
    and zone-management holds. From the host-request lifecycle (enqueue
    -> service-start -> complete) it also splits each request's latency
    into *host queueing* (enqueue to service start: write stalls on free
    space, zone-lock waits) and *device service* (the rest), the split
    the paper's §2.4 tail-latency discussion turns on:
    ``<layer>.<op>.queued_us`` / ``.service_us`` series.

    Nothing in ``src/repro`` attaches one by itself (the devices and the
    fleet book their own fields); attach it to a stack's tracer, or
    install it through :func:`repro.obs.runtime.install_global_sink`,
    drive the stack, then take :attr:`frame`. ``ZNS_REPRO_METRICS``
    (the CLI's ``--metrics-out``) installs one per process.
    """

    def __init__(self) -> None:
        self.reset()

    def on_event(self, event: Any) -> None:
        kind = event.kind
        if kind == "flash-op":
            prefix = f"{event.layer}.{event.op}"
            self.frame.add(f"{prefix}.ops", event.count)
            if event.cause:
                self.frame.add(f"{prefix}.{event.cause}", event.count)
            if event.nbytes:
                self.frame.add(f"{prefix}.bytes", event.nbytes)
        elif kind == "host-request":
            self._host_request(event)
        elif kind == "fault":
            self.frame.add(f"faults.{event.fault}")
        elif kind == "recovery":
            self.frame.add(f"recovery.{event.layer}.{event.action}")
        elif kind == "translation":
            self.frame.add(f"translation.{event.action}", event.pages)
        elif kind == "zone-mgmt":
            # Only flows when a device opted into zone-management cost
            # modeling (ZoneMgmtTiming attached); absent otherwise.
            self.frame.add(f"zone_mgmt.{event.action}.ops")
            self.frame.sample(f"zone_mgmt.{event.action}.latency_us", event.latency_us)

    def _host_request(self, event: Any) -> None:
        key = (event.layer, event.op, event.request_id)
        phase = event.phase
        if phase == "enqueue":
            if event.t is not None:
                self._open[key] = (event.t, event.t)
        elif phase == "service-start":
            entry = self._open.get(key)
            if entry is not None and event.t is not None:
                self._open[key] = (entry[0], event.t)
        elif phase == "complete":
            prefix = f"{event.layer}.{event.op}"
            self.frame.add(f"{prefix}.requests")
            self.frame.sample(f"{prefix}.latency_us", event.latency_us)
            entry = self._open.pop(key, None)
            if entry is not None and event.t is not None:
                enqueued_at, service_at = entry
                queued = service_at - enqueued_at
                self.frame.sample(f"{prefix}.queued_us", queued)
                self.frame.sample(f"{prefix}.service_us", event.latency_us - queued)

    def reset(self) -> None:
        self.frame = MetricsFrame()
        self._open: dict[tuple[str, str, int], tuple[float, float]] = {}


__all__ = [
    "FRAME_VERSION",
    "FrameSink",
    "MetricsFrame",
    "OpCounter",
    "normalize_metric_key",
]
