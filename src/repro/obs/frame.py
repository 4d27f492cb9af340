"""The one aggregation type: ``MetricsFrame``, its ``OpCounter`` slice, ``FrameSink``.

Everything the simulator counts, bins or samples lives in a frame (or,
for the per-op device counters, in the frame's typed slice
:class:`OpCounter`). Sharded runs (the fleet layer, pooled sweeps)
produce per-shard telemetry that the parent must combine. Ad-hoc dict
munging cannot guarantee the combined numbers match a serial run, so the
frame's merge is *exactly* associative and commutative:

- **counters** are integers merged by sum (integer addition commutes
  exactly -- no float reassociation);
- **maxima** are floats merged by ``max`` (order-free);
- **histograms** are integer bin counts over one fixed, log-spaced bin
  ladder shared by every frame, merged by element-wise addition; tail
  quantiles (p99/p999) are read off the merged counts, so the quantile of
  a merge equals the merge of the observations, no matter how the
  observations were sharded.

Consequently ``merge(merge(a, b), c) == merge(a, merge(b, c))`` and any
shard interleaving reproduces the serial frame byte-for-byte -- the
property the fleet's merge-equals-serial test pins.

A frame also keeps **series**: exact samples in arrival order, merged by
concatenation (so merge order matters for them, and only them). The
timed devices book each host request's latency into one
(``hostio.request.<op>.latency_us``); the percentiles and means the
experiments report are read off those exact samples.

Metric keys are normalized to dotted lower-snake form
(:func:`normalize_metric_key`), ending the drift between ``p99_read_us``
/ ``Read P99 (µs)`` spellings across modules. :class:`FrameSink` is what
an observer attaches to fold the telemetry bus (:mod:`repro.obs.events`)
into a frame.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

#: Version of the frame's dict schema. Bump when the layout or the bin
#: ladder changes (merges across ladder versions would be silently wrong).
FRAME_VERSION = 1

#: Upper bin edges in microseconds: quarter-octave steps from 0.25us to
#: ~16.8s. Fixed for all frames -- merging histograms is only meaningful
#: on a shared ladder. Bin ``i`` counts observations in
#: ``(edges[i-1], edges[i]]`` (bin 0: ``[0, 0.25]``); the last bin also
#: absorbs overflow.
LATENCY_BIN_EDGES_US: tuple[float, ...] = tuple(
    0.25 * 2 ** (i / 4) for i in range(105)
)

#: The bin ladder as an array, for vectorized binning (`observe_many`).
_EDGES_ARR = np.asarray(LATENCY_BIN_EDGES_US, dtype=np.float64)

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


@dataclass
class OpCounter:
    """One layer's operation and byte counts: the frame's typed counter slice.

    Devices own one as a plain field and book every primitive operation
    through the ``note_*`` methods: ``count`` pages (blocks, for an erase)
    moved by one command, ``nbytes`` in total. Each field is the value a
    :class:`FrameSink` reaches from the same layer's flash-op events:

    - ``reads`` / ``bytes_read``: ``<layer>.read.ops`` / ``.read.bytes``;
    - ``writes`` / ``bytes_written``: ``<layer>.program.ops`` /
      ``.program.bytes``;
    - ``erases``: ``<layer>.erase.ops``;
    - ``copies`` / ``bytes_copied``: ``<layer>.copy.ops`` / ``.copy.bytes``.

    On physical NAND (``flash.nand``, ``note_copy(programs=True)``) a
    copy also programs its bytes, so ``bytes_written`` there is
    ``program.bytes + copy.bytes``; command-level layers (ZNS simple
    copy) count the copy alone.
    """

    reads: int = 0
    writes: int = 0
    erases: int = 0
    copies: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_copied: int = 0

    def note_read(self, nbytes: int, count: int = 1) -> None:
        self.reads += count
        self.bytes_read += nbytes

    def note_write(self, nbytes: int, count: int = 1) -> None:
        self.writes += count
        self.bytes_written += nbytes

    def note_erase(self, count: int = 1) -> None:
        self.erases += count

    def note_copy(self, nbytes: int, count: int = 1, programs: bool = False) -> None:
        """``programs=True`` (physical NAND) also books the bytes as programmed;
        command-level layers (ZNS simple copy) count the copy alone."""
        self.copies += count
        self.bytes_copied += nbytes
        if programs:
            self.bytes_written += nbytes


def _histogram() -> list[int]:
    return [0] * len(LATENCY_BIN_EDGES_US)


def _observe(counts: list[int], value_us: float) -> None:
    index = bisect_left(LATENCY_BIN_EDGES_US, value_us)
    if index >= len(counts):
        index = len(counts) - 1
    counts[index] += 1


@dataclass
class MetricsFrame:
    """A mergeable bundle of counters, maxima, histograms and sample series.

    Combining goes through :meth:`merged` / :meth:`merge`, which return
    new frames. Histograms and series are separate namespaces;
    :meth:`quantile` and :meth:`observations` read a series when the
    frame holds one under the name, else the histogram.
    """

    counters: dict[str, int] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)
    hists: dict[str, list[int]] = field(default_factory=dict)
    series: dict[str, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.counters = {
            normalize_metric_key(k): int(v) for k, v in self.counters.items()
        }
        self.maxima = {
            normalize_metric_key(k): float(v) for k, v in self.maxima.items()
        }
        hists: dict[str, list[int]] = {}
        for key, counts in self.hists.items():
            counts = [int(c) for c in counts]
            if len(counts) != len(LATENCY_BIN_EDGES_US):
                raise ValueError(
                    f"histogram {key!r} has {len(counts)} bins, "
                    f"expected {len(LATENCY_BIN_EDGES_US)}"
                )
            hists[normalize_metric_key(key)] = counts
        self.hists = hists
        self.series = {
            normalize_metric_key(k): [float(v) for v in values]
            for k, values in self.series.items()
        }

    # -- Reading ---------------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(normalize_metric_key(name), default)

    def maximum(self, name: str, default: float = 0.0) -> float:
        return self.maxima.get(normalize_metric_key(name), default)

    def observations(self, name: str) -> int:
        """How many values a series or histogram holds (0 when absent)."""
        key = normalize_metric_key(name)
        if key in self.series:
            return len(self.series[key])
        return sum(self.hists.get(key, ()))

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
        """The ``q``-quantile of a series or histogram.

        A series answers exactly, ``np.percentile(series, q * 100)``
        (``np.quantile(series, q)`` rounds differently, and experiments
        report series quantiles unrounded). A histogram answers with its
        bin's upper edge (us), deterministic for any shard interleaving:
        computed from merged integer bin counts, never from raw
        observation order.
        """
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        key = normalize_metric_key(name)
        values = self.series.get(key)
        if values is not None:
            return float(np.percentile(values, q * 100)) if values else 0.0
        counts = self.hists.get(key)
        if not counts:
            return 0.0
        total = sum(counts)
        if total == 0:
            return 0.0
        # Smallest bin whose cumulative count covers q of the total.
        need = q * total
        running = 0
        for index, count in enumerate(counts):
            running += count
            if running >= need:
                return LATENCY_BIN_EDGES_US[index]
        return LATENCY_BIN_EDGES_US[-1]  # pragma: no cover - q <= 1 covers

    # -- Building --------------------------------------------------------------

    def add(self, name: str, amount: int = 1) -> None:
        key = normalize_metric_key(name)
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def peak(self, name: str, value: float) -> None:
        key = normalize_metric_key(name)
        value = float(value)
        if value > self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    def observe(self, name: str, value_us: float) -> None:
        key = normalize_metric_key(name)
        counts = self.hists.get(key)
        if counts is None:
            counts = self.hists[key] = _histogram()
        _observe(counts, value_us)

    def sample(self, name: str, value: float) -> None:
        """Append one exact sample (e.g. a request latency, us) to a series."""
        if value < 0:
            raise ValueError(f"negative sample for {name!r}: {value}")
        key = normalize_metric_key(name)
        values = self.series.get(key)
        if values is None:
            values = self.series[key] = []
        values.append(value)

    def observe_many(self, name: str, values_us) -> None:
        """Bin a whole array of observations in one vectorized pass.

        Exactly ``for v in values_us: self.observe(name, v)`` --
        ``np.searchsorted(edges, v)`` is ``bisect_left`` -- but one
        searchsorted + bincount instead of a Python loop per value.
        Short batches stay on the bisect loop, which beats the vector
        pass below a few dozen observations.
        """
        n = len(values_us)
        if n == 0:
            return
        key = normalize_metric_key(name)
        counts = self.hists.get(key)
        if counts is None:
            counts = self.hists[key] = _histogram()
        if n < 32:
            for value in values_us:
                _observe(counts, value)
            return
        values = np.asarray(values_us, dtype=np.float64)
        index = np.searchsorted(_EDGES_ARR, values)
        np.minimum(index, len(counts) - 1, out=index)
        binned = np.bincount(index, minlength=len(counts))
        for bin_ix in np.flatnonzero(binned).tolist():
            counts[bin_ix] += int(binned[bin_ix])

    # -- Merging ---------------------------------------------------------------

    def merged(self, other: "MetricsFrame") -> "MetricsFrame":
        """This frame combined with ``other`` (neither is mutated); a
        series is this frame's samples followed by ``other``'s."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        maxima = dict(self.maxima)
        for key, value in other.maxima.items():
            if key not in maxima or value > maxima[key]:
                maxima[key] = value
        hists = {key: list(counts) for key, counts in self.hists.items()}
        for key, counts in other.hists.items():
            mine = hists.get(key)
            if mine is None:
                hists[key] = list(counts)
            else:
                for index, count in enumerate(counts):
                    mine[index] += count
        series = {key: list(values) for key, values in self.series.items()}
        for key, values in other.series.items():
            series.setdefault(key, []).extend(values)
        return MetricsFrame(counters=counters, maxima=maxima, hists=hists, series=series)

    @classmethod
    def merge(cls, frames: Iterable["MetricsFrame"]) -> "MetricsFrame":
        """Combine any number of frames, in order (associative; commutative
        too, except that series concatenate in the order given)."""
        merged = cls()
        for frame in frames:
            merged = merged.merged(frame)
        return merged

    # -- Serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict; zero-count histogram bins stay (exact merge
        needs full vectors, and they compress fine on the wire). The
        ``series`` key appears only when the frame holds a series."""
        payload = {
            "schema_version": FRAME_VERSION,
            "counters": dict(sorted(self.counters.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "hists": {key: list(counts) for key, counts in sorted(self.hists.items())},
        }
        if self.series:
            payload["series"] = {
                key: list(values) for key, values in sorted(self.series.items())
            }
        return payload

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
            hists={k: list(v) for k, v in payload.get("hists", {}).items()},
            series={k: list(v) for k, v in payload.get("series", {}).items()},
        )


class FrameSink:
    """The one aggregating sink: folds the event stream into a MetricsFrame.

    Counts flash operations and bytes per ``<layer>.<op>``, host-request
    completions and their latencies, fault/recovery/translation events,
    and zone-management holds. From the host-request lifecycle (enqueue
    -> service-start -> complete) it also splits each request's latency
    into *host queueing* (enqueue to service start: write stalls on free
    space, zone-lock waits) and *device service* (the rest), the split
    the paper's §2.4 tail-latency discussion turns on:
    ``<layer>.<op>.queued_us`` / ``.service_us`` histograms.

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
            self.frame.observe(f"zone_mgmt.{event.action}.latency_us", event.latency_us)

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
            self.frame.observe(f"{prefix}.latency_us", event.latency_us)
            entry = self._open.pop(key, None)
            if entry is not None and event.t is not None:
                enqueued_at, service_at = entry
                queued = service_at - enqueued_at
                self.frame.observe(f"{prefix}.queued_us", queued)
                self.frame.observe(f"{prefix}.service_us", event.latency_us - queued)

    def reset(self) -> None:
        self.frame = MetricsFrame()
        self._open: dict[tuple[str, str, int], tuple[float, float]] = {}


__all__ = [
    "FRAME_VERSION",
    "LATENCY_BIN_EDGES_US",
    "FrameSink",
    "MetricsFrame",
    "OpCounter",
    "normalize_metric_key",
]
