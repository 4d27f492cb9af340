"""First-class metric aggregation: ``MetricsFrame`` and ``FrameSink``.

Sharded runs (the fleet layer, pooled sweeps) produce per-shard telemetry
that the parent must combine. Ad-hoc dict munging cannot guarantee the
combined numbers match a serial run, so this module defines a frame whose
merge is *exactly* associative and commutative:

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


def _histogram() -> list[int]:
    return [0] * len(LATENCY_BIN_EDGES_US)


def _observe(counts: list[int], value_us: float) -> None:
    index = bisect_left(LATENCY_BIN_EDGES_US, value_us)
    if index >= len(counts):
        index = len(counts) - 1
    counts[index] += 1


@dataclass
class MetricsFrame:
    """An associatively-mergeable bundle of counters, maxima, histograms.

    Treat frames as immutable once built; combining goes through
    :meth:`merged` / :meth:`merge`, which return new frames.
    """

    counters: dict[str, int] = field(default_factory=dict)
    maxima: dict[str, float] = field(default_factory=dict)
    hists: dict[str, list[int]] = field(default_factory=dict)

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

    # -- Reading ---------------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(normalize_metric_key(name), default)

    def maximum(self, name: str, default: float = 0.0) -> float:
        return self.maxima.get(normalize_metric_key(name), default)

    def observations(self, name: str) -> int:
        """Total observation count of one histogram (0 when absent)."""
        return sum(self.hists.get(normalize_metric_key(name), ()))

    def quantile(self, name: str, q: float) -> float:
        """The ``q``-quantile of a histogram, as its bin's upper edge (us).

        Deterministic for any shard interleaving: computed from merged
        integer bin counts, never from raw observation order.
        """
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        counts = self.hists.get(normalize_metric_key(name))
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
        """This frame combined with ``other`` (neither is mutated)."""
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
        return MetricsFrame(counters=counters, maxima=maxima, hists=hists)

    @classmethod
    def merge(cls, frames: Iterable["MetricsFrame"]) -> "MetricsFrame":
        """Combine any number of frames (associative and commutative)."""
        merged = cls()
        for frame in frames:
            merged = merged.merged(frame)
        return merged

    # -- Serialization ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict; zero-count histogram bins stay (exact merge
        needs full vectors, and they compress fine on the wire)."""
        return {
            "schema_version": FRAME_VERSION,
            "counters": dict(sorted(self.counters.items())),
            "maxima": dict(sorted(self.maxima.items())),
            "hists": {key: list(counts) for key, counts in sorted(self.hists.items())},
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
            hists={k: list(v) for k, v in payload.get("hists", {}).items()},
        )


class FrameSink:
    """An observer's sink accumulating the event stream into a MetricsFrame.

    Counts flash operations and bytes per ``layer.op``, host-request
    completion latencies into histograms, and fault/recovery events.
    Nothing in ``src/repro`` attaches one (the fleet books its own frame
    as fields); attach it to a stack's tracer, or install it through
    :func:`repro.obs.runtime.install_global_sink`, drive the stack, then
    take :attr:`frame`.
    """

    def __init__(self) -> None:
        self.frame = MetricsFrame()

    def on_event(self, event: Any) -> None:
        kind = event.kind
        if kind == "flash-op":
            prefix = f"{event.layer}.{event.op}"
            self.frame.add(f"{prefix}.ops", event.count)
            if event.nbytes:
                self.frame.add(f"{prefix}.bytes", event.nbytes)
        elif kind == "host-request":
            if event.phase == "complete":
                prefix = f"{event.layer}.{event.op}"
                self.frame.add(f"{prefix}.requests")
                self.frame.observe(f"{prefix}.latency_us", event.latency_us)
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

    def reset(self) -> None:
        self.frame = MetricsFrame()


__all__ = [
    "FRAME_VERSION",
    "LATENCY_BIN_EDGES_US",
    "FrameSink",
    "MetricsFrame",
    "normalize_metric_key",
]
