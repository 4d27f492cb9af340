"""Measurement utilities shared by devices, hosts, and experiments.

- :mod:`repro.metrics.latency` -- streaming latency recorders with exact and
  reservoir-sampled percentiles.
- :mod:`repro.metrics.counters` -- byte/op counters.
- :mod:`repro.metrics.wa` -- write-amplification accounting split into the
  layers the paper discusses (application, host translation, device FTL).

The device stack owns these instruments as plain fields (``counters``
via ``OpCounter.note_*``, ``*_latency`` recorded at request completion),
updated traced or not; the :mod:`repro.obs` bus carries the same numbers
to whoever attaches a sink, it is not how the instruments are fed.
"""

from repro.metrics.counters import OpCounter
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.metrics.wa import WriteAmpAccounting, WriteAmpBreakdown

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "OpCounter",
    "WriteAmpAccounting",
    "WriteAmpBreakdown",
]
