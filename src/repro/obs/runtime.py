"""Process-wide tracer wiring: global sinks and environment activation.

Device stacks each share one :class:`~repro.obs.tracer.Tracer`, created
through :func:`new_tracer` when no tracer is passed down explicitly.
``new_tracer`` attaches every *globally installed* sink, which is how the
CLI observes devices it never constructs itself:

- ``ZNS_REPRO_TRACE=<path>`` installs a per-process
  :class:`~repro.obs.jsonl.JsonlSink` writing ``<path>.<pid>.part``
  (workers forked by ``--jobs`` detect the pid change and open their own
  part file; the CLI merges parts afterwards).
- ``ZNS_REPRO_METRICS=1`` installs one :class:`~repro.obs.frame.FrameSink`
  per process; the experiment entry point
  (:func:`repro.experiments.base.experiment`) resets it before each run
  and stores its frame's ``to_dict()`` as ``ExperimentResult.metrics``
  (around each sweep point, :mod:`repro.exec` resets it and returns the
  point's frame for the parent to merge).

Environment state is re-checked on every ``new_tracer`` call, so enabling
or disabling tracing never requires re-importing anything.
"""

from __future__ import annotations

import os
from typing import Any

from repro.obs.frame import FrameSink
from repro.obs.jsonl import JsonlSink
from repro.obs.tracer import Sink, Tracer

TRACE_ENV = "ZNS_REPRO_TRACE"
METRICS_ENV = "ZNS_REPRO_METRICS"

_global_sinks: list[Sink] = []

# Environment-driven sinks, keyed by the pid that created them so forked
# workers (ProcessPoolExecutor on Linux) open their own files/aggregators.
_env_pid: int | None = None
_env_trace_path: str | None = None
_env_trace_sink: JsonlSink | None = None
_env_metrics_sink: FrameSink | None = None


def install_global_sink(sink: Sink) -> Sink:
    """Attach ``sink`` to every tracer created from now on."""
    _global_sinks.append(sink)
    return sink


def remove_global_sink(sink: Sink) -> None:
    try:
        _global_sinks.remove(sink)
    except ValueError:
        pass


def _sync_env_sinks() -> None:
    """(Re)build environment-driven sinks for the current process."""
    global _env_pid, _env_trace_path, _env_trace_sink, _env_metrics_sink
    pid = os.getpid()
    path = os.environ.get(TRACE_ENV) or None
    fresh = pid != _env_pid
    if fresh or path != _env_trace_path:
        # Never close an inherited handle: flushing a parent's buffer from
        # a forked child would duplicate lines (JsonlSink flushes per line,
        # but stay safe). Just drop the reference and start a new file.
        _env_trace_sink = JsonlSink(f"{path}.{pid}.part") if path else None
        _env_trace_path = path
    if fresh:
        want_metrics = bool(os.environ.get(METRICS_ENV))
        _env_metrics_sink = FrameSink() if want_metrics else None
    elif bool(os.environ.get(METRICS_ENV)) != (_env_metrics_sink is not None):
        _env_metrics_sink = (
            FrameSink() if os.environ.get(METRICS_ENV) else None
        )
    _env_pid = pid


def metrics_aggregator() -> FrameSink | None:
    """The process-wide metrics sink, or None when metrics are off."""
    _sync_env_sinks()
    return _env_metrics_sink


def new_tracer() -> Tracer:
    """A fresh tracer with every global/environment sink pre-attached.

    This is the default used by every device constructor when no tracer
    is passed in; stacked layers share the facade's tracer instead.
    """
    _sync_env_sinks()
    tracer = Tracer()
    for sink in _global_sinks:
        tracer.attach(sink)
    if _env_trace_sink is not None:
        tracer.attach(_env_trace_sink)
    if _env_metrics_sink is not None:
        tracer.attach(_env_metrics_sink)
    return tracer


def flush_trace() -> None:
    """Flush/close this process's environment trace sink (if any)."""
    if _env_trace_sink is not None:
        _env_trace_sink.close()


def _reset_for_tests() -> None:
    """Forget all runtime state (test isolation helper)."""
    global _env_pid, _env_trace_path, _env_trace_sink, _env_metrics_sink
    flush_trace()
    _global_sinks.clear()
    _env_pid = None
    _env_trace_path = None
    _env_trace_sink = None
    _env_metrics_sink = None


__all__ = [
    "METRICS_ENV",
    "TRACE_ENV",
    "flush_trace",
    "install_global_sink",
    "metrics_aggregator",
    "new_tracer",
    "remove_global_sink",
]


def __getattr__(name: str) -> Any:  # pragma: no cover - debugging aid
    if name == "global_sinks":
        return tuple(_global_sinks)
    raise AttributeError(name)
