"""Experiment execution: one ordered map over units of work, cache-aware.

:func:`execute` serves what the :class:`~repro.exec.cache.ResultCache`
holds and turns every other config into units of work: one per point of
a sweep-style experiment (a module publishing a ``SWEEP``
:class:`~repro.experiments.base.SweepSpec`), else one for the whole
experiment. The units run inline at ``jobs=1``, or through
``ProcessPoolExecutor(jobs).map``, in unit order either way; the parent
folds each experiment's outputs in slot order (``combine`` over the rows,
metrics frames merged, profiles listed), so every ``jobs`` prints the
same bytes.

A unit that raises costs only itself: it returns an
:class:`~repro.exec.errors.ErrorResult`, and a sweep combines its other
points. A worker that dies breaks the pool; every unit whose output had
not yet arrived then gets a ``WorkerDied`` error, and the call returns.
"""

from __future__ import annotations

import functools
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.exec.cache import ResultCache
from repro.exec.errors import ErrorResult
from repro.exec.profiling import profiled_call
from repro.exec.progress import NullReporter, ProgressReporter
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.obs.frame import MetricsFrame
from repro.obs.runtime import metrics_aggregator

#: One unit of work: (config, slot, point kwargs, profile). Slot -1 with
#: kwargs None is a whole experiment; any other slot is one sweep point.
_Unit = tuple[ExperimentConfig, int, Any, bool]


def _module_for(experiment_id: str):
    from repro.experiments import runner

    return runner.module_for(experiment_id)


def _config_hash(config: ExperimentConfig) -> str:
    return config.content_hash()[:16]


@dataclass
class ExecutionRecord:
    """One executed (or cache-served) experiment.

    ``error`` is set when the experiment produced no usable result (the
    run failed, or a sweep's ``combine`` did). A sweep that lost points
    but still combined lists them in ``result.metrics["errors"]``.
    ``duration_s`` runs from when the executor began collecting the
    experiment's units to its record: inline, its own run time.
    """

    config: ExperimentConfig
    result: ExperimentResult
    duration_s: float
    cached: bool
    error: ErrorResult | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and "errors" not in self.result.metrics


def _run_unit(unit: _Unit) -> tuple[Any, MetricsFrame | None, list | None]:
    """Run one unit of work, inline or in a pool worker; never raises.

    Returns (value, frame, ranking): the result or row, or an
    :class:`ErrorResult`; the point's metrics frame while collection is on
    (a whole run fills ``result.metrics`` itself); the cProfile ranking.
    """
    config, slot, kwargs, profile = unit
    try:
        module = _module_for(config.experiment_id)
        if slot < 0:
            call, aggregator = functools.partial(module.run, config), None
        else:
            call = functools.partial(module.SWEEP.point, **kwargs)
            aggregator = metrics_aggregator()
            if aggregator is not None:
                aggregator.reset()
        value, ranking = profiled_call(call) if profile else (call(), None)
        frame = aggregator.frame if aggregator is not None else None
        return value, frame, ranking
    except Exception as exc:
        error = ErrorResult.from_exception(exc, config.experiment_id, _config_hash(config), slot)
        return error, None, None


def _outputs(units: list[_Unit], jobs: int) -> Iterator[tuple]:
    """Each unit's output, in unit order: inline at ``jobs=1``, else pooled."""
    if jobs == 1:
        yield from map(_run_unit, units)
        return
    arrived = 0
    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        for output in pool.map(_run_unit, units):
            yield output
            arrived += 1
    except BrokenProcessPool:
        # A worker died and took the pool with it; nothing outstanding arrives.
        for config, slot, _, _ in units[arrived:]:
            message = "a worker process died before this unit returned"
            died = ErrorResult(
                config.experiment_id, "WorkerDied", message, "", _config_hash(config), slot
            )
            yield died, None, None
    finally:
        # A caller that stops early (an I/O error, an interrupt) must not
        # wait for the units still queued.
        pool.shutdown(cancel_futures=True)


def _fold(
    config: ExperimentConfig, sweep: Any, outputs: list[tuple], profile: bool
) -> tuple[ExperimentResult, list[ErrorResult], ErrorResult | None]:
    """(result, every error, the error that left no usable result) of one experiment."""
    errors = [value for value, _, _ in outputs if isinstance(value, ErrorResult)]
    if sweep is None:
        result, _, ranking = outputs[0]
        if ranking is not None:
            result.metrics = {**result.metrics, "profile": ranking}
    else:
        rows = [value for value, _, _ in outputs if not isinstance(value, ErrorResult)]
        try:
            result = sweep.combine(config, rows)
        except Exception as exc:
            # combine over a gap-toothed row set can fail; the experiment
            # then fails as a whole.
            result = ErrorResult.from_exception(exc, config.experiment_id, _config_hash(config))
            errors.append(result)
        else:
            frames = [f for _, f, _ in outputs if f is not None]
            if frames:
                # Slot order: counters sum, maxima max and series
                # concatenate in point order, so this is the one-run frame.
                result.metrics = {**result.metrics, **MetricsFrame.merge(frames).to_dict()}
            if profile:
                ranked = [{"point": i, "entries": r} for i, (_, _, r) in enumerate(outputs)]
                result.metrics = {**result.metrics, "profile": ranked}
            if errors:
                result.metrics = {**result.metrics, "errors": [e.to_dict() for e in errors]}
    if not isinstance(result, ErrorResult):
        return result, errors, None
    placeholder = ExperimentResult(
        experiment_id=config.experiment_id,
        title=f"{config.experiment_id} FAILED ({errors[0].error_type})",
        paper_claim="",
        notes=errors[0].describe(),
        metrics={"errors": [error.to_dict() for error in errors]},
    )
    return placeholder, errors, result


def execute(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    cache: ResultCache | None = None,
    reporter: ProgressReporter | None = None,
    profile: bool = False,
) -> list[ExecutionRecord]:
    """Run ``configs``; one :class:`ExecutionRecord` per config, in input order.

    ``jobs`` worker processes (1 runs inline); ``cache`` serves hits and
    stores clean results (None: off); ``reporter`` gets the progress
    lines. ``profile`` attaches a cProfile ranking per unit of work and
    bypasses the cache, whose entries carry none.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    reporter = reporter or NullReporter()
    if profile:
        cache = None
    wall_start = time.perf_counter()
    total = len(configs)
    records: list[Any] = []
    # (index, config, sweep, unit count, outputs known before any unit runs)
    plan: list[tuple[int, ExperimentConfig, Any, int, list]] = []
    units: list[_Unit] = []
    for index, config in enumerate(configs):
        hit = cache.get(config) if cache is not None else None
        if hit is not None:
            records.append(ExecutionRecord(config, hit, 0.0, True))
            continue
        records.append(None)
        sweep = getattr(_module_for(config.experiment_id), "SWEEP", None)
        try:
            points = None if sweep is None else sweep.points(config)
        except Exception as exc:
            # Nothing to run: the experiment fails with this error.
            error = ErrorResult.from_exception(exc, config.experiment_id, _config_hash(config))
            plan.append((index, config, None, 0, [(error, None, None)]))
            continue
        if points is None:
            new = [(config, -1, None, profile)]
        else:
            new = [(config, slot, kw, profile) for slot, kw in enumerate(points)]
        plan.append((index, config, sweep, len(new), []))
        units += new

    outputs = _outputs(units, jobs)
    try:
        for index, config, sweep, count, taken in plan:
            reporter.started(config, index, total)
            started = time.perf_counter()
            for output in itertools.islice(outputs, count):
                taken.append(output)
                if sweep is not None:
                    reporter.unit_finished(config, index, total, len(taken), count)
            result, errors, error = _fold(config, sweep, taken, profile)
            record = ExecutionRecord(
                config, result, time.perf_counter() - started, False, error
            )
            # Only clean results enter the cache: failures and partially
            # lost sweeps must re-run next time, not be replayed.
            if cache is not None and record.ok:
                cache.put(config, result)
            for failure in errors:
                reporter.failed(config, failure, index, total)
            reporter.finished(record, index, total)
            records[index] = record
    finally:
        outputs.close()

    # Cached entries report after computation so live lines read naturally.
    for index, record in enumerate(records):
        if record.cached:
            reporter.finished(record, index, total)
    reporter.summary(records, time.perf_counter() - wall_start)
    return records


__all__ = ["ExecutionRecord", "execute"]
