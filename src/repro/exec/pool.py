"""Experiment execution: serial or process-pool fan-out, cache-aware.

The :class:`Executor` takes a list of
:class:`~repro.experiments.base.ExperimentConfig` and produces one
:class:`ExecutionRecord` per config, in input order. Results come from
three places, tried in order:

1. the :class:`~repro.exec.cache.ResultCache` (config hash + code
   version);
2. with ``jobs > 1``, a :class:`~concurrent.futures.ProcessPoolExecutor`
   -- whole experiments fan out across workers, and sweep-style
   experiments (modules publishing a ``SWEEP``
   :class:`~repro.experiments.base.SweepSpec`) additionally fan out
   their *parameter points*, so a single big experiment also fills the
   pool;
3. in-process serial execution (``jobs <= 1``).

Workers receive only JSON-safe payloads (config dicts, point kwargs) and
return plain dicts, so nothing device-sized ever crosses the process
boundary. Sweep results are combined in the parent with the module's own
``combine``, which makes parallel output bit-identical to a serial run
by construction.

Failure handling (see :mod:`repro.exec.errors`): a unit of work that
raises returns its error -- with the remote traceback -- as a payload
instead of poisoning the future; a unit that exceeds ``timeout_s`` is
abandoned; a worker process that dies takes down the pool, after which
the survivors re-run one at a time in fresh single-worker pools so the
killer is identified exactly. Every failed unit costs only its own
result: the sweep completes, failures travel as
:class:`~repro.exec.errors.ErrorResult` entries in the result metrics,
and transient failures retry with exponential backoff + deterministic
jitter up to ``retries`` times.
"""

from __future__ import annotations

import importlib
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.exec.cache import ResultCache
from repro.exec.errors import ErrorResult, backoff_delay, error_payload
from repro.exec.profiling import PROFILE_ENV, profiled_call, profiling_requested
from repro.exec.progress import NullReporter, ProgressReporter
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.obs.frame import MetricsFrame
from repro.obs.runtime import metrics_aggregator


def _module_for(experiment_id: str):
    from repro.experiments import runner

    return runner.module_for(experiment_id)


def _config_hash(config: ExperimentConfig) -> str:
    """Short content hash of a config (the cache-key material, unversioned)."""
    return config.content_hash()[:16]


# -- Worker entry points (must be importable module-level functions) ------------


def _worker_run(config_payload: dict) -> dict:
    """Run one whole experiment in a worker; dicts in, dicts out.

    With profiling raised (env inherited from the parent), the worker
    profiles itself and folds the ranking into the result's metrics.
    Exceptions return as ``{"__error__": ...}`` payloads so the remote
    traceback survives the process boundary.
    """
    try:
        config = ExperimentConfig.from_dict(config_payload)
        run = _module_for(config.experiment_id).run
        if profiling_requested():
            result, entries = profiled_call(run, config)
            result.metrics = {**result.metrics, "profile": entries}
            return result.to_dict()
        return run(config).to_dict()
    except Exception as exc:
        return error_payload(exc)


def _worker_point(module_name: str, point_kwargs: dict) -> dict:
    """Run one sweep point in a worker.

    Under profiling or metrics collection the row travels wrapped, so the
    parent can strip the per-point profile and metrics frame before
    handing rows to ``combine``. Exceptions return as
    ``{"__error__": ...}`` payloads.
    """
    try:
        module = importlib.import_module(module_name)
        aggregator = metrics_aggregator()
        if aggregator is not None:
            aggregator.reset()
        extras = {}
        if profiling_requested():
            row, extras["__profile__"] = profiled_call(module.SWEEP.point, **point_kwargs)
        else:
            row = module.SWEEP.point(**point_kwargs)
        if aggregator is not None:
            extras["__metrics__"] = aggregator.frame.to_dict()
        return {"__row__": row, **extras} if extras else row
    except Exception as exc:
        return error_payload(exc)


@dataclass
class ExecutionRecord:
    """One executed (or cache-served) experiment.

    ``error`` is set when the experiment produced no usable result (the
    run itself failed, or a sweep's ``combine`` could not run). Sweeps
    that lost individual points but still combined report those in
    ``result.metrics["errors"]`` with ``error`` left None.
    """

    config: ExperimentConfig
    result: ExperimentResult
    duration_s: float
    cached: bool
    error: ErrorResult | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and "errors" not in self.result.metrics


def _failure_result(
    config: ExperimentConfig, errors: list[ErrorResult]
) -> ExperimentResult:
    """A renderable placeholder result for a failed experiment."""
    first = errors[0]
    return ExperimentResult(
        experiment_id=config.experiment_id,
        title=f"{config.experiment_id} FAILED ({first.error_type})",
        paper_claim="",
        notes=first.describe(),
        metrics={"errors": [error.to_dict() for error in errors]},
    )


@dataclass
class _Unit:
    """One schedulable unit of work: a whole experiment or a sweep point."""

    index: int
    slot: int  # -1 = whole experiment, otherwise sweep point slot
    fn: Any
    args: tuple
    attempts: int = 0


@dataclass
class _PoolState:
    """Bookkeeping shared by the pooled loop and the quarantine fallback."""

    point_rows: dict[int, list[Any]] = field(default_factory=dict)
    point_profiles: dict[int, list[Any]] = field(default_factory=dict)
    point_frames: dict[int, list[Any]] = field(default_factory=dict)
    remaining: dict[int, int] = field(default_factory=dict)
    started_at: dict[int, float] = field(default_factory=dict)
    errors: dict[int, list[ErrorResult]] = field(default_factory=dict)
    failed_slots: dict[int, set[int]] = field(default_factory=dict)
    # Exactly-once unit accounting: a (experiment, slot) pair enters
    # done_slots the moment it is absorbed for good, and any later payload
    # for the same pair (a resubmitted-then-also-completed attempt, a
    # quarantine replay) is dropped instead of decrementing ``remaining``
    # or bumping the progress line a second time.
    done_slots: dict[int, set[int]] = field(default_factory=dict)
    total_units: dict[int, int] = field(default_factory=dict)


class Executor:
    """Runs experiment configs with caching and optional fan-out.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` (the default) runs in-process.
    cache:
        A :class:`ResultCache`, or None to disable caching entirely.
    reporter:
        Progress sink; defaults to silent.
    profile:
        Capture a cProfile ranking per unit of work (whole experiment, or
        each sweep point under ``jobs > 1``) into the result's metrics.
        Profiled runs bypass the cache: cached results carry no profile,
        and profile-laden results must not poison the cache.
    timeout_s:
        Per-unit wall-clock budget with ``jobs > 1``; a unit still
        running past it is abandoned with a structured ``Timeout`` error
        (its worker is reaped at pool shutdown). None disables. The
        serial path cannot preempt itself, so the budget only applies to
        pooled runs.
    retries:
        Extra attempts for *transient* failures (:class:`TransientError`
        raised by the unit, a timeout, or a killed worker), spaced by
        exponential backoff with deterministic jitter. Deterministic
        exceptions fail immediately -- an experiment that raised once
        will raise again.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        reporter: ProgressReporter | None = None,
        profile: bool = False,
        timeout_s: float | None = None,
        retries: int = 0,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.jobs = jobs
        self.cache = None if profile else cache
        self.reporter = reporter or NullReporter()
        self.profile = profile
        self.timeout_s = timeout_s
        self.retries = retries

    # -- Public API ----------------------------------------------------------------

    def run(self, configs: Sequence[ExperimentConfig]) -> list[ExecutionRecord]:
        wall_start = time.perf_counter()
        total = len(configs)
        records: dict[int, ExecutionRecord] = {}

        misses: list[int] = []
        for index, config in enumerate(configs):
            cached = self.cache.get(config) if self.cache is not None else None
            if cached is not None:
                records[index] = ExecutionRecord(config, cached, 0.0, True)
            else:
                misses.append(index)

        if misses:
            if self.jobs > 1:
                self._run_pooled(configs, misses, records, total)
            else:
                self._run_serial(configs, misses, records, total)

        # Cached entries report after computation so live lines read naturally.
        for index, record in sorted(records.items()):
            if record.cached:
                self.reporter.finished(record, index, total)

        ordered = [records[index] for index in range(total)]
        self.reporter.summary(ordered, time.perf_counter() - wall_start)
        return ordered

    # -- Shared helpers --------------------------------------------------------------

    def _should_retry(self, error: ErrorResult) -> bool:
        return error.is_transient and error.attempts <= self.retries

    def _finish(
        self,
        records: dict[int, ExecutionRecord],
        index: int,
        config: ExperimentConfig,
        result: ExperimentResult,
        started: float,
        total: int,
        error: ErrorResult | None = None,
    ) -> None:
        record = ExecutionRecord(
            config, result, time.perf_counter() - started, False, error=error
        )
        # Only clean results enter the cache: failures and partially-lost
        # sweeps must re-run next time, not be replayed.
        if self.cache is not None and record.ok:
            self.cache.put(config, result)
        records[index] = record
        if error is not None:
            self.reporter.failed(config, error, index, total)
        self.reporter.finished(record, index, total)

    # -- Serial path -----------------------------------------------------------------

    def _run_serial(
        self,
        configs: Sequence[ExperimentConfig],
        misses: list[int],
        records: dict[int, ExecutionRecord],
        total: int,
    ) -> None:
        for index in misses:
            config = configs[index]
            self.reporter.started(config, index, total)
            started = time.perf_counter()
            run = _module_for(config.experiment_id).run
            attempts = 0
            while True:
                attempts += 1
                try:
                    if self.profile:
                        result, entries = profiled_call(run, config)
                        result.metrics = {**result.metrics, "profile": entries}
                    else:
                        result = run(config)
                    error = None
                    break
                except Exception as exc:
                    error = ErrorResult.from_exception(
                        exc,
                        experiment_id=config.experiment_id,
                        config_hash=_config_hash(config),
                        attempts=attempts,
                    )
                    if self._should_retry(error):
                        time.sleep(backoff_delay(attempts))
                        continue
                    result = _failure_result(config, [error])
                    break
            self._finish(records, index, config, result, started, total, error=error)

    # -- Pooled path ---------------------------------------------------------------

    def _run_pooled(
        self,
        configs: Sequence[ExperimentConfig],
        misses: list[int],
        records: dict[int, ExecutionRecord],
        total: int,
    ) -> None:
        saved_profile_env = os.environ.get(PROFILE_ENV)
        if self.profile:
            # Raised before the pool forks so every worker inherits it and
            # profiles its own unit of work independently.
            os.environ[PROFILE_ENV] = "1"
        try:
            self._run_pool_inner(configs, misses, records, total)
        finally:
            if self.profile:
                if saved_profile_env is None:
                    os.environ.pop(PROFILE_ENV, None)
                else:
                    os.environ[PROFILE_ENV] = saved_profile_env

    def _build_units(
        self,
        configs: Sequence[ExperimentConfig],
        misses: list[int],
        state: _PoolState,
        total: int,
    ) -> list[_Unit]:
        units: list[_Unit] = []
        for index in misses:
            config = configs[index]
            module = _module_for(config.experiment_id)
            sweep = getattr(module, "SWEEP", None)
            self.reporter.started(config, index, total)
            state.started_at[index] = time.perf_counter()
            if sweep is not None:
                points = sweep.points(config)
                state.point_rows[index] = [None] * len(points)
                state.point_profiles[index] = [None] * len(points)
                state.point_frames[index] = [None] * len(points)
                state.remaining[index] = len(points)
                state.total_units[index] = len(points)
                for slot, kwargs in enumerate(points):
                    units.append(
                        _Unit(index, slot, _worker_point, (module.__name__, kwargs))
                    )
            else:
                state.remaining[index] = 1
                state.total_units[index] = 1
                units.append(_Unit(index, -1, _worker_run, (config.to_dict(),)))
        return units

    def _absorb(
        self,
        configs: Sequence[ExperimentConfig],
        records: dict[int, ExecutionRecord],
        state: _PoolState,
        total: int,
        unit: _Unit,
        payload: Any,
    ) -> bool:
        """Fold one completed unit's payload into the run state.

        Returns True when the payload was an error the retry budget still
        covers (the caller must resubmit the unit); otherwise the unit is
        finished -- successfully or not -- and its experiment finalized
        once its last unit lands.
        """
        index, slot = unit.index, unit.slot
        config = configs[index]
        if slot in state.done_slots.get(index, set()):
            # This unit already landed (e.g. a timed-out attempt whose
            # straggler result surfaced after the retry finished): drop
            # the duplicate rather than double-count it.
            return False
        if isinstance(payload, dict) and "__error__" in payload:
            payload = ErrorResult(
                experiment_id=config.experiment_id,
                config_hash=_config_hash(config),
                point_index=slot,
                attempts=unit.attempts,
                **payload["__error__"],
            )
        if isinstance(payload, ErrorResult):
            if self._should_retry(payload):
                time.sleep(backoff_delay(payload.attempts))
                return True
            state.errors.setdefault(index, []).append(payload)
            state.failed_slots.setdefault(index, set()).add(slot)
        elif slot < 0:
            state.point_rows[index] = [ExperimentResult.from_dict(payload)]
        else:
            if isinstance(payload, dict) and "__row__" in payload:
                state.point_profiles[index][slot] = payload.get("__profile__")
                state.point_frames[index][slot] = payload.get("__metrics__")
                payload = payload["__row__"]
            state.point_rows[index][slot] = payload

        state.done_slots.setdefault(index, set()).add(slot)
        state.remaining[index] -= 1
        if slot >= 0:
            self.reporter.unit_finished(
                config,
                index,
                total,
                len(state.done_slots[index]),
                state.total_units[index],
            )
        if state.remaining[index] == 0:
            self._finalize(configs, records, state, total, index, slot >= 0)
        return False

    def _finalize(
        self,
        configs: Sequence[ExperimentConfig],
        records: dict[int, ExecutionRecord],
        state: _PoolState,
        total: int,
        index: int,
        is_sweep: bool,
    ) -> None:
        config = configs[index]
        errors = state.errors.pop(index, [])
        failed = state.failed_slots.pop(index, set())
        started = state.started_at[index]
        if not is_sweep:
            if errors:
                result = _failure_result(config, errors)
                self._finish(
                    records, index, config, result, started, total, error=errors[0]
                )
            else:
                result = state.point_rows.pop(index)[0]
                self._finish(records, index, config, result, started, total)
            return
        rows = state.point_rows.pop(index)
        profiles = state.point_profiles.pop(index)
        frames = [frame for frame in state.point_frames.pop(index) if frame is not None]
        survivors = [row for slot, row in enumerate(rows) if slot not in failed]
        try:
            module = _module_for(config.experiment_id)
            result = module.SWEEP.combine(config, survivors)
        except Exception as exc:
            # combine over a gap-toothed row set can legitimately fail;
            # the experiment then reports as a whole-run failure.
            errors.append(
                ErrorResult.from_exception(
                    exc,
                    experiment_id=config.experiment_id,
                    config_hash=_config_hash(config),
                )
            )
            result = _failure_result(config, errors)
            self._finish(
                records, index, config, result, started, total, error=errors[-1]
            )
            return
        if frames:
            # Slot order, as a serial run visits the points: counters sum,
            # bins add and maxima max, so this is the serial frame.
            merged = MetricsFrame.merge(MetricsFrame.from_dict(frame) for frame in frames)
            result.metrics = {**result.metrics, **merged.to_dict()}
        if self.profile:
            result.metrics = {
                **result.metrics,
                "profile": [
                    {"point": i, "entries": entries}
                    for i, entries in enumerate(profiles)
                ],
            }
        if errors:
            result.metrics = {
                **result.metrics,
                "errors": [error.to_dict() for error in errors],
            }
            for error in errors:
                self.reporter.failed(config, error, index, total)
        self._finish(records, index, config, result, started, total)

    def _run_pool_inner(
        self,
        configs: Sequence[ExperimentConfig],
        misses: list[int],
        records: dict[int, ExecutionRecord],
        total: int,
    ) -> None:
        state = _PoolState()
        units = self._build_units(configs, misses, state, total)

        pool = ProcessPoolExecutor(max_workers=self.jobs)
        future_unit: dict[Future, _Unit] = {}
        deadlines: dict[Future, float] = {}
        abandoned: list[Future] = []
        survivors: list[_Unit] = []
        broken = False

        def submit(unit: _Unit) -> Future:
            unit.attempts += 1
            future = pool.submit(unit.fn, *unit.args)
            future_unit[future] = unit
            if self.timeout_s is not None:
                deadlines[future] = time.monotonic() + self.timeout_s
            return future

        try:
            pending = {submit(unit) for unit in units}
            while pending:
                timeout = None
                if deadlines:
                    timeout = max(
                        0.0,
                        min(deadlines[f] for f in pending) - time.monotonic(),
                    )
                done, pending = wait(pending, timeout=timeout, return_when=FIRST_COMPLETED)
                # Expire hung units every pass so a steady stream of fast
                # completions cannot starve timeout enforcement.
                if self.timeout_s is not None:
                    now = time.monotonic()
                    for future in [f for f in pending if deadlines[f] <= now]:
                        pending.discard(future)
                        deadlines.pop(future, None)
                        abandoned.append(future)
                        unit = future_unit.pop(future)
                        config = configs[unit.index]
                        timeout_error = ErrorResult(
                            experiment_id=config.experiment_id,
                            error_type="Timeout",
                            message=(
                                f"no result within {self.timeout_s}s "
                                f"(attempt {unit.attempts})"
                            ),
                            config_hash=_config_hash(config),
                            point_index=unit.slot,
                            attempts=unit.attempts,
                        )
                        if self._absorb(
                            configs, records, state, total, unit, timeout_error
                        ):
                            pending.add(submit(unit))
                for future in done:
                    unit = future_unit.pop(future)
                    deadlines.pop(future, None)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        # A worker died mid-task and took the pool with it.
                        # Everything still in flight is collateral; re-run
                        # those units one at a time for exact attribution.
                        broken = True
                        # future_unit still maps every unabsorbed unit --
                        # in-flight, queued, even completed-but-unread ones
                        # whose results died with the pool.
                        survivors = [unit] + list(future_unit.values())
                        future_unit.clear()
                        pending = set()
                        break
                    except Exception as exc:
                        # e.g. the unit's return value failed to unpickle.
                        payload = ErrorResult.from_exception(
                            exc,
                            experiment_id=configs[unit.index].experiment_id,
                            config_hash=_config_hash(configs[unit.index]),
                            point_index=unit.slot,
                            attempts=unit.attempts,
                        )
                    if self._absorb(configs, records, state, total, unit, payload):
                        pending.add(submit(unit))
        finally:
            if any(not future.done() for future in abandoned):
                # Hung workers never return; reap them so shutdown can join.
                for proc in list(getattr(pool, "_processes", {}).values()):
                    proc.terminate()
            pool.shutdown(wait=True, cancel_futures=True)

        if broken:
            self._run_quarantined(configs, records, state, total, survivors)

    def _run_quarantined(
        self,
        configs: Sequence[ExperimentConfig],
        records: dict[int, ExecutionRecord],
        state: _PoolState,
        total: int,
        units: list[_Unit],
    ) -> None:
        """Degraded mode after pool collapse: one unit per single-worker pool.

        Serial, so a unit that kills its worker is identified exactly --
        it alone books a ``WorkerDied`` error -- and a kill cannot take
        innocent units down with it. The pool is reused while healthy and
        rebuilt after each casualty.
        """
        pool: ProcessPoolExecutor | None = None
        try:
            queue = list(units)
            while queue:
                unit = queue.pop(0)
                if pool is None:
                    pool = ProcessPoolExecutor(max_workers=1)
                unit.attempts += 1
                future = pool.submit(unit.fn, *unit.args)
                config = configs[unit.index]
                try:
                    payload = future.result(timeout=self.timeout_s)
                except FutureTimeoutError:
                    payload = ErrorResult(
                        experiment_id=config.experiment_id,
                        error_type="Timeout",
                        message=(
                            f"no result within {self.timeout_s}s "
                            f"(attempt {unit.attempts}, quarantined)"
                        ),
                        config_hash=_config_hash(config),
                        point_index=unit.slot,
                        attempts=unit.attempts,
                    )
                    for proc in list(getattr(pool, "_processes", {}).values()):
                        proc.terminate()
                    pool.shutdown(wait=True, cancel_futures=True)
                    pool = None
                except BrokenProcessPool:
                    payload = ErrorResult(
                        experiment_id=config.experiment_id,
                        error_type="WorkerDied",
                        message=(
                            "worker process died executing this unit "
                            f"(attempt {unit.attempts})"
                        ),
                        config_hash=_config_hash(config),
                        point_index=unit.slot,
                        attempts=unit.attempts,
                    )
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = None
                except Exception as exc:
                    payload = ErrorResult.from_exception(
                        exc,
                        experiment_id=config.experiment_id,
                        config_hash=_config_hash(config),
                        point_index=unit.slot,
                        attempts=unit.attempts,
                    )
                if self._absorb(configs, records, state, total, unit, payload):
                    queue.insert(0, unit)
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)


def execute(
    configs: Sequence[ExperimentConfig],
    jobs: int = 1,
    cache: ResultCache | None = None,
    reporter: ProgressReporter | None = None,
) -> list[ExecutionRecord]:
    """One-shot convenience wrapper around :class:`Executor`."""
    return Executor(jobs=jobs, cache=cache, reporter=reporter).run(configs)


__all__ = ["ExecutionRecord", "Executor", "execute"]
