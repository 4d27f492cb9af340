"""The experiment-facing API: configs and results.

Every experiment module exports exactly one entry point: ``SWEEP``, a
:class:`SweepSpec` that decomposes the run into independent, picklable
parameter points, when the experiment is a sweep; else
``run(config: ExperimentConfig) -> ExperimentResult``. Either way
:func:`repro.exec.execute` is what runs it (``zns-repro run``, the
ledger and :func:`repro.experiments.runner.run_config` all go through
it): it runs a ``run`` as one unit of work and a sweep's points as one
unit each, then folds them with ``combine``.

:class:`ExperimentConfig` is a frozen, hashable description of the run
(experiment id, ``full`` flag, seed, parameter overrides). Frozen and
hashable matters: the execution layer keys its on-disk result cache on
the config's content hash and ships configs to worker processes, neither
of which tolerates ad-hoc ``**kwargs``.

The :func:`experiment` decorator validates the config, attaches the
experiment id, and -- when metrics collection is active (CLI
``--metrics-out``) -- captures the run's telemetry frame into
:attr:`ExperimentResult.metrics`.

A device measurement two experiments share (E2 and A4 drive the same
DFTL runs, E14 repeats one of E1's OP points) is a :func:`measurement`:
the first caller in a process computes it, later callers get a copy.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.block.factory import _freeze, _thaw
from repro.obs.runtime import metrics_aggregator

#: Version of the on-disk / on-the-wire dict schema for both
#: :class:`ExperimentConfig` and :class:`ExperimentResult`. Bump when a
#: field is added, removed, or changes meaning.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """A frozen, hashable description of one experiment run.

    Attributes
    ----------
    experiment_id:
        The DESIGN.md index id (e.g. "E1", "T1"). Normalized to upper case.
    full:
        Full-size workloads (the old ``quick=False``).
    seed:
        Root RNG seed; identical configs produce identical results.
    params:
        Experiment-specific parameter overrides, stored as a sorted tuple
        of ``(name, value)`` pairs so the config stays hashable. Pass a
        plain dict; it is normalized on construction.
    """

    experiment_id: str
    full: bool = False
    seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "experiment_id", self.experiment_id.upper())
        object.__setattr__(self, "full", bool(self.full))
        object.__setattr__(self, "seed", int(self.seed))
        params = self.params
        if isinstance(params, Mapping):
            params = _freeze(params)
        else:
            params = _freeze(dict(params))
        object.__setattr__(self, "params", params)

    # -- Convenience views -----------------------------------------------------

    @property
    def quick(self) -> bool:
        """The pre-redesign spelling of ``not full``."""
        return not self.full

    @property
    def overrides(self) -> dict[str, Any]:
        """Parameter overrides as a plain dict (values thawed to lists)."""
        return {name: _thaw(value) for name, value in self.params}

    def param(self, name: str, default: Any = None) -> Any:
        """One override by name, thawed, or ``default``."""
        for key, value in self.params:
            if key == name:
                return _thaw(value)
        return default

    # -- Serialization ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "full": self.full,
            "seed": self.seed,
            "params": self.overrides,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentConfig":
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"config schema version {version} not supported (have {SCHEMA_VERSION})"
            )
        return cls(
            experiment_id=payload["experiment_id"],
            full=payload.get("full", False),
            seed=payload.get("seed", 0),
            params=payload.get("params", ()),
        )

    def canonical_json(self) -> str:
        """Deterministic JSON encoding, the basis of the content hash."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_hash(self) -> str:
        """Hex digest identifying this config's contents."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


@dataclass
class ExperimentResult:
    """Outcome of one experiment run.

    Attributes
    ----------
    experiment_id:
        The DESIGN.md index id (e.g. "E1", "T1").
    title:
        Human-readable name.
    paper_claim:
        What the paper reports, verbatim-ish, for side-by-side comparison.
    rows:
        The regenerated table: list of dicts with consistent keys.
    headline:
        The single number/factor the claim turns on, as measured here.
    notes:
        Caveats, substitutions, parameters.
    metrics:
        Optional telemetry: the ``MetricsFrame.to_dict()`` a
        :class:`~repro.obs.frame.FrameSink` folded from the trace bus
        when metrics collection is active (flash-op counts and bytes,
        host-request latency, queueing and service samples); empty
        otherwise. Omitted from the serialized form when empty so
        results without telemetry are unchanged.
    """

    experiment_id: str
    title: str
    paper_claim: str
    rows: list[dict] = field(default_factory=list)
    headline: dict[str, Any] = field(default_factory=dict)
    notes: str = ""
    metrics: dict[str, Any] = field(default_factory=dict)

    # -- Serialization ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-safe dict with a versioned schema; inverse of :meth:`from_dict`."""
        payload = {
            "schema_version": SCHEMA_VERSION,
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "rows": [dict(row) for row in self.rows],
            "headline": dict(self.headline),
            "notes": self.notes,
        }
        if self.metrics:
            payload["metrics"] = dict(self.metrics)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"result schema version {version} not supported (have {SCHEMA_VERSION})"
            )
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload.get("title", ""),
            paper_claim=payload.get("paper_claim", ""),
            rows=[dict(row) for row in payload.get("rows", [])],
            headline=dict(payload.get("headline", {})),
            notes=payload.get("notes", ""),
            metrics=dict(payload.get("metrics", {})),
        )

    def format(self) -> str:
        """Render as readable text (used by the CLI and EXPERIMENTS.md)."""
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper claim: {self.paper_claim}",
        ]
        if self.rows:
            keys = list(self.rows[0].keys())
            widths = {
                k: max(len(str(k)), *(len(_fmt(row.get(k))) for row in self.rows))
                for k in keys
            }
            lines.append("  " + "  ".join(str(k).ljust(widths[k]) for k in keys))
            for row in self.rows:
                lines.append(
                    "  " + "  ".join(_fmt(row.get(k)).ljust(widths[k]) for k in keys)
                )
        if self.headline:
            lines.append(
                "measured: "
                + ", ".join(f"{k}={_fmt(v)}" for k, v in self.headline.items())
            )
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


@dataclass(frozen=True)
class SweepSpec:
    """Decomposition of a sweep-style experiment into independent points.

    ``points(config)`` yields a list of kwargs dicts (picklable,
    primitives or tuples of them); ``point(**kwargs)`` computes one row dict in
    isolation -- it must be a module-level function so worker processes
    can import it; ``combine(config, rows)`` assembles the final
    :class:`ExperimentResult` from the rows in ``points`` order.

    A module that publishes one as ``SWEEP`` has no ``run``:
    :func:`repro.exec.execute` runs each point as its own unit of work,
    inline or in a pool, and folds the rows in ``points`` order, so every
    ``--jobs`` value is bit-identical by construction.
    """

    points: Callable[[ExperimentConfig], list[dict]]
    point: Callable[..., dict]
    combine: Callable[[ExperimentConfig, list[dict]], ExperimentResult]


def experiment(
    experiment_id: str,
) -> Callable[[Callable[[ExperimentConfig], ExperimentResult]], Callable[..., ExperimentResult]]:
    """Wrap a ``fn(config) -> ExperimentResult`` as the module entry point.

    The wrapper enforces the one calling convention::

        run(ExperimentConfig("E1", full=True, seed=7))

    and rejects anything else with :class:`TypeError`. When metrics
    collection is active (:mod:`repro.obs.runtime`), the process's
    :class:`~repro.obs.frame.FrameSink` is reset before the run and its
    frame's ``to_dict()`` becomes the result's ``metrics`` afterwards.
    """

    def decorate(fn: Callable[[ExperimentConfig], ExperimentResult]):
        @functools.wraps(fn)
        def run(config: ExperimentConfig) -> ExperimentResult:
            if not isinstance(config, ExperimentConfig):
                raise TypeError(
                    f"run() takes an ExperimentConfig, got {type(config).__name__}"
                )
            if config.experiment_id != experiment_id:
                raise ValueError(
                    f"config is for {config.experiment_id!r}, "
                    f"this is experiment {experiment_id!r}"
                )
            aggregator = metrics_aggregator()
            if aggregator is not None:
                aggregator.reset()
            result = fn(config)
            if aggregator is not None:
                result.metrics = aggregator.frame.to_dict()
            return result

        run.experiment_id = experiment_id
        run.__wrapped_config_fn__ = fn
        return run

    return decorate


def measurement(fn: Callable[..., dict]) -> Callable[..., dict]:
    """Compute a pure device measurement once per process.

    ``fn`` must be a function of primitive arguments that returns a row
    of primitives. The memo key is the call's arguments bound to ``fn``'s
    signature with defaults applied, so a positional and a keyword call
    share one entry; every caller gets its own copy of the stored row.
    ``cache_clear()`` empties the memo, as on :func:`functools.lru_cache`.

    While metrics collection is active the memo is neither read nor
    filled: :attr:`ExperimentResult.metrics` summarises the events of the
    experiment's own run, so that run must do its own work.
    """
    signature = inspect.signature(fn)
    memo: dict[tuple, dict] = {}

    @functools.wraps(fn)
    def measured(*args: Any, **kwargs: Any) -> dict:
        if metrics_aggregator() is not None:
            return fn(*args, **kwargs)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        key = tuple(bound.arguments.items())
        if key not in memo:
            memo[key] = fn(*args, **kwargs)
        return dict(memo[key])

    measured.cache_clear = memo.clear
    return measured


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


__all__ = [
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "ExperimentResult",
    "SweepSpec",
    "experiment",
    "measurement",
]
