"""Experiment registry, and one in-process run of a config.

The registry maps DESIGN.md ids to experiment *modules*; a module exports
``SWEEP`` (a :class:`~repro.experiments.base.SweepSpec`) when it is a
sweep, else ``run(config: ExperimentConfig)``. Execution (caching,
process-pool fan-out, progress) lives in :mod:`repro.exec`, whose
:func:`~repro.exec.execute` is the one thing that runs either;
:func:`run_config` is that call for one config, inline and uncached.
Importing this module imports all 23 experiment modules.
"""

from __future__ import annotations

from types import ModuleType

from repro.experiments import (
    a1_gc_policy,
    a2_zone_size,
    a3_erase_suspend,
    a4_dramless,
    a5_metadata,
    e1_wa_vs_op,
    e2_dram,
    e3_read_latency,
    e4_lsm_latency,
    e5_lsm_wa,
    e6_cost,
    e7_append,
    e8_active_zones,
    e9_placement,
    e10_timing,
    e11_gc_scheduling,
    e12_dmzoned,
    e13_cache,
    e14_endurance,
    e15_fault_resilience,
    e16_fleet_serving,
    e17_reset_pressure,
    t1_survey,
)
from repro.experiments.base import ExperimentConfig, ExperimentResult


class UnknownExperimentError(KeyError):
    """Raised for ids not in the registry; str() is the clean message."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else "unknown experiment"


#: id -> experiment module. Ordered as in DESIGN.md's per-experiment index.
MODULES: dict[str, ModuleType] = {
    "T1": t1_survey,
    "E1": e1_wa_vs_op,
    "E2": e2_dram,
    "E3": e3_read_latency,
    "E4": e4_lsm_latency,
    "E5": e5_lsm_wa,
    "E6": e6_cost,
    "E7": e7_append,
    "E8": e8_active_zones,
    "E9": e9_placement,
    "E10": e10_timing,
    "E11": e11_gc_scheduling,
    "E12": e12_dmzoned,
    "E13": e13_cache,
    "E14": e14_endurance,
    "E15": e15_fault_resilience,
    "E16": e16_fleet_serving,
    "E17": e17_reset_pressure,
    "A1": a1_gc_policy,
    "A2": a2_zone_size,
    "A3": a3_erase_suspend,
    "A4": a4_dramless,
    "A5": a5_metadata,
}

#: Ids included in ``zns-repro run all``. E15-E17 inject
#: flash/management faults, so keeping them out of the default suite keeps
#: the suite's output deterministic and fault-free; run them explicitly by id.
DEFAULT_IDS: tuple[str, ...] = tuple(
    key for key in MODULES if key not in ("E15", "E16", "E17")
)


def resolve_id(experiment_id: str) -> str:
    """Canonical registry key for ``experiment_id`` (case-insensitive)."""
    key = experiment_id.upper()
    if key not in MODULES:
        raise UnknownExperimentError(
            f"unknown experiment {experiment_id!r}; have {sorted(MODULES)}"
        )
    return key


def module_for(experiment_id: str) -> ModuleType:
    """The experiment module registered under ``experiment_id``."""
    return MODULES[resolve_id(experiment_id)]


def run_config(config: ExperimentConfig) -> ExperimentResult:
    """Run one experiment described by a config, in-process, uncached.

    This is :func:`repro.exec.execute` at ``jobs=1`` with no cache. A run
    that produced no result, or a sweep that lost points, raises
    :class:`RuntimeError` naming the first failure, its traceback
    included.
    """
    from repro.exec import ErrorResult, execute

    (record,) = execute([config])
    if not record.ok:
        error = record.error or ErrorResult.from_dict(record.result.metrics["errors"][0])
        raise RuntimeError(f"{error.describe()}\n{error.traceback}")
    return record.result


__all__ = [
    "DEFAULT_IDS",
    "MODULES",
    "UnknownExperimentError",
    "module_for",
    "resolve_id",
    "run_config",
]
