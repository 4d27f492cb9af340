"""Experiment registry and runner.

The registry maps DESIGN.md ids to experiment *modules*; every module
exposes the uniform entry point ``run(config: ExperimentConfig)``.
Execution (caching, process-pool fan-out, progress) lives in
:mod:`repro.exec`; this module is only the index. Importing it imports
all 23 experiment modules.
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

#: Ids included in ``run all`` / :func:`run_all`. E15-E17 inject
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
    """Run one experiment described by a config, in-process, uncached."""
    return module_for(config.experiment_id).run(config)


def run_all(
    quick: bool = True,
    seed: int = 0,
    jobs: int = 1,
    cache=None,
) -> list[ExperimentResult]:
    """Run every experiment in index order; fans out when ``jobs > 1``."""
    from repro.exec import execute

    configs = [
        ExperimentConfig(key, full=not quick, seed=seed) for key in DEFAULT_IDS
    ]
    return [record.result for record in execute(configs, jobs=jobs, cache=cache)]


__all__ = [
    "DEFAULT_IDS",
    "MODULES",
    "UnknownExperimentError",
    "module_for",
    "resolve_id",
    "run_all",
    "run_config",
]
