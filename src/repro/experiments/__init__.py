"""The paper's evaluation, regenerated.

One module per table/figure/claim (see DESIGN.md §4 for the index). Each
module exposes the uniform entry point
``run(config: ExperimentConfig) -> ExperimentResult``; the config's
``full`` flag trades workload length for runtime (benchmarks use quick
mode, EXPERIMENTS.md numbers come from full runs). The registry in
:mod:`repro.experiments.runner` drives them all, and :mod:`repro.exec`
adds caching and process-pool fan-out (the ``zns-repro`` CLI's
``--jobs`` / ``--cache-dir`` knobs).
"""

from repro.experiments.base import (
    SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentResult,
    SweepSpec,
)
from repro.experiments.runner import (
    MODULES,
    UnknownExperimentError,
    run_all,
    run_config,
)

__all__ = [
    "MODULES",
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "ExperimentResult",
    "SweepSpec",
    "UnknownExperimentError",
    "run_all",
    "run_config",
]
