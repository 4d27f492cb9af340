"""The paper's evaluation, regenerated.

One module per table/figure/claim (see DESIGN.md §4 for the index). Each
module exports one entry point: ``SWEEP``, a
:class:`~repro.experiments.base.SweepSpec`, if it is a sweep, else
``run(config: ExperimentConfig) -> ExperimentResult``. The config's
``full`` flag trades workload length for runtime (benchmarks use quick
mode, EXPERIMENTS.md numbers come from full runs). The registry in
:mod:`repro.experiments.runner` indexes them, and
:func:`repro.exec.execute` runs both kinds, with caching and
process-pool fan-out (the ``zns-repro`` CLI's ``--jobs`` /
``--cache-dir`` knobs); :func:`run_config` is that call for one config.
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
    run_config,
)

__all__ = [
    "MODULES",
    "SCHEMA_VERSION",
    "ExperimentConfig",
    "ExperimentResult",
    "SweepSpec",
    "UnknownExperimentError",
    "run_config",
]
