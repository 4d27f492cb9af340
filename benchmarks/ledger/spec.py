"""What the ledger runs and how it names host time: workloads and layer buckets.

Metric names, units and the one-line reason for each workload are declared
once, in ``BENCHMARK.json``; this module holds what JSON cannot: the
experiment configs behind each workload name and the rule that maps a
profiled code object to a layer bucket.

Sizes are the experiments' quick mode, cut to fit the driver's time cap
(136 runs in 3420 s, README "Sizing"): a sweep whose ``combine`` accepts
fewer rows runs a parameter subset, and A1 and E12 -- whose ``combine``
indexes the full row set, 5-6 s each -- are left out of the issue's lists.
Every layer the issue names is still reached, and every result row still
has a golden row to match.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
REPRO_DIR = str(SRC / "repro") + os.sep
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: The only names the benchmark may import from ``repro``: entry points no
#: ROADMAP item plans to remove. ``run.py --selftest`` holds the code to it.
ALLOWED_REPRO_IMPORTS = frozenset(
    {
        "repro.experiments.ExperimentConfig",
        "repro.exec.execute",
        "repro.block.factory.DeviceSpec",
        "repro.block.factory.build_stack",
        "repro.apps.lsm.LSMStore",
        "repro.apps.lsm.LSMConfig",
        "repro.apps.lsm.BlockFileBackend",
        "repro.obs.runtime.install_global_sink",
        "repro.obs.runtime.remove_global_sink",
    }
)

#: The physical flash ops the counting sink tallies, by per-layer metric name.
FLASH_OP_COUNTS = {op: f"flash.nand.{op}_ops" for op in ("program", "read", "erase", "copy")}

Configs = tuple[tuple[str, dict[str, Any]], ...]


@dataclass(frozen=True)
class OpMix:
    """Sizes of the ``lsm_readmix`` op loop (the mix itself is fixed in child.py)."""

    prefill_puts: int
    keys: int
    ops: int


@dataclass(frozen=True)
class Workload:
    """One named set of inputs: experiment configs through ``execute``, or an op mix."""

    configs: Configs = ()
    jobs: int = 1
    mix: OpMix | None = None
    #: Serial workloads whose configs this one repeats through the pool.
    serial_twins: tuple[str, ...] = ()


_LSM_WRITE: Configs = (("E5", {"backends": ["block/aged-fs"]}),)
_DEVICE_SWEEPS: Configs = (
    ("E14", {}),
    ("E2", {}),
    ("A4", {}),
    ("E1", {}),
    ("E13", {}),
    ("E9", {"policies": ["none", "owner", "oracle"]}),
    ("E7", {}),
    ("E8", {}),
)
_TIMED_IO: Configs = (
    ("E3", {}),
    ("E11", {}),
    ("A3", {"slices": [8]}),
)
_FLEET_SERVING: Configs = (("E16", {"placements": ["pack"]}), ("E17", {}))

WORKLOADS: dict[str, Workload] = {
    "lsm_write": Workload(_LSM_WRITE),
    "lsm_readmix": Workload(mix=OpMix(prefill_puts=80_000, keys=100_000, ops=120_000)),
    "device_sweeps": Workload(_DEVICE_SWEEPS),
    "timed_io": Workload(_TIMED_IO),
    "fleet_serving": Workload(_FLEET_SERVING),
    "suite_jobs2": Workload(
        _TIMED_IO + _FLEET_SERVING, jobs=2, serial_twins=("timed_io", "fleet_serving")
    ),
}

_TINY: Configs = (("E7", {}), ("E8", {}))

#: ``--selftest`` sizes: the same pipeline over seconds of work.
SHRUNK_WORKLOADS: dict[str, Workload] = {
    name: (
        Workload(mix=OpMix(prefill_puts=3_000, keys=2_000, ops=2_000))
        if workload.mix
        else Workload(_TINY, workload.jobs, serial_twins=workload.serial_twins)
    )
    for name, workload in WORKLOADS.items()
}

# -- Layer buckets ---------------------------------------------------------------

#: Packages split by module: the named modules get a bucket each, the rest
#: of the package shares ``<package>.rest``.
_SPLIT = {
    "apps": ("lsm",),
    "ftl": ("ftl", "mapping", "dftl"),
    "flash": ("nand", "geometry"),
    "sim": ("engine", "compiled"),
}
_WHOLE = frozenset(
    {
        "block", "hostio", "placement", "zns", "obs", "faults", "fleet",
        "exec", "experiments", "workloads", "metrics",
    }
)  # fmt: skip
_NUMPY_DIR = os.sep + "numpy" + os.sep


def bucket_of(code: Any) -> str:
    """The layer a cProfile row belongs to, from where its code lives.

    ``code`` is a code object, or for a built-in the string cProfile gives
    it (which carries the defining module, e.g. ``numpy``). Bucketing is by
    file path only -- never by a function's name -- so deleting an
    execution tier cannot break the ledger.
    """
    if isinstance(code, str):
        return "numpy" if "numpy" in code else "other"
    filename = code.co_filename
    if filename.startswith(REPRO_DIR):
        package, _, rest = filename[len(REPRO_DIR) :].partition(os.sep)
        if package in _WHOLE:
            return package
        if package in _SPLIT:
            module = rest.partition(os.sep)[0].removesuffix(".py")
            return f"{package}.{module if module in _SPLIT[package] else 'rest'}"
        return "other"
    return "numpy" if _NUMPY_DIR in filename else "other"


# -- Declarations ----------------------------------------------------------------


def load_declarations() -> dict[str, Any]:
    """``BENCHMARK.json``: workload names, metric names, units and bounds."""
    return json.loads(BENCHMARK_JSON.read_text())
