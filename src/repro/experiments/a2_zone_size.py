"""A2 (ablation): zone-size sensitivity for the zone-native LSM backend.

Zones must be at least one erasure block (§2.1); vendors choose how many
blocks to aggregate (the paper's reference device uses 1 GB zones). Wider
zones amortize reset bookkeeping and stripe across more planes, but mix
more files per zone, so reclaim relocates more when lifetimes diverge.
This ablation sweeps blocks-per-zone with the LSM workload held fixed.
"""

from __future__ import annotations

from repro.apps.lsm import LSMConfig, LSMStore, ZoneFileBackend, put_uniform
from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec
from repro.sim.rng import make_rng


def measure(blocks_per_zone: int, quick: bool, seed: int) -> dict:
    spec = DeviceSpec(
        kind="zns",
        geometry="small",
        blocks_per_zone=blocks_per_zone,
        max_active_zones=14,
    )
    zoned = spec.zoned_geometry()
    device = build_stack(spec)
    store = LSMStore(
        ZoneFileBackend(device),
        LSMConfig(memtable_pages=64, level0_pages=768, max_table_pages=32),
    )
    ops = 250_000 if quick else 500_000
    put_uniform(store, list(range(100_000)), ops, make_rng(seed))
    log, counters = store.backend.log, device.nand.counters
    return {
        "blocks_per_zone": blocks_per_zone,
        "zone_mb": zoned.zone_size_bytes / (1024 * 1024),
        "backend_wa": round(counters.write_amplification(), 3),
        "free_reset_pct": round(100.0 * log.free_resets / max(log.resets, 1), 1),
        "total_wa_over_app": round(
            counters.programmed_pages() / max(store.stats.app_pages_written, 1), 3
        ),
    }


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One independent work unit per zone width."""
    # No width 16: 8 zones leave reclaim nothing once four frontiers and two reserves are out.
    widths = config.param("widths", [1, 2, 4, 8])
    return [
        {"blocks_per_zone": w, "quick": config.quick, "seed": config.seed}
        for w in widths
    ]


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    return ExperimentResult(
        experiment_id="A2",
        title="Ablation: zone width vs zone-native LSM reclaim overhead",
        paper_claim=(
            "Zones are at least erasure-block sized; the width is a vendor "
            "choice with host-visible consequences (§2.1, §4.2)"
        ),
        rows=rows,
        headline={
            "narrowest_wa": rows[0]["backend_wa"],
            "widest_wa": rows[-1]["backend_wa"],
        },
        notes=(
            "Narrow zones reset for free more often (files fill whole "
            "zones); wide zones mix levels and relocate more at reclaim."
        ),
    )


SWEEP = SweepSpec(points=sweep_points, point=measure, combine=combine)


__all__ = ["SWEEP", "measure"]
