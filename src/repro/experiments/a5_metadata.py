"""A5 (ablation): FTL metadata durability overhead (§2.1).

The FTL must keep its data structures "durably and in a consistent state
to prepare for power-off events" (§2.1). For a page-granularity map,
random host writes dirty translation pages nearly one-for-one per
metadata-page span, so each checkpoint rewrites a large dirty set; a ZNS
zone map's whole state fits in a couple of pages regardless.

We sweep the checkpoint interval under uniform random writes and report
the metadata surcharge on top of GC write amplification. The ZNS row
checkpoints its entire (tiny) map at the same cadence.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.flash.geometry import ZonedGeometry
from repro.ftl.checkpoint import CheckpointedFTL
from repro.sim.rng import draw_ints, make_rng


def measure_conventional(interval: int, quick: bool, seed: int) -> dict:
    ftl = build_stack(
        DeviceSpec(
            kind="conventional-ftl",
            geometry="small" if quick else "bench",
            ftl={"op_ratio": 0.11},
        )
    )
    device = CheckpointedFTL(ftl, interval_writes=interval)
    n = device.ftl.logical_pages
    for lpn in range(n):
        device.write(lpn, build_ops=False)
    for lpn in draw_ints(make_rng(seed), n, (2 if quick else 4) * n):
        device.write(lpn, build_ops=False)
    stats = device.policy.stats
    return {
        "ftl": "conventional",
        "checkpoint_interval": interval,
        "metadata_pages": stats.metadata_pages_written,
        "metadata_overhead_pct": round(
            100 * stats.metadata_overhead(ftl.nand.counters.count("program", "host")), 2
        ),
        "total_wa": round(device.total_write_amplification, 3),
    }


def measure_zns(interval: int, quick: bool, seed: int) -> dict:
    """ZNS: the zone map is a handful of pages; checkpoints are O(1)."""
    geometry = ZonedGeometry.small() if quick else ZonedGeometry.bench()
    # Zone map bytes -> metadata pages per checkpoint (always everything).
    map_pages = max(geometry.flash.total_blocks * 4 // geometry.flash.page_size, 1)
    host_writes = (3 if quick else 5) * geometry.flash.total_pages
    checkpoints = host_writes // interval if interval else 0
    metadata_pages = checkpoints * map_pages
    return {
        "ftl": "zns",
        "checkpoint_interval": interval,
        "metadata_pages": metadata_pages,
        "metadata_overhead_pct": round(100 * metadata_pages / host_writes, 2),
        "total_wa": round(1.0 + metadata_pages / host_writes, 3),
    }


def datacenter_scale_rows(intervals: list[int]) -> list[dict]:
    """Closed-form at 1 TiB: the simulator's tiny map saturates its dirty
    set, masking the real cost. At scale, a page map has ~256k metadata
    pages, so 'interval' uniform random writes dirty ~'interval' distinct
    metadata pages (birthday-collision odds are negligible) -- checkpoint
    overhead approaches 100%. A ZNS zone map is ~64 pages total.
    """
    conv_map_pages = (1 << 40) // (4 * 1024) * 4 // 4096  # 256 Ki
    zns_map_pages = (1 << 40) // (16 << 20) * 4 // 4096 + 1  # ~1
    rows = []
    for interval in intervals:
        conv_dirty = min(interval, conv_map_pages)
        rows.append(
            {
                "ftl": "conventional@1TiB (arithmetic)",
                "checkpoint_interval": interval,
                "metadata_pages": conv_dirty,
                "metadata_overhead_pct": round(100 * conv_dirty / interval, 2),
                "total_wa": "-",
            }
        )
        rows.append(
            {
                "ftl": "zns@1TiB (arithmetic)",
                "checkpoint_interval": interval,
                "metadata_pages": zns_map_pages,
                "metadata_overhead_pct": round(100 * zns_map_pages / interval, 2),
                "total_wa": "-",
            }
        )
    return rows


@experiment("A5")
def run(config: ExperimentConfig) -> ExperimentResult:
    quick = config.quick
    seed = config.seed
    intervals = [1024, 4096, 16384]
    rows = [measure_conventional(i, quick, seed) for i in intervals]
    rows += [measure_zns(i, quick, seed) for i in intervals]
    rows += datacenter_scale_rows(intervals)
    conv = rows[0]["metadata_overhead_pct"]
    zns = rows[len(intervals)]["metadata_overhead_pct"]
    return ExperimentResult(
        experiment_id="A5",
        title="Ablation: mapping-durability (checkpoint) overhead",
        paper_claim=(
            "The FTL must store its data structures durably for power-off "
            "(§2.1); the cost scales with mapping-state size"
        ),
        rows=rows,
        headline={
            "conventional_overhead_pct_at_1k": conv,
            "zns_overhead_pct_at_1k": zns,
            "datacenter_conventional_pct_at_1k": rows[len(intervals) * 2][
                "metadata_overhead_pct"
            ],
            "datacenter_zns_pct_at_1k": rows[len(intervals) * 2 + 1][
                "metadata_overhead_pct"
            ],
        },
        notes=(
            "Uniform random writes (worst case for translation-page "
            "dirtying). Simulator rows understate the conventional cost "
            "because the scaled-down map saturates its dirty set; the "
            "1 TiB arithmetic rows show the real gap: ~100% metadata "
            "surcharge vs ~6% at a 1024-write cadence -- and the ZNS row "
            "conservatively rewrites its whole map every checkpoint."
        ),
    )


__all__ = ["measure_conventional", "measure_zns", "run"]
