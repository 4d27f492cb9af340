"""E2: Mapping-table DRAM, conventional vs ZNS (§2.2).

"An optimized mapping table in a conventional SSD requires about 4 bytes
per page. This is around 1 GB of on-board DRAM per TB of flash ... In ZNS
SSDs ... assuming a similar 4-byte overhead per block and 16 MB erasure
blocks, it requires only ~256 KB."

Closed-form arithmetic, cross-checked against the live data structures
(we instantiate a scaled-down FullPageMap and ZnsFTL and confirm their
self-reported DRAM footprints extrapolate to the same numbers) -- plus a
*measured* sweep of the third option the paper's footnote 1 dismisses:
shrinking the conventional map's DRAM by demand-paging it from flash.
Each sweep row runs a real demand-paged FTL at a CMT byte budget and
reports the translation-miss amplification that budget buys, so the
DRAM-vs-performance trade is data, not assumption.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_stack
from repro.cost.dram import (
    conventional_mapping_dram_bytes,
    dram_overhead_table,
    zns_mapping_dram_bytes,
)
from repro.experiments.a4_dramless import measure_cmt_budget
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.flash.geometry import GIB, KIB, TIB, FlashGeometry, ZonedGeometry
from repro.flash.nand import NandArray
from repro.ftl.mapping import FullPageMap
from repro.zns.ftl import ZnsFTL


#: The columns E2 reports from each of A4's measured DFTL rows.
_DFTL_COLUMNS = ("cmt_kib", "map_coverage_pct", "hit_rate", "read_overhead", "translation_factor")


@experiment("E2")
def run(config: ExperimentConfig) -> ExperimentResult:
    rows = dram_overhead_table()

    # Cross-check: the live structures report the same per-entry rates.
    geometry = FlashGeometry.small()
    page_map = FullPageMap(geometry, logical_pages=geometry.total_pages)
    per_page = page_map.dram_bytes() / geometry.total_pages
    zoned = ZonedGeometry.small()
    zns_ftl = ZnsFTL(zoned, NandArray(zoned.flash))
    per_block = zns_ftl.dram_bytes() / zoned.flash.total_blocks

    # Measured: what shrinking the conventional map's DRAM actually costs.
    # Three of A4's quick-size DFTL runs, in small geometry whatever the
    # mode: the sweep probes the shape of the trade, which is scale-free,
    # and A4 covers the bench-scale measurement.
    probe = build_stack(
        DeviceSpec(kind="dftl", geometry="small", ftl={"op_ratio": 0.11})
    )
    full_map = probe.full_map_translation_pages
    page = geometry.page_size
    budgets = sorted({max(s, 1) for s in (1, full_map // 2, full_map)})
    sweep = []
    for budget in budgets:
        row = measure_cmt_budget(budget * page, True, config.seed)
        sweep.append({"model": "dftl-measured", **{k: row[k] for k in _DFTL_COLUMNS}})
    rows = rows + sweep

    conv_1tb = conventional_mapping_dram_bytes(TIB)
    zns_1tb = zns_mapping_dram_bytes(TIB)
    tiny, full = sweep[0], sweep[-1]
    return ExperimentResult(
        experiment_id="E2",
        title="On-board DRAM for address translation",
        paper_claim="~1 GB/TB (conventional, 4 B/page) vs ~256 KB/TB (ZNS, 4 B/16 MB block)",
        rows=rows,
        headline={
            "conventional_gb_per_tb": round(conv_1tb / GIB, 3),
            "zns_kb_per_tb": round(zns_1tb / KIB, 1),
            "reduction_factor": round(conv_1tb / zns_1tb),
            "live_bytes_per_page": per_page,
            "live_bytes_per_block": per_block,
            "dftl_tiny_cmt_read_overhead": tiny["read_overhead"],
            "dftl_full_cmt_read_overhead": full["read_overhead"],
            "dftl_tiny_cmt_translation_factor": tiny["translation_factor"],
        },
        notes=(
            "Closed-form at datacenter scale; live FullPageMap/ZnsFTL "
            "structures confirm 4 bytes per entry at simulator scale. "
            "The dftl-measured rows sweep a real demand-paged FTL's CMT "
            "budget: conventional SSDs can shed mapping DRAM only by "
            "paying measured flash I/O per translation miss, while the "
            "ZNS zone map fits in DRAM at every scale."
        ),
    )


__all__ = ["run"]
