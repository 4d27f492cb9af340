"""A4 (ablation): the DRAM-less compromise (footnote 1).

"A few DRAM-less conventional SSDs exist, which store the mapping data in
host DRAM or on-board flash. However, they have not gained momentum in
datacenters, as they lack the performance and functionality of ZNS SSDs."

The ZNS pitch is *both* tiny DRAM *and* full performance; the DFTL route
gets tiny DRAM by paying flash I/O for mapping misses. This experiment
drives a *real* demand-paged FTL -- translation pages programmed to
flash, GTD, DRAM-budgeted CMT, translation-block GC -- and sweeps the
CMT byte budget under a mixed uniform workload. Every row reports the
measured device-WA decomposition (host / data-GC / translation) and the
translation-miss amplification actually paid, not an accounting
estimate. The last row gives the ZNS comparison: its zone map fits
entirely in kilobytes, so its overhead is identically zero.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment, measurement
from repro.sim.rng import Draws, make_rng


def _spec(quick: bool, **fields) -> DeviceSpec:
    return DeviceSpec(
        kind="dftl",
        geometry="small" if quick else "bench",
        ftl={"op_ratio": 0.11},
        **fields,
    )


@measurement
def measure_cmt_budget(cmt_bytes: int, quick: bool, seed: int) -> dict:
    """Drive one DFTL at the given CMT budget; returns the measured row.

    E2 samples three of these points, so a run shares the computation.
    """
    device = build_stack(_spec(quick, cmt_bytes=cmt_bytes))
    n = device.logical_pages
    for lpn in range(n):
        device.write(lpn, build_ops=False)
    draws = Draws(make_rng(seed))
    below, random = draws.below, draws.random
    ops = (2 if quick else 4) * n
    for _ in range(ops):
        lpn = below(n)
        if random() < 0.5:
            device.read(lpn, build_ops=False)
        else:
            device.write(lpn, build_ops=False)
    store = device.store
    coverage = store.capacity_pages / store.translation_pages
    # Every number below is a NAND count, split by the cause it was booked under.
    count = device.nand.counters.count
    host_reads = count("read", "host")
    host = count("program", "host")
    translation = count("program", "translation-writeback") + count("copy", "translation-gc")
    return {
        "cmt_kib": cmt_bytes // 1024,
        "cmt_translation_pages": store.capacity_pages,
        "map_coverage_pct": round(100 * min(coverage, 1.0), 1),
        "hit_rate": round(store.stats.hit_rate, 3),
        "read_overhead": round(count("read") / host_reads, 3),
        "write_overhead": round((host + translation) / host, 3),
        "wa_host_pages": host,
        "wa_data_gc_pages": count("copy", "gc"),
        "wa_translation_pages": translation,
        "device_wa": round(device.nand.counters.write_amplification(), 3),
        "translation_factor": round(translation / host, 3),
        "translation_gc_runs": store.stats.gc_runs,
    }


@experiment("A4")
def run(config: ExperimentConfig) -> ExperimentResult:
    quick = config.quick
    seed = config.seed
    spec = _spec(quick)
    geometry = spec.flash_geometry()
    probe = build_stack(spec)
    full_map = probe.full_map_translation_pages
    page = geometry.page_size
    sizes = sorted(
        {max(s, 1) for s in (1, 2, full_map // 4, full_map // 2, full_map)}
    )
    rows = [measure_cmt_budget(s * page, quick, seed) for s in sizes]
    rows.append(
        {
            "cmt_kib": max(geometry.total_blocks * 4 // 1024, 1),
            "cmt_translation_pages": "zns (zone map)",
            "map_coverage_pct": 100.0,
            "hit_rate": 1.0,
            "read_overhead": 1.0,
            "write_overhead": 1.0,
            "wa_translation_pages": 0,
            "translation_factor": 0.0,
        }
    )
    tiny, full = rows[0], rows[len(sizes) - 1]
    return ExperimentResult(
        experiment_id="A4",
        title="Ablation: DRAM-less mapping (DFTL) vs ZNS's thin map",
        paper_claim=(
            "DRAM-less conventional SSDs lack the performance of ZNS "
            "(footnote 1): demand-paged maps pay flash I/O per miss"
        ),
        rows=rows,
        headline={
            "tiny_cache_read_overhead": tiny["read_overhead"],
            "tiny_cache_hit_rate": tiny["hit_rate"],
            "tiny_cache_translation_factor": tiny["translation_factor"],
            "full_map_translation_factor": full["translation_factor"],
            "miss_amplification_grows_as_cmt_shrinks": all(
                rows[i]["translation_factor"] >= rows[i + 1]["translation_factor"]
                for i in range(len(sizes) - 1)
            )
            and tiny["translation_factor"] > full["translation_factor"],
            "full_map_pages": full_map,
        },
        notes=(
            "Uniform 50/50 read/write traffic -- the workload with the "
            "least translation locality, i.e. the DFTL worst case that "
            "datacenters cannot rule out. Translation traffic is real "
            "flash I/O here (CMT miss fetches, dirty writebacks, "
            "translation-block GC), decomposed out of the shared physics "
            "counters. ZNS's map is per-erasure-block, so it always "
            "fits: zero overhead by construction."
        ),
    )


__all__ = ["measure_cmt_budget", "run"]
