"""E13: Flash caching on each interface (§2.4 IBM numbers, §4.1).

Caching is the paper's recurring motivating application (CacheLib, RIPQ,
SALSA). A set-associative small-object cache does random in-place page
rewrites -- the conventional FTL's worst case -- while a zone-log cache
admits by appending and evicts whole zones by reset. Same zipfian
workload, same cache capacity; compare the device-level WA, erase counts
(endurance), and hit ratios.
"""

from __future__ import annotations

from repro.apps.cache import SetAssociativeCache, ZoneLogCache
from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.workloads.synthetic import zipfian_stream


@experiment("E13")
def run(config: ExperimentConfig) -> ExperimentResult:
    quick = config.quick
    seed = config.seed
    universe = 60_000
    requests = 150_000 if quick else 500_000

    conv = build_stack(
        DeviceSpec(kind="conventional-ssd", geometry="small", ftl={"op_ratio": 0.07})
    )
    set_cache = SetAssociativeCache(conv.ftl, ways=4)
    for obj in zipfian_stream(universe, requests, theta=0.9, seed=seed):
        if not set_cache.get(obj):
            set_cache.admit(obj)
    set_cache.check_invariants()
    conv_flash = conv.ftl.nand.counters.programmed_pages()
    conv_row = {
        "cache": "set-assoc/conventional",
        "hit_ratio": round(set_cache.stats.hit_ratio, 3),
        "device_wa": round(conv_flash / max(set_cache.stats.insertions, 1), 2),
        "erases": conv.ftl.nand.counters.count("erase"),
    }

    zns = build_stack(
        DeviceSpec(kind="zns", geometry="small", blocks_per_zone=2, max_active_zones=14)
    )
    log_cache = ZoneLogCache(zns, readmit_hot=True)
    for obj in zipfian_stream(universe, requests, theta=0.9, seed=seed):
        if not log_cache.get(obj):
            log_cache.admit(obj)
    log_cache.check_invariants()
    zns_flash = zns.nand.counters.programmed_pages()
    zns_row = {
        "cache": "zone-log/zns",
        "hit_ratio": round(log_cache.stats.hit_ratio, 3),
        "device_wa": round(zns_flash / max(log_cache.stats.insertions, 1), 2),
        "erases": zns.nand.counters.count("erase"),
    }

    rows = [conv_row, zns_row]
    return ExperimentResult(
        experiment_id="E13",
        title="Flash cache: in-place set-associative vs zone log",
        paper_claim=(
            "Flash caches fight the block interface (buckets, DRAM "
            "buffers); on ZNS the log design gets WA~1 and host-controlled "
            "eviction (cf. IBM SALSA's 22x tails / 65% throughput)"
        ),
        rows=rows,
        headline={
            "conventional_wa": conv_row["device_wa"],
            "zns_wa": zns_row["device_wa"],
            "erase_reduction": round(conv_row["erases"] / max(zns_row["erases"], 1), 2),
            "hit_ratio_delta": round(zns_row["hit_ratio"] - conv_row["hit_ratio"], 3),
        },
        notes=(
            "Identical zipfian(0.9) traffic and flash capacity. The zone-log "
            "cache readmits objects hit since insertion, trading a little "
            "relocation for hit ratio -- a knob only the host-side design has."
        ),
    )


__all__ = ["run"]
