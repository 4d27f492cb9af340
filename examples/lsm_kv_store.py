#!/usr/bin/env python3
"""An LSM key-value store on three storage stacks (the E5 scenario).

The same RocksDB-like store -- memtable, leveled compaction, WAL -- runs
over a conventional SSD (with and without TRIM) and a ZNS device with a
ZenFS-style zone backend, under an identical overwrite-heavy workload.
The printout decomposes write amplification into what the application
itself causes (compaction, WAL) and what each interface adds below it.

Run: ``python examples/lsm_kv_store.py``
"""

from repro.apps.lsm import (
    BlockFileBackend,
    LSMConfig,
    LSMStore,
    ZoneFileBackend,
    put_uniform,
)
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD
from repro.ftl.ftl import FTLConfig
from repro.sim.rng import draw_ints, make_rng
from repro.zns.device import ZNSDevice

N_KEYS = 150_000
OPS = 350_000
CFG = LSMConfig(memtable_pages=64, level0_pages=768, max_table_pages=32)


def report(label: str, store: LSMStore, flash_pages: int) -> None:
    page_size, user_bytes = store.backend.page_size, store.stats.user_bytes
    app_wa = store.stats.app_pages_written * page_size / user_bytes
    total_wa = flash_pages * page_size / user_bytes
    print(f"{label:18s} app WA {app_wa:5.2f}  x  interface tax "
          f"{total_wa / app_wa:4.2f}  =  total {total_wa:5.2f}")


def main() -> None:
    print(f"workload: {OPS:,} puts over {N_KEYS:,} keys "
          f"(128 B entries, overwrite-heavy)\n")

    for label, trim in [("block, no TRIM", False), ("block, TRIM", True)]:
        ssd = ConventionalSSD(FlashGeometry.small(), FTLConfig(op_ratio=0.07))
        store = LSMStore(
            BlockFileBackend(ssd, trim_on_delete=trim, allocation_strategy="aged"),
            CFG,
        )
        put_uniform(store, list(range(N_KEYS)), OPS, make_rng(0))
        report(label, store, ssd.ftl.nand.counters.programmed_pages())

    zoned = ZonedGeometry(
        flash=FlashGeometry.small(), blocks_per_zone=2, max_active_zones=14
    )
    device = ZNSDevice(zoned)
    store = LSMStore(ZoneFileBackend(device), CFG)
    put_uniform(store, list(range(N_KEYS)), OPS, make_rng(0))
    report("zns, zenfs-like", store, device.nand.counters.programmed_pages())
    log = store.backend.log
    relocated = device.nand.counters.count("program", "reclaim")
    print(f"\nzone backend details: {log.resets} zone resets, "
          f"{log.free_resets} were free "
          f"(fully-dead zones), {relocated} pages relocated")
    print("level sizes (pages):", store.level_sizes_pages())

    # Correctness spot check: a sample of the keys written reads back.
    written = dict.fromkeys(draw_ints(make_rng(0), N_KEYS, OPS))
    sample = list(written)[::4001]
    assert all(store.get(k) == k for k in sample)
    print(f"verified {len(sample)} random keys read back correctly")


if __name__ == "__main__":
    main()
