"""Pinned fingerprint of the LSM flush/compaction schedule.

A speed-only change to ``repro.apps.lsm`` must leave every count below
where it is. The digests were recorded at commit a72f8c1, before the
table-build path was rewritten, and stand in tier-1 for the golden
``cmp`` of E5/A2/E4 (minutes; this takes about two seconds). A deliberate
schedule or physics change re-records them and says so.
"""

import hashlib
import json
import random
from dataclasses import asdict

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore, ZoneFileBackend
from repro.block.factory import DeviceSpec, build_stack

# Small tables and a 2,048-page device: 30k puts then reach five levels,
# device GC on the block stack and zone reclaim on the zoned one.
CFG = LSMConfig(memtable_pages=4, level0_pages=16, level_multiplier=4, max_table_pages=4)
FLASH = {"blocks_per_plane": 4}
N_KEYS = 24_000
PUTS, GETS, SCANS = 30_000, 5_000, 200

PINNED = {
    "block": "5740dfe282b6072b7dabcad40f48ad18fd52fa41f04c502d90f2e3669c5cc924",
    "zone": "890e22b90d36b2a5c77dfb04264ae2849fc79719d66a23614e69c8ea050b5386",
}


def _digest(store: LSMStore, nand) -> str:
    counters = nand.counters
    log = getattr(store.backend, "log", None)  # the zoned backend's zone log
    state = {
        "stats": {k: v for k, v in vars(store.stats).items() if isinstance(v, int)},
        "io_plan": [asdict(entry) for entry in store.stats.io_plan],
        "levels": store.level_sizes_pages(),
        # The backend's page traffic is the NAND's, cause by cause.
        "backend": {
            **asdict(store.backend.stats),
            "zones_reset": log.resets if log else 0,
            "free_zone_resets": log.free_resets if log else 0,
            "pages_written": counters.count("program", "host"),
            "pages_read": counters.count("read", "host"),
            "pages_relocated": counters.count("program", "reclaim"),
        },
        "nand": [counters.count("program"), counters.count("copy"), counters.count("erase")],
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def _write(store: LSMStore, rng: random.Random) -> None:
    for i in range(PUTS):
        if i % 50 == 49:
            store.delete(rng.randrange(N_KEYS))
        else:
            store.put(rng.randrange(N_KEYS), i)
        if i == PUTS // 2:
            store.crash_and_recover()


def test_block_backend_fingerprint():
    ssd = build_stack(
        DeviceSpec(
            kind="conventional-ssd", geometry="small", flash=FLASH, ftl={"op_ratio": 0.07}
        )
    )
    store = LSMStore(
        BlockFileBackend(ssd, trim_on_delete=False, allocation_strategy="aged"), CFG
    )
    rng = random.Random(13)
    _write(store, rng)
    for _ in range(GETS):
        store.get(rng.randrange(2 * N_KEYS))
    for _ in range(SCANS):
        lo = rng.randrange(N_KEYS)
        store.scan(lo, lo + 100)
    store.check_invariants()
    assert _digest(store, ssd.ftl.nand) == PINNED["block"]
    # The digest holds no flash reads: every get that reached a table and
    # every page a scan charged is one. Recorded on 1368ad7, beside it.
    reads = ssd.ftl.nand.counters.count("read")
    assert reads == store.stats.table_reads + store.stats.scan_pages_read == 3_098
    # What the in-place ``ExtentAllocator.free`` relies on: the free list
    # is sorted and fully coalesced after every allocate and free.
    allocator = store.backend.allocator
    free = allocator._free
    assert all(left.end < right.start for left, right in zip(free, free[1:]))
    assert sum(extent.length for extent in free) == allocator.free_blocks


def test_zone_backend_fingerprint():
    # Write-only because the pinned digest was recorded on a write-only
    # run; reads through this backend are covered by the dict-model
    # property test in tests/apps/test_lsm.py.
    device = build_stack(
        DeviceSpec(
            kind="zns",
            geometry="small",
            flash=FLASH,
            blocks_per_zone=2,
            max_active_zones=14,
        )
    )
    store = LSMStore(ZoneFileBackend(device), CFG)
    _write(store, random.Random(13))
    store.check_invariants()
    assert _digest(store, device.nand) == PINNED["zone"]
