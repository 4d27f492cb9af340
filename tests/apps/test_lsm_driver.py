"""The shared LSM put driver: the old loop's schedule, from one key table.

``put_uniform`` puts each drawn key as its own value, taken from a key
table built once per store. Three stores shaped like the LSM experiments'
(E5's aged block backend on a conventional SSD, A2's zoned backend on ZNS,
E4's trimmed RAM disk) run once with the loop those experiments used
before (``put(key, i)``, a fresh key and value object per put) and once
with the driver. Everything a schedule decides must match: the tables'
key columns, level sizes, ``LSMStats`` with its I/O plan, the allocator or
zone log, and the device's op counts. And every entry the driven store holds
must be an object of the key table: that is what keeps a compaction
merge walking memory in key order.
"""

import pytest

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore, ZoneFileBackend, put_uniform
from repro.block.factory import DeviceSpec, build_stack
from repro.block.ramdisk import RamDisk
from repro.sim.rng import draw_ints, make_rng
from tests.fleet.test_clone import _log_state

# The lsm-* rigs' sizes in tests/test_fingerprints.py: five levels, device GC
# on the block stack and zone reclaim on the zoned one.
CFG = LSMConfig(memtable_pages=4, level0_pages=16, level_multiplier=4, max_table_pages=4)
FLASH = {"blocks_per_plane": 4}
N_KEYS = 24_000


def _aged_block():
    ssd = build_stack(
        DeviceSpec(kind="conventional-ssd", geometry="small", flash=FLASH, ftl={"op_ratio": 0.07})
    )
    backend = BlockFileBackend(ssd, trim_on_delete=False, allocation_strategy="aged")
    return LSMStore(backend, CFG), ssd.ftl.nand.counters


def _zoned():
    device = build_stack(
        DeviceSpec(
            kind="zns", geometry="small", flash=FLASH, blocks_per_zone=2, max_active_zones=14
        )
    )
    return LSMStore(ZoneFileBackend(device), CFG), device.nand.counters


def _ramdisk():
    disk = RamDisk(num_blocks=2048)
    return LSMStore(BlockFileBackend(disk, trim_on_delete=True), CFG), disk.counters


#: (store builder, (ops, seed) per phase); E5 runs two phases on one key table.
SHAPES = {
    "e5-aged-block": (_aged_block, ((20_000, 0), (10_000, 1))),
    "a2-zoned": (_zoned, ((30_000, 0),)),
    "e4-ramdisk-trim": (_ramdisk, ((30_000, 0),)),
}


def _backend_state(store: LSMStore) -> tuple:
    backend = store.backend
    if isinstance(backend, ZoneFileBackend):
        return _log_state(backend.log)
    allocator = backend.allocator
    return allocator.free_extents, allocator.free_blocks, allocator._cursor, backend._wal_extents


def _state(store: LSMStore, counters) -> dict:
    return {
        # Table ids come from one process-wide counter, so compare by level.
        "keys": [[table.keys for table in level] for level in store.levels],
        "handles": [[table.handle for table in level] for level in store.levels],
        "memtable": list(store.memtable.data),
        "levels": store.level_sizes_pages(),
        "stats": store.stats,
        "backend_stats": store.backend.stats,
        "backend": _backend_state(store),
        "counters": counters,
    }


def _held(store: LSMStore) -> list:
    """Every key and value object the memtable and the tables hold."""
    held = [*store.memtable.data, *store.memtable.data.values()]
    for level in store.levels:
        for table in level:
            held += table.keys
            held += table.values
    return held


@pytest.fixture(scope="module", params=list(SHAPES))
def driven(request):
    build, phases = SHAPES[request.param]
    looped, looped_counters = build()
    for ops, seed in phases:
        for i, key in enumerate(draw_ints(make_rng(seed), N_KEYS, ops)):
            looped.put(key, i)
    store, counters = build()
    keys = list(range(N_KEYS))
    for ops, seed in phases:
        put_uniform(store, keys, ops, make_rng(seed))
    return keys, (store, counters), (looped, looped_counters)


def test_the_driver_keeps_the_loops_schedule(driven):
    _, (store, counters), (looped, looped_counters) = driven
    store.check_invariants()
    assert store.stats.compactions > 10 and counters.count("program") > 0
    assert _state(store, counters) == _state(looped, looped_counters)


def test_every_entry_is_an_object_of_the_key_table(driven):
    keys, (store, _), (looped, _) = driven
    table = {id(key) for key in keys}
    assert all(id(entry) in table for entry in _held(store))
    for level in store.levels:
        for sstable in level:
            assert sstable.values == sstable.keys
    # The check sees per-put objects: the loop's store holds some.
    assert not all(id(entry) in table for entry in _held(looped))
