"""Tests for the LSM store: memtable, sstables, compaction, backends."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import (
    BlockFileBackend,
    LSMConfig,
    LSMStore,
    MemTable,
    SSTable,
    ZoneFileBackend,
)
from repro.apps.lsm.backends import AllocationError, ExtentAllocator
from repro.apps.lsm.memtable import TOMBSTONE
from repro.apps.lsm.compaction import LeveledCompaction
from repro.apps.lsm.sstable import overlapping_run, size_in_pages
from repro.block.factory import DeviceSpec, build_stack
from repro.block.ramdisk import RamDisk
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.zns.device import ZNSDevice

SMALL_CFG = LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8)


def ram_store(cfg=SMALL_CFG):
    return LSMStore(BlockFileBackend(RamDisk(1 << 14), trim_on_delete=True), cfg)


# Eight entries per flush, two- and three-page tables over 120-page devices
# with five-page zones: a few hundred ops wrap the block allocator and fill,
# seal and reset zones at every alignment of file end and zone end.
TINY_CFG = LSMConfig(
    memtable_pages=2, entry_bytes=1024, level0_pages=4, level_multiplier=2, max_table_pages=3
)


def tiny_zns(zones=24, zone_pages=5):
    flash = FlashGeometry(
        pages_per_block=zone_pages, blocks_per_plane=zones // 4, planes_per_channel=1, channels=4
    )
    return ZNSDevice(ZonedGeometry(flash=flash, blocks_per_zone=1, max_active_zones=8))


def tiny_stores():
    """One store per backend, the same size."""
    return [
        LSMStore(BlockFileBackend(RamDisk(120), trim_on_delete=True), TINY_CFG),
        LSMStore(ZoneFileBackend(tiny_zns()), TINY_CFG),
    ]


class TestMemTable:
    def test_put_get(self):
        mt = MemTable()
        mt.put("a", 1)
        assert mt.data == {"a": 1} and len(mt) == 1
        store = ram_store()
        store.put("a", 1)
        store.put("c", None)  # a stored None is a hit, not a miss
        assert store.memtable.data == {"a": 1, "c": None}
        assert (store.get("a"), store.get("b"), store.get("c")) == (1, None, None)
        assert store.stats.table_reads == store.stats.bloom_skips == 0

    def test_delete_is_tombstone(self):
        mt = MemTable()
        mt.delete("a")
        assert mt.data["a"] is TOMBSTONE
        store = ram_store()
        store.put("a", 1)
        store.flush()
        store.delete("a")
        assert store.memtable.data["a"] is TOMBSTONE
        assert store.get("a") is None  # shadows the flushed version unread
        assert store.stats.table_reads == store.stats.bloom_skips == 0

    def test_sorted_items(self):
        mt = MemTable()
        for k in ("c", "a", "b"):
            mt.put(k, k)
        mt.delete("b")
        keys, values = mt.sorted_columns()
        assert keys == ["a", "b", "c"]
        assert values == ["a", TOMBSTONE, "c"]


class TestSSTable:
    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            SSTable(keys=[2, 1], values=["b", "a"], level=0, size_pages=1)
        with pytest.raises(ValueError):
            SSTable(keys=[1, 1], values=["a", "b"], level=0, size_pages=1)
        with pytest.raises(ValueError):
            SSTable(keys=[], values=[], level=0, size_pages=1)

    def test_find(self):
        t = SSTable(keys=[1, 3], values=["a", "c"], level=0, size_pages=1)
        assert t.find(1) == (True, "a", 0)
        assert t.find(2)[0] is False
        assert t.find(3) == (True, "c", 1)

    def test_overlap(self):
        a = SSTable(keys=[1, 5], values=["a", "e"], level=1, size_pages=1)
        b = SSTable(keys=[4, 9], values=["d", "i"], level=1, size_pages=1)
        c = SSTable(keys=[6, 9], values=["f", "i"], level=1, size_pages=1)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_page_of_entry_monotonic(self):
        t = SSTable(keys=list(range(100)), values=list(range(100)), level=0, size_pages=4)
        pages = [t.page_of_entry(i) for i in range(100)]
        assert pages == sorted(pages)
        assert pages[0] == 0
        assert pages[-1] == 3

    def test_size_in_pages(self):
        assert size_in_pages(1, 128, 4096) == 1
        assert size_in_pages(32, 128, 4096) == 1
        assert size_in_pages(33, 128, 4096) == 2


class TestExtentAllocator:
    def test_allocate_free_roundtrip(self):
        alloc = ExtentAllocator(100)
        extents = alloc.allocate(30)
        assert alloc.free_blocks == 70
        alloc.free(extents)
        assert alloc.free_blocks == 100

    def test_exhaustion_rejected(self):
        alloc = ExtentAllocator(10)
        alloc.allocate(8)
        with pytest.raises(AllocationError):
            alloc.allocate(5)

    def test_fragmented_allocation_spans_extents(self):
        alloc = ExtentAllocator(100, strategy="first-fit")
        a = alloc.allocate(40)
        b = alloc.allocate(40)
        alloc.free(a)  # free [0,40); [80,100) also free
        spanning = alloc.allocate(50)
        assert len(spanning) == 2
        assert sum(e.length for e in spanning) == 50

    def test_double_free_rejected(self):
        alloc = ExtentAllocator(100)
        extents = alloc.allocate(10)
        alloc.free(extents)
        with pytest.raises(ValueError):
            alloc.free(extents)

    def test_next_fit_rotates(self):
        alloc = ExtentAllocator(100, strategy="next-fit")
        a = alloc.allocate(10)
        alloc.free(a)
        b = alloc.allocate(10)
        # Cursor moved past the first allocation despite it being free.
        assert b[0].start == 10

    def test_aged_is_deterministic_per_rng(self):
        a = ExtentAllocator(100, strategy="aged", rng=np.random.default_rng(3))
        b = ExtentAllocator(100, strategy="aged", rng=np.random.default_rng(3))
        for _ in range(5):
            assert a.allocate(7) == b.allocate(7)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ExtentAllocator(10, strategy="chaotic")


class TestStoreCorrectness:
    def test_put_get_roundtrip(self):
        store = ram_store()
        for i in range(500):
            store.put(i, f"v{i}")
        for i in range(500):
            assert store.get(i) == f"v{i}"

    def test_overwrites_visible(self):
        store = ram_store()
        rng = np.random.default_rng(0)
        truth = {}
        for i in range(3000):
            k = int(rng.integers(0, 200))
            store.put(k, i)
            truth[k] = i
        for k, v in truth.items():
            assert store.get(k) == v

    def test_deletes_shadow_older_versions(self):
        store = ram_store()
        for i in range(300):
            store.put(i, i)
        for i in range(0, 300, 2):
            store.delete(i)
        for i in range(300):
            expected = None if i % 2 == 0 else i
            assert store.get(i) == expected

    def test_missing_key_is_none(self):
        assert ram_store().get("nope") is None

    def test_flush_and_compaction_happen(self):
        store = ram_store()
        for i in range(3000):
            store.put(i % 400, i)
        assert store.stats.flushes > 0
        assert store.stats.compactions > 0
        assert store.levels[1], "expected tables below L0"

    def test_scan_count_matches_live_keys(self):
        store = ram_store()
        rng = np.random.default_rng(1)
        live = set()
        for i in range(2000):
            k = int(rng.integers(0, 300))
            if rng.random() < 0.2:
                store.delete(k)
                live.discard(k)
            else:
                store.put(k, i)
                live.add(k)
        assert store.scan_count() == len(live)

    def test_wal_pages_written(self):
        store = ram_store()
        for i in range(200):
            store.put(i, i)
        assert store.stats.wal_pages > 0

    def test_wal_disabled(self):
        cfg = LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8,
                        wal_enabled=False)
        store = ram_store(cfg)
        for i in range(200):
            store.put(i, i)
        assert store.stats.wal_pages == 0

    @settings(max_examples=25, deadline=None)
    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "put", "delete", "get", "scan"]),
            st.integers(0, 63),
            st.integers(0, 1000),
        ),
        min_size=120,
        max_size=300,
    ))
    def test_matches_dict_model(self, ops):
        for store in tiny_stores():
            model = {}
            for op, key, value in ops:
                if op == "put":
                    store.put(key, value)
                    model[key] = value
                elif op == "delete":
                    store.delete(key)
                    model.pop(key, None)
                elif op == "get":
                    assert store.get(key) == model.get(key)
                else:
                    hi = key + value % 16
                    assert store.scan(key, hi) == sorted(
                        (k, v) for k, v in model.items() if key <= k <= hi
                    )
            for key in range(64):
                assert store.get(key) == model.get(key)
            assert store.scan(0, 63) == sorted(model.items())
            store.check_invariants()

    def test_dict_model_sizing_cycles_both_backends(self):
        """The property test's devices are small enough to exercise reuse."""
        rng = np.random.default_rng(0)
        for store in tiny_stores():
            for i in range(300):
                store.put(int(rng.integers(0, 64)), i)
            store.check_invariants()
            assert store.stats.compactions > 10 and len(store.level_sizes_pages()) > 2
        assert store.backend.log.resets > 10
        assert store.backend.log.sealed.any() and len(store.backend.log.free) < 24


class TestCheckInvariants:
    @staticmethod
    def churned():
        store = ram_store()
        for i in range(3000):
            store.put(i * 7 % 1000, i)
        store.check_invariants()
        assert len(store.levels[0]) >= 2 and len(store.levels[1]) >= 2
        return store

    def test_catches_l0_out_of_flush_order(self):
        store = self.churned()
        store.levels[0].reverse()
        with pytest.raises(AssertionError, match="flush order"):
            store.check_invariants()

    def test_catches_unsorted_level(self):
        store = self.churned()
        store.levels[1].reverse()
        with pytest.raises(AssertionError, match="out of order or overlap"):
            store.check_invariants()

    def test_catches_missing_handle(self):
        store = self.churned()
        store.levels[1][0].handle = None
        with pytest.raises(AssertionError, match="no handle"):
            store.check_invariants()

    def test_catches_leaked_pages(self):
        store = self.churned()
        store.backend.allocator.allocate(1)
        with pytest.raises(AssertionError, match="leaked"):
            store.check_invariants()


def _disjoint_level(bounds: list[int], sizes: list[int], level: int) -> list[SSTable]:
    """Tables over consecutive pairs of the sorted distinct ``bounds``."""
    return [
        SSTable(keys=[lo, hi], values=[lo, hi], level=level, size_pages=size)
        for (lo, hi), size in zip(zip(bounds[::2], bounds[1::2]), sizes)
    ]


class TestPickTask:
    @settings(max_examples=200, deadline=None)
    @given(
        upper=st.lists(st.integers(0, 200), min_size=2, max_size=24, unique=True),
        lower=st.lists(st.integers(0, 200), max_size=40, unique=True),
        sizes=st.lists(st.integers(1, 4), min_size=32, max_size=32),
    )
    def test_one_walk_prices_like_a_bisection_per_table(self, upper, lower, sizes):
        """The cheapest push-down, first on a tie, as ``min`` over
        ``overlapping_run`` per table picked it."""
        levels = [
            [],
            _disjoint_level(sorted(upper), sizes[:12], 1),
            _disjoint_level(sorted(lower), sizes[12:], 2),
            [],
        ]
        compaction = LeveledCompaction(level0_pages=1, level_multiplier=100)
        if sum(t.size_pages for t in levels[1]) <= 1:
            assert compaction.pick_task(levels) is None
            return

        def cost(table):
            run = overlapping_run(levels[2], table.min_key, table.max_key)
            return sum(t.size_pages for t in run) / table.size_pages

        table = min(levels[1], key=cost)
        task = compaction.pick_task(levels)
        assert task.level == 1 and task.inputs_upper[0] is table
        assert task.inputs_lower == tuple(overlapping_run(levels[2], table.min_key, table.max_key))


class TestBackends:
    def test_zone_backend_roundtrip(self):
        zoned = ZonedGeometry.small()
        store = LSMStore(ZoneFileBackend(ZNSDevice(zoned)), SMALL_CFG)
        for i in range(2000):
            store.put(i % 300, i)
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(0, 300))
            assert store.get(k) is not None

    def test_zone_backend_wa_near_one(self):
        zoned = ZonedGeometry.small()
        device = ZNSDevice(zoned)
        store = LSMStore(ZoneFileBackend(device), SMALL_CFG)
        for i in range(20_000):
            store.put(i % 2000, i)
        flash_pages = device.nand.counters.programmed_pages()
        app_pages = store.stats.app_pages_written
        assert flash_pages / app_pages < 1.15

    def test_block_backend_trim_informs_ftl(self):
        from repro.ftl.device import ConventionalSSD
        from repro.ftl.ftl import FTLConfig

        ssd = ConventionalSSD(FlashGeometry.small(), FTLConfig(op_ratio=0.25))
        store = LSMStore(BlockFileBackend(ssd, trim_on_delete=True), SMALL_CFG)
        for i in range(5000):
            store.put(i % 500, i)
        assert store.backend.stats.pages_trimmed > 0

    def test_backend_reports_relocation_wa(self):
        zoned = ZonedGeometry.small()
        device = ZNSDevice(zoned)
        store = LSMStore(ZoneFileBackend(device), SMALL_CFG)
        for i in range(5000):
            store.put(i % 500, i)
        assert device.nand.counters.write_amplification() >= 1.0

    def test_full_bottom_level_does_not_starve_the_levels_above(self):
        # Three levels, so the bottom fills at once; L1 must keep draining
        # into it (parent: L1 reached 66x its budget on this fill).
        cfg = LSMConfig(
            memtable_pages=2, level0_pages=4, level_multiplier=2, max_table_pages=2, max_levels=3
        )
        store = ram_store(cfg)
        rng = random.Random(0)
        for i in range(40_000):
            store.put(rng.randrange(20_000), i)
            if i % 1000 == 999:
                assert store.level_sizes_pages()[1] <= 2 * cfg.level0_pages
        assert store.level_sizes_pages()[2] > 100 * cfg.level0_pages
        store.check_invariants()

    def test_level_sizes_report(self):
        store = ram_store()
        for i in range(2000):
            store.put(i % 300, i)
        sizes = store.level_sizes_pages()
        assert len(sizes) == store.config.max_levels
        assert sum(sizes) > 0


class TestZoneFileBackend:
    """Zone bookkeeping: what is live is counted before anything can reset it."""

    @staticmethod
    def table(pages, level=0):
        return SSTable(keys=[0], values=["v"], level=level, size_pages=pages)

    def test_file_ending_on_zone_boundary_survives_dead_neighbours(self):
        backend = ZoneFileBackend(ZNSDevice(ZonedGeometry.small()))
        per_zone = backend.device.geometry.pages_per_zone
        a, b = self.table(per_zone - 28), self.table(28)
        backend.write_table(a)
        backend.delete_table(a)  # the open zone now holds only dead pages
        backend.write_table(b)  # ... and b fills it exactly, sealing it
        for page in range(b.size_pages):
            backend.read_table_page(b, page)
        assert backend.log.resets == 0
        backend.check_invariants()
        backend.delete_table(b)
        assert backend.log.free_resets == backend.log.resets == 1
        backend.check_invariants()

    def test_wal_page_filling_a_dead_zone_stays_live(self):
        backend = ZoneFileBackend(tiny_zns(zones=16, zone_pages=8))
        for _ in range(7):
            backend.append_wal_page()
        backend.reset_wal()  # seven dead pages in the open WAL zone
        backend.append_wal_page()  # the eighth fills and seals it
        backend.check_invariants()
        assert backend.log.resets == 0
        backend.reset_wal()
        assert backend.log.free_resets == backend.log.resets == 1

    def test_seed_2_recipe_keeps_every_table_readable(self):
        """E5's zoned stack and config, ``random.Random(2)`` puts over 100k
        keys: the 44th flush used to reset a zone holding a live table."""
        device = build_stack(
            DeviceSpec(kind="zns", geometry="small", blocks_per_zone=2, max_active_zones=14)
        )
        store = LSMStore(
            ZoneFileBackend(device),
            LSMConfig(memtable_pages=64, level0_pages=768, max_table_pages=32),
        )
        rng = random.Random(2)
        for value in range(91_029):
            store.put(rng.randrange(100_000), value)
        assert store.stats.flushes == 44
        for level in store.levels:
            for table in level:
                store.backend.read_table_page(table, 0)
                store.backend.read_table_page(table, table.size_pages - 1)
        store.check_invariants()

    def test_reclaim_spares_the_file_being_appended(self):
        backend = ZoneFileBackend(tiny_zns(zones=8, zone_pages=8))
        halves = [self.table(4) for _ in range(4)]  # zones 0 and 1, two files each
        for half in halves:
            backend.write_table(half)
        for _ in range(3):
            backend.write_table(self.table(8))  # zones 2-4, fully live
        scratch = self.table(6)
        backend.write_table(scratch)  # zone 5, left open
        for dead in (halves[0], halves[2], scratch):
            backend.delete_table(dead)
        assert len(backend.log.free) == backend.reserve_zones
        # Two pages seal zone 5 with nothing else live in it; the next zone
        # needs a reclaim, whose emptiest candidate would be zone 5 itself.
        spanning = self.table(5)
        backend.write_table(spanning)
        # Zones 0 and 1 were evacuated instead.
        assert backend.device.nand.counters.count("program", "reclaim") == 8
        for table in (spanning, halves[1], halves[3]):
            for page in range(table.size_pages):
                backend.read_table_page(table, page)
        backend.check_invariants()

    def test_fully_live_device_names_the_pins_and_its_size(self):
        """The shape of A2's width-16 failure: every unpinned sealed zone is
        fully live and the one with room is pinned by the append in flight."""
        backend = ZoneFileBackend(tiny_zns(zones=8, zone_pages=8))
        for _ in range(5):
            backend.write_table(self.table(8))  # zones 0-4, fully live
        with pytest.raises(
            AllocationError,
            match=r"all zones fully live \(pinned zones \[5\], 6 sealed of 8 on the device\)",
        ):
            backend.write_table(self.table(12))  # seals zone 5, then needs a sixth

    def test_check_invariants_catches_bookkeeping_drift(self):
        def churned():
            store = LSMStore(ZoneFileBackend(tiny_zns()), TINY_CFG)
            for i in range(200):
                store.put(i % 64, i)
            store.check_invariants()
            return store.backend

        backend = churned()
        backend.log.live[int(np.flatnonzero(backend.log.live)[0])] += 1
        with pytest.raises(AssertionError, match="live pages"):
            backend.check_invariants()

        backend = churned()
        backend.log.free.append(int(np.flatnonzero(backend.log.sealed)[0]))
        with pytest.raises(AssertionError, match="partition"):
            backend.check_invariants()

        backend = churned()
        extents = next(iter(backend._tables.values())).handle
        backend.device.reset_zone(extents[0].zone)
        with pytest.raises(AssertionError, match="above wp"):
            backend.check_invariants()
