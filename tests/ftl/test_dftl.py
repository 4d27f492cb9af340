"""Tests for the demand-paged FTL: real translation pages on flash."""

import numpy as np
import pytest

from repro.flash.geometry import FlashGeometry
from repro.ftl.dftl import (
    DemandPagedFTL,
    oob_tag_for_tvpn,
    tvpn_from_oob,
)
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.ftl.mapping import UNMAPPED
from repro.obs.frame import OpCounter
from repro.sim.rng import make_rng


def small_dftl(cmt_pages=8, op_ratio=0.11, **kwargs):
    geometry = FlashGeometry.small()
    return DemandPagedFTL(
        geometry,
        FTLConfig(op_ratio=op_ratio),
        cmt_bytes=cmt_pages * geometry.page_size,
        **kwargs,
    )


def drive(device, ops=4000, seed=0):
    n = device.logical_pages
    for lpn in range(n):
        device.write(lpn)
    rng = make_rng(seed)
    for _ in range(ops):
        lpn = int(rng.integers(0, n))
        if rng.random() < 0.5:
            device.read(lpn)
        else:
            device.write(lpn)


class TestOobTags:
    def test_round_trip(self):
        for tvpn in (0, 1, 7, 1023):
            tag = oob_tag_for_tvpn(tvpn)
            assert tag <= -2
            assert tvpn_from_oob(tag) == tvpn

    def test_disjoint_from_data_lpns_and_unmapped(self):
        tags = {oob_tag_for_tvpn(t) for t in range(64)}
        assert all(tag < -1 for tag in tags)  # -1 is UNMAPPED, >=0 is data


class TestDramBudget:
    """Resident CMT bytes must honor cmt_bytes throughout a run, not
    just the capacity computed at construction."""

    def test_resident_bytes_never_exceed_budget(self):
        device = small_dftl(cmt_pages=2)
        budget_pages = device.store.capacity_pages
        page_size = device.geometry.page_size
        n = device.logical_pages
        for lpn in range(n):
            device.write(lpn)
            assert device.store.resident_bytes <= budget_pages * page_size
        rng = make_rng(9)
        for _ in range(2000):
            device.write(int(rng.integers(0, n)))
            assert device.store.resident_bytes <= budget_pages * page_size
        assert device.store.peak_resident_bytes <= budget_pages * page_size
        assert device.store.peak_resident_bytes == budget_pages * page_size

    def test_peak_tracks_high_water_mark(self):
        device = small_dftl(cmt_pages=4)
        assert device.store.resident_bytes == 0
        device.write(0)
        assert device.store.resident_bytes == device.geometry.page_size
        assert device.store.peak_resident_bytes == device.geometry.page_size


class TestDemandPagedFTL:
    def test_hit_rate_zero_before_any_lookup(self):
        # No lookups is "no hits", not a vacuous 1.0: callers averaging
        # hit rates must not credit idle caches.
        assert small_dftl().store.stats.hit_rate == 0.0

    def test_full_cache_has_no_flash_overhead(self):
        device = small_dftl(cmt_pages=64)
        drive(device)
        # Misses are compulsory only, and a never-written translation
        # page has nothing to fetch from flash: zero translation I/O.
        counters = device.nand.counters
        assert counters.count("read") == counters.count("read", "host") > 0
        assert counters.count("program") == counters.count("program", "host") > 0
        assert counters.count("copy", "translation-gc") == 0

    def test_starved_cache_pays_flash_reads(self):
        device = small_dftl(cmt_pages=1)
        drive(device)
        counters = device.nand.counters
        assert counters.count("read", "translation-fetch") > 0
        assert counters.count("read") / counters.count("read", "host") > 1.5
        assert device.store.stats.hit_rate < 0.8

    def test_overhead_monotone_in_cache_size(self):
        overheads = []
        for pages in (1, 2, 4):
            device = small_dftl(cmt_pages=pages)
            drive(device, seed=1)
            counters = device.nand.counters
            overheads.append(counters.count("read") / counters.count("read", "host"))
        assert overheads == sorted(overheads, reverse=True)

    def test_translation_pages_live_on_flash(self):
        device = small_dftl(cmt_pages=1)
        drive(device, ops=2000)
        gtd = device.store.gtd
        materialized = gtd[gtd >= 0]
        assert materialized.size > 0
        for ppn in materialized.tolist():
            assert device._oob_lpn[ppn] <= -2  # OOB-tagged as translation

    def test_wa_decomposition_separates_translation_traffic(self):
        device = small_dftl(cmt_pages=1)
        drive(device, ops=4000)
        count = device.nand.counters.count
        host = count("program", "host")
        translation = count("program", "translation-writeback") + count("copy", "translation-gc")
        assert translation > 0
        assert count("program") + count("copy") == host + count("copy", "gc") + translation
        assert device.nand.counters.write_amplification() > 1.0

    def test_wa_decomposition_of_an_unwritten_device_is_unity(self):
        counters = small_dftl(cmt_pages=1).nand.counters
        assert counters == OpCounter()
        assert counters.write_amplification() == 1.0

    def test_data_path_unaffected(self):
        """The data path (mapping correctness, GC) is the plain FTL's."""
        device = small_dftl(cmt_pages=1, op_ratio=0.25)
        drive(device, ops=2000)
        device.check_invariants()
        for lpn in range(0, device.logical_pages, 97):
            device.read(lpn)

    def test_trim_counts_as_dirty_access(self):
        device = small_dftl(cmt_pages=1)
        device.write(0)
        device.trim(0)
        assert device.store.stats.lookups == 2

    def test_full_map_size_reported(self):
        device = small_dftl()
        per_page = device.store.entries_per_page
        expected = (device.logical_pages + per_page - 1) // per_page
        assert device.full_map_translation_pages == expected

    def test_invariants_hold_under_translation_gc(self):
        device = small_dftl(cmt_pages=1)
        drive(device, ops=6000, seed=3)
        assert device.store.stats.gc_runs > 0
        device.check_invariants()


def _swap_slots(store):
    store.tvpn_slot[[0, 1]] = store.tvpn_slot[[1, 0]]


def _set(attr, value):
    return lambda store: setattr(store, attr, value)


def _put(array, index, value):
    return lambda store: getattr(store, array).__setitem__(index, value)


class TestTranslationStoreInvariants:
    """Each CMT rule ``DemandPagedFTL.check_invariants`` holds, broken once.

    The device caches tvpns 0 and 1 in slots 0 and 1 of a 4-slot CMT;
    slots 2 and 3 are empty.
    """

    @pytest.fixture
    def device(self):
        device = small_dftl(cmt_pages=4)
        device.write(0)
        device.write(device.store.entries_per_page)
        assert device.store.slot_tvpn.tolist() == [0, 1, UNMAPPED, UNMAPPED]
        device.check_invariants()
        return device

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            pytest.param(_swap_slots, "not the inverse", id="index-not-inverse"),
            pytest.param(_put("tvpn_slot", 5, 0), "uncached tvpn", id="uncached-tvpn"),
            pytest.param(_put("slot_tvpn", 2, 5), "empty slot caches", id="empty-slot-tvpn"),
            pytest.param(_set("_used", 5), "budget", id="used-past-capacity"),
            pytest.param(_set("_peak_used", 1), "peak", id="peak-below-used"),
            pytest.param(_put("slot_stamp", 1, 0), "share an LRU stamp", id="stamp-shared"),
            pytest.param(_set("_stamp", 1), "past the counter", id="stamp-past-counter"),
            pytest.param(_put("slot_dirty", 3, 1), "slot marked dirty", id="empty-slot-dirty"),
        ],
    )
    def test_broken_rule_is_caught(self, device, corrupt, message):
        corrupt(device.store)
        with pytest.raises(AssertionError, match=message):
            device.check_invariants()

    def test_more_hits_than_lookups_is_caught(self, device):
        stats = device.store.stats
        stats.hits = stats.lookups + 1
        with pytest.raises(AssertionError, match="more CMT hits than lookups"):
            device.check_invariants()


class TestCrashRecovery:
    def test_snapshot_recovery_restores_map_and_gtd(self):
        device = small_dftl(cmt_pages=1)
        drive(device, ops=3000, seed=5)
        snapshot = device.snapshot_mapping()
        l2p = device.map.l2p.copy()
        gtd = device.store.gtd.copy()
        device.crash()
        device.recover(snapshot)
        assert np.array_equal(device.map.l2p, l2p)
        assert np.array_equal(device.store.gtd, gtd)
        device.check_invariants()

    def test_full_replay_rebuilds_gtd_from_oob(self):
        device = small_dftl(cmt_pages=1)
        drive(device, ops=3000, seed=6)
        device.store.flush()
        gtd = device.store.gtd.copy()
        device.crash()
        device.recover(None)
        assert np.array_equal(device.store.gtd, gtd)
        device.check_invariants()

    def test_device_operates_after_recovery(self):
        device = small_dftl(cmt_pages=1)
        drive(device, ops=2000, seed=7)
        snapshot = device.snapshot_mapping()
        device.crash()
        device.recover(snapshot)
        drive(device, ops=1000, seed=8)
        device.check_invariants()


class _FailNextPrograms:
    """Injector stand-in: the next ``count`` scalar programs burn their page."""

    def __init__(self, count):
        self.count = count

    def on_program(self, block, page, latency):
        if self.count:
            self.count -= 1
            return True, 0.0
        return False, 0.0

    def on_read(self, block, page):
        return 0.0

    def on_erase(self, block):
        return False


class TestRelocationOutsideGc:
    """Wear leveling and block retirement move data pages with
    no GC pass around them; the translation pages that map the moved
    lpns must be rewritten all the same, and the moves must survive a
    power cut."""

    @staticmethod
    def aged_and_clean():
        geometry = FlashGeometry.small()
        device = DemandPagedFTL(
            geometry, FTLConfig(op_ratio=0.11), cmt_bytes=2 * geometry.page_size
        )
        drive(device, ops=3000, seed=9)
        # Nothing dirty, nothing pending: whatever is afterwards, the
        # relocation under test put there.
        device._flush_pending()
        device.store.flush()
        assert not device.store.slot_dirty.any() and not device._pending_trans_dirty
        return device

    @staticmethod
    def check_moves(device, before):
        store = device.store
        moved = np.flatnonzero(device.map.l2p != before)
        assert moved.size > 1
        for tvpn in np.unique(moved // store.entries_per_page).tolist():
            slot = int(store.tvpn_slot[tvpn])
            cached_dirty = slot != UNMAPPED and store.slot_dirty[slot] != 0
            assert cached_dirty or tvpn in device._pending_trans_dirty, tvpn
        new_ppns = device.map.l2p[moved].copy()
        device._flush_pending()
        device.store.flush()
        device.crash()
        device.recover(None)
        device.check_invariants()
        for lpn, ppn in zip(moved.tolist(), new_ppns.tolist()):
            assert device.read(lpn).page == ppn

    def test_wear_level_once(self):
        device = self.aged_and_clean()
        before = device.map.l2p.copy()
        assert device.wear_level_once()
        self.check_moves(device, before)

    def test_program_fault_retirement(self):
        device = self.aged_and_clean()
        before = device.map.l2p.copy()
        device.nand.faults = _FailNextPrograms(ConventionalFTL._RETIRE_AFTER_FAULTS)
        device.write(0)
        device.nand.faults = None
        assert device.stats.blocks_retired == 1
        self.check_moves(device, before)


def test_rejected_batch_touches_no_translation_state():
    device = small_dftl(cmt_pages=1)
    device.write_pages(np.arange(3000))
    lookups = device.store.stats.lookups
    stamps = device.store.slot_stamp.copy()
    with pytest.raises(ValueError):
        device.write_pages(np.arange(3000).reshape(3, 1000))
    with pytest.raises(TypeError):
        device.write_pages(np.arange(3000) / 2)
    assert device.store.stats.lookups == lookups
    assert np.array_equal(device.store.slot_stamp, stamps)
    assert device.nand.counters.count("program", "host") == 3000
