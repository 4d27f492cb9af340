"""Tests for LSM bloom filters, range scans, and crash recovery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore, SSTable
from repro.apps.lsm.bloom import BloomFilter
from repro.block.ramdisk import RamDisk
from tests.oracle.scalar_bloom import ScalarBloom

SMALL_CFG = LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8)


def ram_store(cfg=SMALL_CFG):
    return LSMStore(BlockFileBackend(RamDisk(1 << 14), trim_on_delete=True), cfg)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.build(list(range(1000)))
        assert all(bloom.might_contain(k) for k in range(1000))

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.build(list(range(5000)), fp_rate=0.01)
        false_positives = sum(
            bloom.might_contain(k) for k in range(10_000, 30_000)
        )
        assert false_positives / 20_000 < 0.03  # 3x slack on the 1% target

    def test_sizing_scales_with_items(self):
        small = BloomFilter(expected_items=100)
        big = BloomFilter(expected_items=10_000)
        assert big.num_bits > small.num_bits

    def test_mixed_key_types(self):
        bloom = BloomFilter.build(["alpha", 42, ("t", 1)])
        assert bloom.might_contain("alpha")
        assert bloom.might_contain(42)
        assert bloom.might_contain(("t", 1))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_items=0)
        with pytest.raises(ValueError):
            BloomFilter(expected_items=10, fp_rate=1.5)

    def test_empty_build(self):
        bloom = BloomFilter.build([])
        assert not bloom.might_contain("anything")  # overwhelmingly likely

    def test_hashed_probe_is_the_key_probe(self):
        """One hash pair serves every filter: the store computes it once per
        lookup and hands it to each table's bloom. Both probes agree with
        the scalar reference, which derives the pair on its own."""
        filters = []
        for size in (50, 5000):
            reference = ScalarBloom(size)
            for key in range(size):
                reference.add(key)
            filters.append((BloomFilter.build(list(range(size))), reference))
        for key in [*range(-20, 6000, 7), "alpha", ("t", 1)]:
            hashes = BloomFilter.hashes(key)
            for bloom, reference in filters:
                expected = reference.might_contain(key)
                assert bloom.might_contain_hashed(hashes) == expected
                assert bloom.might_contain(key) == expected


@pytest.fixture
def build_calls(monkeypatch):
    """Every ``BloomFilter.build`` call made while the test runs."""
    calls = []
    original = BloomFilter.build.__func__

    def counting(cls, keys, fp_rate=0.01):
        calls.append(len(keys))
        return original(cls, keys, fp_rate)

    monkeypatch.setattr(BloomFilter, "build", classmethod(counting))
    return calls


class TestFilterBuiltOnFirstProbe:
    def test_write_only_store_never_hashes(self, build_calls):
        store = ram_store()
        for i in range(20_000):
            store.put(i * 7919 % 5000, i)
        assert store.stats.compactions > 50
        assert build_calls == []

    def test_first_probe_builds_once(self, build_calls):
        keys = list(range(0, 400, 2))
        table = SSTable(keys=keys, values=list(keys), level=1, size_pages=4)
        assert build_calls == []
        assert table.bloom.might_contain(10)
        table.bloom.might_contain(11)
        table.bloom.might_contain_hashed(BloomFilter.hashes(12))
        assert build_calls == [len(keys)]

    def test_lazy_filter_is_the_eager_filter(self):
        keys = [("k", i) for i in range(300)]
        table = SSTable(keys=keys, values=[None] * len(keys), level=0, size_pages=3)
        eager = BloomFilter.build(keys)
        assert bytes(table.bloom._bits) == bytes(eager._bits)
        assert (table.bloom.num_bits, table.bloom.num_hashes, table.bloom.items_added) == (
            eager.num_bits, eager.num_hashes, eager.items_added
        )

    def test_only_probed_tables_pay(self, build_calls):
        store = ram_store()
        for i in range(4000):
            store.put(i, i)
        tables = sum(len(level) for level in store.levels)
        assert store.get(5) == 5
        assert 1 <= len(build_calls) < tables


class TestBloomInStore:
    def test_negative_lookups_skip_flash(self):
        store = ram_store()
        for i in range(0, 4000, 2):  # even keys only
            store.put(i, i)
        reads_before = store.stats.table_reads
        for i in range(1, 1001, 2):  # misses inside the key range
            assert store.get(i) is None
        probes = store.stats.table_reads - reads_before
        # Without blooms every miss would probe >= 1 table; with them,
        # almost none reach flash.
        assert probes < 100
        assert store.stats.bloom_skips > 300

    def test_positive_lookups_still_correct(self):
        store = ram_store()
        for i in range(2000):
            store.put(i, f"v{i}")
        for i in range(0, 2000, 37):
            assert store.get(i) == f"v{i}"


class TestRangeScan:
    def test_scan_merges_levels(self):
        store = ram_store()
        for i in range(1500):
            store.put(i, i * 10)
        result = store.scan(100, 110)
        assert result == [(k, k * 10) for k in range(100, 111)]

    def test_scan_sees_newest_version(self):
        store = ram_store()
        for i in range(1000):
            store.put(i, "old")
        for i in range(100, 120):
            store.put(i, "new")
        result = dict(store.scan(95, 125))
        assert result[100] == "new"
        assert result[95] == "old"

    def test_scan_excludes_deleted(self):
        store = ram_store()
        for i in range(1000):
            store.put(i, i)
        store.delete(105)
        keys = [k for k, _ in store.scan(100, 110)]
        assert 105 not in keys
        assert 104 in keys

    def test_scan_charges_page_reads(self):
        store = ram_store()
        for i in range(3000):
            store.put(i, i)
        before = store.stats.scan_pages_read
        store.scan(0, 2999)
        assert store.stats.scan_pages_read > before

    def test_scan_empty_range(self):
        store = ram_store()
        for i in range(100):
            store.put(i, i)
        assert store.scan(5000, 6000) == []

    def test_scan_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            ram_store().scan(10, 5)

    def test_scan_includes_memtable(self):
        store = ram_store()
        store.put(7, "memtable-only")
        assert store.scan(0, 100) == [(7, "memtable-only")]

    @settings(max_examples=15, deadline=None)
    @given(
        keys=st.lists(st.integers(0, 200), min_size=1, max_size=150),
        lo=st.integers(0, 200),
        span=st.integers(0, 100),
    )
    def test_scan_matches_dict_model(self, keys, lo, span):
        store = ram_store()
        model = {}
        for i, k in enumerate(keys):
            store.put(k, i)
            model[k] = i
        hi = lo + span
        expected = sorted((k, v) for k, v in model.items() if lo <= k <= hi)
        assert store.scan(lo, hi) == expected


class TestCrashRecovery:
    def test_durable_entries_survive(self):
        store = ram_store()
        # 32 entries per WAL page (4096/128); write exactly 2 pages' worth.
        for i in range(64):
            store.put(i, i)
        lost = store.crash_and_recover()
        assert lost == 0
        for i in range(64):
            assert store.get(i) == i

    def test_unsynced_tail_is_lost(self):
        store = ram_store()
        for i in range(40):  # 32 durable + 8 unsynced
            store.put(i, i)
        lost = store.crash_and_recover()
        assert lost == 8
        for i in range(32):
            assert store.get(i) == i
        for i in range(32, 40):
            assert store.get(i) is None

    def test_flushed_data_always_survives(self):
        store = ram_store()
        for i in range(1000):
            store.put(i, i)
        store.flush()
        store.crash_and_recover()
        for i in range(0, 1000, 97):
            assert store.get(i) == i

    def test_deletes_recovered(self):
        store = ram_store()
        for i in range(32):
            store.put(i, i)
        store.flush()
        store.delete(5)
        for i in range(100, 131):  # pad to sync the tombstone's WAL page
            store.put(i, i)
        store.crash_and_recover()
        assert store.get(5) is None

    def test_without_wal_everything_volatile_is_lost(self):
        cfg = LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8,
                        wal_enabled=False)
        store = ram_store(cfg)
        for i in range(10):
            store.put(i, i)
        lost = store.crash_and_recover()
        assert lost == 10
        assert store.get(3) is None

    def test_recovery_counter(self):
        store = ram_store()
        store.crash_and_recover()
        assert store.stats.recoveries == 1

    @settings(max_examples=10, deadline=None)
    @given(ops=st.integers(1, 200), crash_at=st.integers(0, 199), seed=st.integers(0, 50))
    def test_recovered_state_is_prefix_consistent(self, ops, crash_at, seed):
        """After recovery the store equals the model at some cut point
        between the last durable entry and the crash instant."""
        crash_at = min(crash_at, ops - 1)
        store = ram_store()
        rng = np.random.default_rng(seed)
        history = []
        for i in range(ops):
            k = int(rng.integers(0, 40))
            store.put(k, i)
            history.append((k, i))
            if i == crash_at:
                lost = store.crash_and_recover()
                break
        durable_prefix = history[: len(history) - lost]
        model = {}
        for k, v in durable_prefix:
            model[k] = v
        for k in range(40):
            assert store.get(k) == model.get(k)
