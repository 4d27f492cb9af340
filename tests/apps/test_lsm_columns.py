"""The columnar write path: what it may cost, and what it must still refuse.

An ``SSTable`` is two parallel columns and the flush/merge path hands the
columns down as computed. Pinned here: a steady-state ``put`` is one Python
frame, an E5-shaped fill stays out of the cyclic collector, the table (and
a store scan of it) agrees with a list-of-pairs reference, and ``ExtentAllocator.free`` checks
a whole request before it edits the free list.
"""

import bisect
import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import LSMConfig, SSTable
from repro.apps.lsm.backends import ExtentAllocator, _Extent
from repro.apps.lsm.memtable import TOMBSTONE
from tests.apps.test_lsm import ram_store
from tests.apps.test_lsm_read_path import store_holding
from tests.test_page_path import python_calls

E5_CFG = LSMConfig(memtable_pages=64, level0_pages=768, max_table_pages=32)


def wal_split(store) -> tuple[int, int]:
    """(durable, unsynced) entries of the store's WAL columns."""
    assert len(store._wal_keys) == len(store._wal_values)
    return store._wal_next_sync, len(store._wal_keys) - store._wal_next_sync


class TestPutIsOneFrame:
    """Ceilings only go down (parent: 5 frames per put)."""

    def test_steady_state_put_and_delete(self):
        store = ram_store(E5_CFG)
        store.put(0, 0)
        assert python_calls(lambda: store.put(1, 1)) == 1
        assert python_calls(lambda: store.delete(2)) == 2  # delete is put(key, TOMBSTONE)
        assert store.stats.wal_pages == 0 and store.stats.flushes == 0

    def test_the_frame_still_syncs_and_flushes(self):
        store = ram_store(E5_CFG)
        per_page = store.backend.page_size // E5_CFG.entry_bytes
        for key in range(per_page - 1):
            store.put(key, key)
        assert store.stats.wal_pages == 0 and wal_split(store) == (0, per_page - 1)
        store.put(-1, -1)
        assert store.stats.wal_pages == 1
        assert wal_split(store) == (per_page, 0)
        for key in range(per_page, E5_CFG.memtable_pages * per_page - 1):
            store.put(key, key)
        assert store.stats.flushes == 0
        store.put(-2, -2)
        assert store.stats.flushes == 1 and len(store.memtable) == 0
        assert store._wal_keys == store._wal_values == [] and store._wal_next_sync == 0


def test_e5_shaped_fill_stays_out_of_the_collector():
    """100k puts on E5's config: 452 young / 41 older collections with
    tables as lists of pairs, 3 / 0 with columns (CPython 3.11)."""
    store = ram_store(E5_CFG)
    rng = random.Random(13)
    draws = [rng.randrange(60_000) for _ in range(100_000)]
    gc.collect()
    before = [generation["collections"] for generation in gc.get_stats()]
    for value, key in enumerate(draws):
        store.put(key, value)
    young, *older = (
        generation["collections"] - start
        for generation, start in zip(gc.get_stats(), before)
    )
    assert store.stats.compactions >= 40
    assert young <= 40
    assert sum(older) == 0


# -- The table against a list of pairs -----------------------------------------

# A key set and two probes of the same key type: ints, strings, tuples.
tables = st.one_of(
    *(
        st.tuples(st.sets(element, min_size=1, max_size=40), element, element)
        for element in (
            st.integers(-50, 50),
            st.text("abc", max_size=3),
            st.tuples(st.integers(0, 3), st.integers(0, 9)),
        )
    )
)


@settings(max_examples=200, deadline=None)
@given(drawn=tables, size_pages=st.integers(1, 7))
def test_table_agrees_with_a_list_of_pairs(drawn, size_pages):
    key_set, probe, other = drawn
    keys = sorted(key_set)
    values = [TOMBSTONE if i % 5 == 4 else ("v", i) for i in range(len(keys))]
    pairs = list(zip(keys, values))
    table = SSTable(keys=keys, values=values, level=1, size_pages=size_pages)
    assert table.entries == pairs
    assert (table.min_key, table.max_key) == (keys[0], keys[-1])

    for key in (probe, keys[len(keys) // 2]):
        if key in key_set:
            index = keys.index(key)
            assert table.find(key) == (True, values[index], index)
        else:
            assert table.find(key) == (False, None, bisect.bisect_left(keys, key))

    # The table's share of a scan: its live entries in [lo, hi] and the
    # contiguous run of pages from the first such entry's to the last's.
    lo, hi = sorted((probe, other))
    inside = [i for i, k in enumerate(keys) if lo <= k <= hi]
    store, pages_read = store_holding(table)
    assert store.scan(lo, hi) == [pairs[i] for i in inside if values[i] is not TOMBSTONE]
    pages = [i * size_pages // len(keys) for i in inside]
    expected = list(range(pages[0], pages[-1] + 1)) if pages else []
    assert pages_read == [(table.table_id, page) for page in expected]
    assert store.stats.scan_pages_read == len(expected)


def test_table_rejects_what_it_cannot_search():
    for keys, values in (
        ([], []),
        ([2, 1], ["b", "a"]),
        ([1, 1], ["a", "b"]),
        ([1, 2], ["a"]),
        ([1], ["a", "b"]),
    ):
        with pytest.raises(ValueError):
            SSTable(keys=keys, values=values, level=0, size_pages=1)


# -- free() checks the request before it edits the list ------------------------


class TestDoubleFreeLeavesTheListAlone:
    @staticmethod
    def fragmented() -> ExtentAllocator:
        """Free list [8..12), [20..32): blocks 0-7 and 12-19 are held."""
        allocator = ExtentAllocator(32, "first-fit")
        allocator.allocate(20)
        allocator.free([_Extent(8, 4)])
        assert allocator.free_extents == [_Extent(8, 4), _Extent(20, 12)]
        return allocator

    @pytest.mark.parametrize(
        "request_",
        [
            [_Extent(8, 4)],  # exactly a free extent
            [_Extent(6, 3)],  # runs into the free extent after it
            [_Extent(11, 3)],  # starts inside the free extent before it
            [_Extent(0, 32)],  # covers the whole list
            [_Extent(0, 4), _Extent(30, 1)],  # one good extent, one bad
            [_Extent(12, 4), _Extent(14, 4)],  # overlaps its neighbour-to-be
            [_Extent(16, 2), _Extent(0, 4), _Extent(16, 2)],  # repeated in the request
        ],
    )
    def test_rejected_whole(self, request_):
        allocator = self.fragmented()
        before, count = allocator.free_extents, allocator.free_blocks
        with pytest.raises(ValueError, match="double free"):
            allocator.free(request_)
        assert allocator.free_extents == before
        assert allocator.free_blocks == count == 16

    def test_a_valid_request_in_any_order_coalesces(self):
        allocator = self.fragmented()
        allocator.free([_Extent(16, 4), _Extent(0, 8), _Extent(12, 2)])
        assert allocator.free_extents == [_Extent(0, 14), _Extent(16, 16)]
        assert allocator.free_blocks == 30
        allocator.free([_Extent(14, 2)])
        assert allocator.free_extents == [_Extent(0, 32)]
