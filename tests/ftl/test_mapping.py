"""Tests for the page map, including hypothesis invariant checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.ftl.mapping import UNMAPPED, FullPageMap


@pytest.fixture
def pmap():
    return FullPageMap(FlashGeometry.small(), logical_pages=4096)


class TestBasics:
    def test_starts_unmapped(self, pmap):
        assert pmap.lookup(0) == UNMAPPED
        assert not pmap.is_mapped(0)
        assert pmap.mapped_pages == 0

    def test_map_and_lookup(self, pmap):
        pmap.map(10, 100)
        assert pmap.lookup(10) == 100
        assert pmap.owner_of(100) == 10
        assert pmap.is_valid(100)
        assert pmap.mapped_pages == 1

    def test_remap_invalidates_old_physical(self, pmap):
        pmap.map(10, 100)
        old = pmap.map(10, 200)
        assert old == 100
        assert not pmap.is_valid(100)
        assert pmap.lookup(10) == 200
        assert pmap.mapped_pages == 1

    def test_double_map_physical_rejected(self, pmap):
        pmap.map(1, 100)
        with pytest.raises(ValueError):
            pmap.map(2, 100)

    def test_unmap_returns_freed_page(self, pmap):
        pmap.map(5, 50)
        assert pmap.unmap(5) == 50
        assert pmap.lookup(5) == UNMAPPED
        assert not pmap.is_valid(50)

    def test_unmap_unmapped_is_noop(self, pmap):
        assert pmap.unmap(5) == UNMAPPED

    def test_bounds_checks(self, pmap):
        with pytest.raises(IndexError):
            pmap.lookup(4096)
        with pytest.raises(IndexError):
            pmap.map(0, 10**9)

    def test_oversized_export_rejected(self):
        g = FlashGeometry.small()
        with pytest.raises(ValueError):
            FullPageMap(g, logical_pages=g.total_pages + 1)


class TestValidCounts:
    def test_counts_track_block_membership(self, pmap):
        g = pmap.geometry
        pmap.map(0, 0)
        pmap.map(1, 1)
        pmap.map(2, g.pages_per_block)  # second block
        assert pmap.valid_counts_v[0] == 2
        assert pmap.valid_counts_v[1] == 1

    def test_valid_pages_listing(self, pmap):
        pmap.map(0, 0)
        pmap.map(1, 2)
        assert pmap.valid_pages_in_block(0) == [0, 2]

    def test_remap_decrements_old_block(self, pmap):
        g = pmap.geometry
        pmap.map(0, 0)
        pmap.map(0, g.pages_per_block)
        assert pmap.valid_counts_v[0] == 0
        assert pmap.valid_counts_v[1] == 1


class TestRelocate:
    def test_relocate_moves_binding(self, pmap):
        pmap.map(7, 70)
        lpn = pmap.relocate(70, 700)
        assert lpn == 7
        assert pmap.lookup(7) == 700
        assert not pmap.is_valid(70)
        assert pmap.is_valid(700)

    def test_relocate_invalid_source_rejected(self, pmap):
        with pytest.raises(ValueError):
            pmap.relocate(70, 700)

    def test_relocate_to_mapped_target_rejected(self, pmap):
        pmap.map(1, 10)
        pmap.map(2, 20)
        with pytest.raises(ValueError):
            pmap.relocate(10, 20)


class TestDram:
    def test_dram_bytes_four_per_entry(self, pmap):
        assert pmap.dram_bytes() == 4096 * 4


# -- Property-based: the maps stay mutual inverses under arbitrary ops -----

_ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap", "relocate"]),
        st.integers(min_value=0, max_value=255),  # lpn
        st.integers(min_value=0, max_value=1023),  # ppn-ish
    ),
    max_size=200,
)


@settings(max_examples=50, deadline=None)
@given(_ACTIONS)
def test_map_invariants_under_random_operations(actions):
    g = FlashGeometry.small()
    pmap = FullPageMap(g, logical_pages=256)
    used_physical: set[int] = set()
    next_free = 0

    for action, lpn, _arg in actions:
        if action == "map":
            if next_free >= g.total_pages:
                continue
            ppn = next_free
            next_free += 1
            pmap.map(lpn, ppn)
            used_physical.add(ppn)
        elif action == "unmap":
            pmap.unmap(lpn)
        elif action == "relocate":
            src = pmap.lookup(lpn)
            if src == UNMAPPED or next_free >= g.total_pages:
                continue
            dst = next_free
            next_free += 1
            pmap.relocate(src, dst)

    # Invariant 1: forward and reverse maps are mutual inverses.
    mapped = 0
    for lpn in range(256):
        ppn = pmap.lookup(lpn)
        if ppn != UNMAPPED:
            mapped += 1
            assert pmap.owner_of(ppn) == lpn
    assert mapped == pmap.mapped_pages

    # Invariant 2: valid counts equal actual valid pages per block.
    for block in range(g.total_blocks):
        actual = len(pmap.valid_pages_in_block(block))
        assert actual == pmap.valid_counts_v[block]

    # Invariant 3: total valid pages equals mapped lpns.
    assert int(pmap.valid_counts.sum()) == pmap.mapped_pages
