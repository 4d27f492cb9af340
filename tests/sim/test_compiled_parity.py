"""Parity suite for the array kernels in :mod:`repro.ftl.mapping`.

The contract under test is *state identity*: every kernel must leave the
mapping/flash state bit-for-bit equal to the scalar path it stands in
for, over randomized operation sequences.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl import mapping
from repro.ftl.mapping import UNMAPPED, FullPageMap
from tests.oracle.scalar_cmt import cmt_evict_loop

GEOMETRY = FlashGeometry.small()
PPB = GEOMETRY.pages_per_block


def map_states(m: FullPageMap):
    return (m.l2p.copy(), m.p2l.copy(), m.valid_counts.copy(), m.mapped_pages)


def assert_maps_equal(a: FullPageMap, b: FullPageMap):
    sa, sb = map_states(a), map_states(b)
    assert np.array_equal(sa[0], sb[0]), "l2p diverged"
    assert np.array_equal(sa[1], sb[1]), "p2l diverged"
    assert np.array_equal(sa[2], sb[2]), "valid_counts diverged"
    assert sa[3] == sb[3], "mapped_pages diverged"


def test_unmapped_sentinel_matches_mapping_module():
    """What the kernels write for "no binding" is the module's ``UNMAPPED``."""
    m = FullPageMap(GEOMETRY, 64)
    lpns = np.arange(20, dtype=np.int64)  # past the scalar cutoff: the kernel runs
    m.map_batch(lpns, np.arange(PPB, PPB + 20, dtype=np.int64))
    m.map_batch(lpns, np.arange(2 * PPB, 2 * PPB + 20, dtype=np.int64))
    m.relocate_run(np.arange(2 * PPB, 2 * PPB + 5, dtype=np.int64), 3 * PPB)
    assert (m.p2l[PPB : 2 * PPB + 5] == UNMAPPED).all()
    assert m.mapped_pages == 20


class TestMapBatchParity:
    @given(
        lpns=st.lists(st.integers(0, 63), min_size=1, max_size=PPB),
        premap=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    # Duplicate-heavy batches past the scalar cutoff, where the kernel runs:
    # one lpn throughout, a duplicate at both ends, one lpn interleaved
    # across the batch.
    @example(lpns=[7] * 40, premap=3, seed=1)
    @example(lpns=[9, *range(20, 50), 9], premap=3, seed=2)
    @example(lpns=[lpn for i in range(20) for lpn in (3, 30 + i)], premap=3, seed=3)
    def test_matches_scalar_map_loop(self, lpns, premap, seed):
        rng = np.random.default_rng(seed)
        scalar = FullPageMap(GEOMETRY, 64)
        batched = FullPageMap(GEOMETRY, 64)
        # Pre-populate both maps identically from a different block so the
        # batch can invalidate cross-block prior mappings.
        pre_block = 1
        pre_lpns = rng.choice(64, size=premap * 4, replace=False) if premap else []
        for i, lpn in enumerate(pre_lpns):
            scalar.map(int(lpn), pre_block * PPB + i)
            batched.map(int(lpn), pre_block * PPB + i)
        ppns = np.arange(2 * PPB, 2 * PPB + len(lpns), dtype=np.int64)
        arr = np.asarray(lpns, dtype=np.int64)
        for lpn, ppn in zip(arr.tolist(), ppns.tolist()):
            scalar.map(lpn, ppn)
        batched.map_batch(arr, ppns)
        assert_maps_equal(scalar, batched)

    def test_negative_valid_count_raises(self):
        m = FullPageMap(GEOMETRY, 16)
        m.map(0, 5)
        m.valid_counts[0] = 0  # corrupt: the remap below must detect it
        with pytest.raises(ValueError, match="negative"):
            m.map_batch(
                np.array([0, 1], dtype=np.int64),
                np.array([PPB, PPB + 1], dtype=np.int64),
            )


class TestRelocateRunParity:
    @given(
        nvalid=st.integers(1, PPB),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_relocate_loop(self, nvalid, seed):
        rng = np.random.default_rng(seed)
        scalar = FullPageMap(GEOMETRY, PPB)
        run = FullPageMap(GEOMETRY, PPB)
        src_offsets = np.sort(rng.choice(PPB, size=nvalid, replace=False))
        src_block, dst_block = 0, 3
        for i, off in enumerate(src_offsets.tolist()):
            scalar.map(i, src_block * PPB + off)
            run.map(i, src_block * PPB + off)
        src_pages = src_block * PPB + src_offsets.astype(np.int64)
        dst_first = dst_block * PPB
        for i, src in enumerate(src_pages.tolist()):
            scalar.relocate(src, dst_first + i)
        run.relocate_run(src_pages, dst_first)
        assert_maps_equal(scalar, run)

    def test_invalid_source_raises(self):
        m = FullPageMap(GEOMETRY, 8)
        m.map(0, 0)
        with pytest.raises(ValueError, match="invalid physical page"):
            m.relocate_run(np.array([0, 1], dtype=np.int64), 3 * PPB)


class TestCopyRunParity:
    def _programmed_nand(self):
        nand = NandArray(GEOMETRY)
        nand.program_run(0, PPB, "host")
        return nand

    @given(nsrc=st.integers(1, PPB), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_matches_copy_page_loop(self, nsrc, seed):
        rng = np.random.default_rng(seed)
        src = np.sort(rng.choice(PPB, size=nsrc, replace=False)).astype(np.int64)
        a, b = self._programmed_nand(), self._programmed_nand()
        dst_block = 2
        lat_a = sum(
            a.copy_page(page, dst_block * PPB + i, "gc") for i, page in enumerate(src.tolist())
        )
        lat_b = b.copy_run(src, dst_block, 0, "gc")
        assert lat_a == pytest.approx(lat_b)
        assert np.array_equal(a.write_offsets, b.write_offsets)
        assert a.counters == b.counters

    def test_rejects_out_of_order_destination(self):
        nand = self._programmed_nand()
        from repro.flash.errors import ProgramOrderError

        with pytest.raises(ProgramOrderError):
            nand.copy_run(np.array([0, 1], dtype=np.int64), 2, 5, "gc")

    def test_rejects_multi_block_sources(self):
        nand = self._programmed_nand()
        nand.program_run(1, 2, "host")
        with pytest.raises(ValueError, match="one block"):
            nand.copy_run(np.array([0, PPB + 1], dtype=np.int64), 2, 0, "gc")


def _random_cmt(rng, capacity: int, ntvpns: int):
    """Random CMT slot-array state with unique stamps, like a live cache."""
    slot_tvpn = np.full(capacity, UNMAPPED, dtype=np.int64)
    slot_dirty = np.zeros(capacity, dtype=np.int8)
    used = int(rng.integers(0, capacity + 1))
    resident = rng.choice(ntvpns, size=used, replace=False)
    for slot, tvpn in enumerate(resident.tolist()):
        slot_tvpn[slot] = tvpn
        slot_dirty[slot] = int(rng.integers(0, 2))
    # One monotonic counter stamps every insert/hit, so live stamps are
    # unique; empty slots keep stale stamps, which the kernel ignores.
    slot_stamp = rng.permutation(capacity).astype(np.int64)
    return slot_tvpn, slot_dirty, slot_stamp


class TestCmtEvictParity:
    @given(
        capacity=st.integers(1, 16),
        ntvpns=st.integers(16, 64),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scalar_evict_loop(self, capacity, ntvpns, seed):
        rng = np.random.default_rng(seed)
        slot_tvpn, slot_dirty, slot_stamp = _random_cmt(rng, capacity, ntvpns)
        ref_dirty = slot_dirty.copy()
        ref = cmt_evict_loop(slot_tvpn.copy(), ref_dirty, slot_stamp.copy())
        got = mapping.cmt_evict_batch(slot_tvpn, slot_dirty, slot_stamp)
        assert got.tolist() == ref
        assert np.array_equal(slot_dirty, ref_dirty), "dirty bits diverged"
        # Selected tvpns come back LRU-ascending and all dirty bits clear.
        if got.size:
            stamps = slot_stamp[[int(np.flatnonzero(slot_tvpn == t)[0]) for t in got]]
            assert np.all(np.diff(stamps) > 0)
        occupied = slot_tvpn >= 0
        assert not slot_dirty[occupied].any()
