"""Property tests: the demand-paged FTL degenerates to the plain FTL.

When the CMT covers the whole translation map, nothing is ever evicted,
so no translation page is ever written to or fetched from flash: the
demand-paged FTL must then be *physics-identical* to a ConventionalFTL
configured with the same block reserve -- same mapping tables, GC victim
sequence, counters, and wear. That equivalence is the model's anchor:
everything A4/E2 measure at smaller budgets is then attributable to the
CMT budget alone, not to an accidentally different data path.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.ftl.dftl import DemandPagedFTL
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.obs.frame import FrameSink
from repro.obs.tracer import Tracer
from repro.sim.rng import make_rng


def tiny_geometry():
    # 16 blocks of 8 pages, 512 B pages: small enough for hypothesis,
    # random overwrites trigger foreground GC constantly.
    return FlashGeometry(
        page_size=512,
        pages_per_block=8,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )


def make_pair(policy: str = "greedy"):
    """A DFTL with full-map CMT and its matched conventional twin."""
    cfg = FTLConfig(
        op_ratio=0.2, gc_policy=policy, gc_low_watermark=1, gc_high_watermark=2
    )
    geometry = tiny_geometry()
    dftl = DemandPagedFTL(
        geometry, cfg, cmt_bytes=geometry.total_pages * geometry.page_size
    )
    # dftl.config carries the translation-block reserve it carved out;
    # the conventional twin gets the identical reserve so both data
    # paths see the same free pool.
    plain = ConventionalFTL(geometry, dftl.config)
    return dftl, plain


LOGICAL = make_pair()[0].logical_pages


def physics_state(ftl: ConventionalFTL) -> dict:
    return {
        "l2p": ftl.map.l2p.tolist(),
        "valid_counts": ftl.map.valid_counts.tolist(),
        "mapped_pages": ftl.map.mapped_pages,
        "free": list(ftl._free),
        "sealed": sorted(ftl.sealed_blocks),
        "stats": dataclasses.asdict(ftl.stats),
        "erase_counts": ftl.nand.wear.erase_counts.tolist(),
        "nand_counters": dataclasses.asdict(ftl.nand.counters),
    }


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "read", "trim"]),
        st.integers(min_value=0, max_value=LOGICAL - 1),
    ),
    min_size=1,
    max_size=200,
)


class TestFullMapParity:
    @settings(max_examples=30, deadline=None)
    @given(policy=st.sampled_from(["greedy", "cost-benefit", "fifo"]), ops=ops_strategy)
    def test_physics_identical_to_conventional(self, policy, ops):
        dftl, plain = make_pair(policy)
        written = set()
        for op, lpn in ops:
            if op == "write":
                dftl.write(lpn)
                plain.write(lpn)
                written.add(lpn)
            elif op == "read" and lpn in written:
                dftl.read(lpn)
                plain.read(lpn)
            elif op == "trim":
                dftl.trim(lpn)
                plain.trim(lpn)
                written.discard(lpn)
        # Zero translation flash traffic at full coverage...
        assert dftl.nand.counters == plain.nand.counters
        assert dftl.store.stats.gc_runs == 0
        # ...hence identical physics.
        assert physics_state(dftl) == physics_state(plain)
        dftl.check_invariants()
        plain.check_invariants()

    @settings(max_examples=10, deadline=None)
    @given(ops=ops_strategy)
    def test_wa_decomposition_collapses(self, ops):
        dftl, plain = make_pair()
        for op, lpn in ops:
            if op == "write":
                dftl.write(lpn)
                plain.write(lpn)
        count = dftl.nand.counters.count
        assert count("program", "translation-writeback") + count("copy", "translation-gc") == 0
        wa = dftl.nand.counters.write_amplification()
        assert wa == plain.nand.counters.write_amplification()


def pressure_geometry():
    # 512-byte pages -> 128 map entries per translation page; at ~512
    # logical pages that is several translation pages, so a 1-page CMT
    # evicts constantly and translation blocks fill and GC.
    return FlashGeometry(
        page_size=512,
        pages_per_block=16,
        blocks_per_plane=8,
        planes_per_channel=2,
        channels=2,
    )


def overwrite_run(seed: int, cmt_pages: int = 1):
    geometry = pressure_geometry()
    dftl = DemandPagedFTL(
        geometry,
        FTLConfig(op_ratio=0.2, gc_low_watermark=1, gc_high_watermark=2),
        cmt_bytes=cmt_pages * geometry.page_size,
    )
    n = dftl.logical_pages
    for lpn in range(n):
        dftl.write(lpn)
    rng = make_rng(seed)
    for _ in range(8 * n):
        dftl.write(int(rng.integers(0, n)))
    return dftl


class TestSeededDeterminism:
    def test_translation_gc_is_deterministic(self):
        a = overwrite_run(seed=11)
        b = overwrite_run(seed=11)
        assert a.store.stats.gc_runs > 0  # the pressure case really GCs
        assert dataclasses.asdict(a.store.stats) == dataclasses.asdict(b.store.stats)
        assert np.array_equal(a.store.gtd, b.store.gtd)
        assert np.array_equal(a.map.l2p, b.map.l2p)
        assert np.array_equal(a.nand.wear.erase_counts, b.nand.wear.erase_counts)

    def test_wl_policy_determinism_with_dftl(self):
        geometry = pressure_geometry()
        runs = []
        for _ in range(2):
            dftl = DemandPagedFTL(
                geometry,
                FTLConfig(
                    op_ratio=0.2,
                    gc_low_watermark=1,
                    gc_high_watermark=2,
                    wl_policy="static",
                ),
                cmt_bytes=geometry.page_size,
            )
            n = dftl.logical_pages
            for lpn in range(n):
                dftl.write(lpn)
            rng = make_rng(5)
            for _ in range(6 * n):
                dftl.write(int(rng.integers(0, n // 4)))  # skewed: hot quarter
            runs.append(dftl)
        a, b = runs
        assert np.array_equal(a.nand.wear.erase_counts, b.nand.wear.erase_counts)
        assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)
        a.check_invariants()


def cmt_pressure_dftl(tracer=None) -> DemandPagedFTL:
    """The tiny geometry at 64 blocks under a 2-page CMT.

    One translation page holds page_size/4 = 128 entries, so the 16-block
    tiny geometry fits its whole map in one page and never misses; four
    times the blocks spreads the map over ~4 translation pages, and a
    2-page CMT then faults, evicts dirty pages and collects translation
    blocks.
    """
    cfg = FTLConfig(
        op_ratio=0.2, gc_policy="greedy", gc_low_watermark=1, gc_high_watermark=2
    )
    geometry = dataclasses.replace(tiny_geometry(), blocks_per_plane=16)
    return DemandPagedFTL(geometry, cfg, cmt_bytes=2 * geometry.page_size, tracer=tracer)


def cmt_state(dftl: DemandPagedFTL) -> dict:
    store = dftl.store
    return {
        "physics": physics_state(dftl),
        "store_stats": dataclasses.asdict(store.stats),
        "tvpn_slot": store.tvpn_slot.tolist(),
        "slot_tvpn": store.slot_tvpn.tolist(),
        "slot_dirty": store.slot_dirty.tolist(),
        "slot_stamp": store.slot_stamp.tolist(),
        "stamp": store._stamp,
        "gtd": store.gtd.tolist(),
    }


batch_sizes = st.lists(st.integers(64, 256), min_size=4, max_size=8)


class TestWritePages:
    """``DemandPagedFTL.write_pages`` is the per-lpn ``write`` loop."""

    @given(seed=st.integers(0, 2**16), sizes=batch_sizes)
    @settings(max_examples=15, deadline=None)
    def test_write_pages_leaves_the_write_loop_state(self, seed, sizes):
        batched, looped = cmt_pressure_dftl(), cmt_pressure_dftl()
        n = batched.logical_pages
        rng = make_rng(seed)
        for lpns in [np.arange(n, dtype=np.int64)] + [
            rng.integers(0, n, size=size) for size in sizes
        ]:
            assert batched.write_pages(lpns) == lpns.size
            for lpn in lpns.tolist():
                looped.write(lpn)
        assert cmt_state(batched) == cmt_state(looped)
        count = batched.nand.counters.count
        # Misses, dirty evictions and translation GC all ran in between.
        assert count("read", "translation-fetch") > 0
        assert count("program", "translation-writeback") > 0
        assert batched.store.stats.gc_runs > 0
        batched.check_invariants()

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_translation_events_match_store_stats(self, seed):
        tracer = Tracer()
        sink = tracer.attach(FrameSink())
        dftl = cmt_pressure_dftl(tracer)
        rng = make_rng(seed)
        n = dftl.logical_pages
        dftl.write_pages(np.arange(n, dtype=np.int64))
        for _ in range(6):
            dftl.write_pages(rng.integers(0, n, size=int(rng.integers(1, 64))))
        counters = sink.frame.counters
        count = dftl.nand.counters.count
        fetched = count("read", "translation-fetch")
        written_back = count("program", "translation-writeback")
        assert counters.get("translation.miss_fetch", 0) == fetched
        assert counters.get("translation.writeback", 0) == written_back
        # The run must actually exercise the demand-fault machinery.
        assert fetched > 0
        assert written_back > 0
