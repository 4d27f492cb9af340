"""Scalar device state reads through a view of each array's own buffer.

DESIGN.md §6, "Scalar state reads through a view, not a copy": every
per-block and per-page array a one-page op indexes has a ``*_v``
``memoryview`` beside it. The scalar path indexes the view, which yields
a plain ``int``; runs, scans and the ``repro.ftl.mapping`` kernels use
the array. Both name one buffer, so they cannot drift apart -- unless
the array is rebound, which every ``check_invariants()`` covering one
catches (``view.obj is array``).
"""

import numpy as np
import pytest

from repro.block.dmzoned import ZonedBlockDevice
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.nand import NandArray
from repro.flash.wear import WearStats, WearTracker
from repro.ftl.dftl import DemandPagedFTL
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.sim.rng import make_rng
from repro.zns.device import ZNSDevice

SMALL = FlashGeometry.small()


def _ftl() -> ConventionalFTL:
    return ConventionalFTL(SMALL, FTLConfig(op_ratio=0.25))


def _dftl() -> DemandPagedFTL:
    return DemandPagedFTL(SMALL, FTLConfig(op_ratio=0.11), cmt_bytes=SMALL.page_size)


def _dmzoned() -> ZonedBlockDevice:
    return ZonedBlockDevice(ZNSDevice(ZonedGeometry.small()))


def _churn(device, writes: int, seed: int) -> None:
    """Fill the logical space, then overwrite ``writes`` seeded pages."""
    for lpn in range(device.logical_pages):
        device.write(lpn)
    rng = make_rng(seed)
    for lpn in rng.integers(0, device.logical_pages, writes).tolist():
        device.write(lpn)


def _assert_int_fields(ops) -> None:
    for op in ops:
        assert type(op.block) is int and type(op.page) is int, op


class TestScalarReadsArePythonInts:
    """What the scalar path returns reaches traces and JSON: no numpy scalars."""

    def test_nand_introspection(self):
        nand = NandArray(SMALL)
        nand.program(0, "host")
        nand.read(0, "host")
        assert type(nand.write_offset(0)) is int
        assert nand.is_programmed(0) is True
        assert nand.is_programmed(1) is False

    def test_translation_store_is_cached(self):
        device = _dftl()
        device.write(0)
        assert device.store.is_cached(0) is True
        assert device.store.is_cached(1) is False

    def test_full_page_map(self):
        ftl = _ftl()
        (program,) = ftl.write(3)
        assert type(ftl.map.lookup(3)) is int
        assert type(ftl.map.lookup(4)) is int  # unmapped
        assert type(ftl.map.owner_of(program.page)) is int
        assert type(ftl.map.valid_counts_v[program.block]) is int

    def test_conventional_op_records(self):
        ftl = _ftl()
        _assert_int_fields(ftl.write(7))
        _assert_int_fields([ftl.read(7)])

    def test_zns_op_records(self):
        device = ZNSDevice(ZonedGeometry.small())
        _assert_int_fields(device.write(0, npages=3))
        _assert_int_fields([device.read(0, 2)[1]])

    def test_dmzoned_op_records(self):
        layer = _dmzoned()
        _assert_int_fields(layer.write(5))
        _assert_int_fields([layer.read(5)[1]])


@pytest.mark.parametrize("build", [_ftl, _dftl], ids=["conventional", "dftl"])
def test_crash_and_recover_keep_views_on_their_arrays(build):
    """Recovery writes the rebuilt maps in place, so the views see them."""
    device = build()
    _churn(device, 2000, seed=3)
    before = device.map.l2p.copy()
    device.crash()
    device.check_invariants()
    device.recover()
    device.check_invariants()
    np.testing.assert_array_equal(device.map.l2p, before)
    for lpn in range(0, device.logical_pages, 97):
        assert device.read(lpn).page == before[lpn]
    program = device.write(11)[-1]
    assert device.read(11).page == program.page == device.map.lookup(11)
    device.check_invariants()


REBINDINGS = [
    *((_ftl, path) for path in (
        "map.l2p", "map.p2l", "map.valid_counts",
        "_oob_lpn", "_oob_serial", "_seal_time_arr",
        "nand._write_offsets",
        "nand.wear.erase_counts", "nand.wear.bad_mask",
    )),
    *((_dftl, path) for path in (
        "store.gtd", "store.tvpn_slot", "store.slot_tvpn", "store.slot_dirty",
        "store.slot_stamp", "_trans_valid",
    )),
    *((_dmzoned, path) for path in ("_l2p", "_p2l", "log.live", "log.sealed")),
]


@pytest.mark.parametrize(
    "build, path", REBINDINGS, ids=[f"{b.__name__[1:]}.{p}" for b, p in REBINDINGS]
)
def test_rebinding_an_array_is_caught(build, path):
    device = build()
    device.write(1)
    device.check_invariants()
    *parents, name = path.split(".")
    owner = device
    for attr in parents:
        owner = getattr(owner, attr)
    setattr(owner, name, getattr(owner, name).copy())
    with pytest.raises(AssertionError, match=f"^{name} rebound away from its view$"):
        device.check_invariants()


def _loop_stats(wear: WearTracker) -> WearStats:
    """``WearTracker.stats`` as it was: a loop over the blocks not retired."""
    live = np.array(
        [c for b, c in enumerate(wear.erase_counts) if b not in wear.bad_blocks],
        dtype=np.int64,
    )
    if live.size == 0:
        return WearStats(0, 0, 0.0, 0.0, len(wear.bad_blocks))
    return WearStats(
        min_erases=int(live.min()),
        max_erases=int(live.max()),
        mean_erases=float(live.mean()),
        std_erases=float(live.std()),
        bad_blocks=len(wear.bad_blocks),
    )


@pytest.mark.parametrize("seed", range(5))
def test_wear_stats_match_the_loop_with_retired_blocks(seed):
    rng = make_rng(seed)
    wear = WearTracker(total_blocks=32, endurance_cycles=6)
    for block in rng.integers(0, 32, 400).tolist():
        if rng.random() < 0.02:
            wear.mark_bad(block)
        elif not wear.is_bad(block):
            wear.record_erase(block)  # retires the block past 6 erases
        assert wear.stats() == _loop_stats(wear)
    assert wear.bad_blocks, "the walk retired no block"


def test_wear_stats_with_every_block_retired():
    wear = WearTracker(total_blocks=3)
    for block in range(3):
        wear.mark_bad(block)
    assert wear.stats() == _loop_stats(wear) == WearStats(0, 0, 0.0, 0.0, 3)
