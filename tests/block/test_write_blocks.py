"""``BlockDevice.write_blocks``: one ranged call equals the per-block loop.

The protocol defines ``write_blocks(start, count)`` as ``write_block`` on
each block of the run in ascending order. ``ConventionalSSD`` serves it
through ``ConventionalFTL.write_pages`` (``tests/ftl/test_batch_parity.py``
pins that path to scalar ``write``); these tests pin the device-level
command on all three implementations, twin against twin.
"""

import dataclasses

import numpy as np
import pytest

from repro.block.dmzoned import ZonedBlockDevice
from repro.block.ramdisk import RamDisk
from repro.faults import FaultInjector, FaultPlan
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD
from repro.ftl.ftl import FTLConfig
from repro.zns.device import ZNSDevice

# 32 blocks of 8 pages: random extents over a full device force GC constantly.
TINY = FlashGeometry(
    page_size=512, pages_per_block=8, blocks_per_plane=4, planes_per_channel=2, channels=4
)


def make_ssd(plan: FaultPlan | None = None, store_data: bool = False) -> ConventionalSSD:
    ssd = ConventionalSSD(TINY, FTLConfig(op_ratio=0.2), store_data=store_data)
    if plan is not None:
        ssd.ftl.nand.faults = FaultInjector(plan).bind(ssd.tracer)
    return ssd


def random_extents(num_blocks: int, n: int, seed: int) -> list[tuple[int, int]]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        count = int(rng.integers(1, 30))
        out.append((int(rng.integers(0, num_blocks - count + 1)), count))
    return out


def ssd_state(ssd: ConventionalSSD) -> dict:
    ftl = ssd.ftl
    return {
        "l2p": ftl.map.l2p.tolist(),
        "stats": dataclasses.asdict(ftl.stats),
        "nand": dataclasses.asdict(ftl.nand.counters),
        "erase_counts": ftl.nand.wear.erase_counts.tolist(),
        "seal_times": {b: ftl._seal_time_arr_v[b] for b in ftl.sealed_blocks},
        "free": list(ftl._free),
        "payloads": dict(ssd._payloads),
    }


def drive_twins(looped, ranged, extents) -> None:
    for start, count in extents:
        for lba in range(start, start + count):
            looped.write_block(lba)
        ranged.write_blocks(start, count)


class TestConventionalSSD:
    def test_equals_write_block_loop_under_gc(self):
        looped, ranged = make_ssd(), make_ssd()
        fill = [(0, looped.num_blocks)]
        drive_twins(looped, ranged, fill + random_extents(looped.num_blocks, 300, seed=1))
        assert looped.ftl.stats.gc_runs > 50  # the fill and the churn forced GC
        assert ssd_state(looped) == ssd_state(ranged)
        ranged.ftl.check_invariants()

    def test_takes_the_array_path_when_unarmed(self, monkeypatch):
        ssd = make_ssd()
        monkeypatch.setattr(ssd.ftl, "write", None)  # a scalar call would raise
        ssd.write_blocks(3, 20)
        assert ssd.ftl.nand.counters.count("program", "host") == 20

    def test_armed_fault_plan_takes_the_scalar_loop(self, monkeypatch):
        # Armed, ``write_pages`` programs page by page through the one
        # fault path, so faults land exactly where the loop's do.
        plan = FaultPlan(seed=5, program_fail_prob=0.01, latency_spike_prob=0.05)
        looped, ranged = make_ssd(plan), make_ssd(plan)
        monkeypatch.setattr(ranged.ftl, "write", None)  # a scalar call would raise
        fill = [(0, looped.num_blocks)]
        drive_twins(looped, ranged, fill + random_extents(looped.num_blocks, 60, seed=2))
        assert looped.ftl.stats.program_faults > 0
        assert ssd_state(looped) == ssd_state(ranged)
        assert looped.ftl.nand.faults.counts == ranged.ftl.nand.faults.counts

    def test_payloads_are_cleared_like_the_loop(self):
        looped, ranged = make_ssd(store_data=True), make_ssd(store_data=True)
        for ssd in (looped, ranged):
            ssd.write_block(4, "old")
        drive_twins(looped, ranged, [(2, 5)])
        assert ssd_state(looped) == ssd_state(ranged)
        assert ranged.read_block(4) is None


def make_ramdisk() -> RamDisk:
    return RamDisk(num_blocks=64)


def make_dmzoned() -> ZonedBlockDevice:
    return ZonedBlockDevice(ZNSDevice(ZonedGeometry.small()))


DEVICES = [
    (make_ssd, lambda ssd: ssd.ftl.nand.counters.count("program", "host")),
    (make_ramdisk, lambda disk: disk.counters.count("program")),
    (make_dmzoned, lambda layer: layer.device.nand.counters.count("program", "host")),
]


@pytest.mark.parametrize("make,pages_written", DEVICES)
class TestEveryBlockDevice:
    def test_rejects_out_of_range_at_both_ends_before_writing(self, make, pages_written):
        device = make()
        n = device.num_blocks
        for start, count in [(-1, 2), (-3, 1), (n - 1, 2), (n, 1)]:
            with pytest.raises(IndexError):
                device.write_blocks(start, count)
        with pytest.raises(ValueError):
            device.write_blocks(0, -1)
        assert pages_written(device) == 0  # the in-range head of a bad run stays unwritten

    def test_last_block_and_empty_run_accepted(self, make, pages_written):
        device = make()
        n = device.num_blocks
        device.write_blocks(n, 0)
        device.write_blocks(n - 3, 3)
        device.write_blocks(0, 2)
        assert pages_written(device) == 5
        device.read_block(n - 1)


class TestLoopingDevices:
    def test_ramdisk_equals_loop(self):
        looped, ranged = make_ramdisk(), make_ramdisk()
        for disk in (looped, ranged):
            disk.write_block(7, "old")
        drive_twins(looped, ranged, random_extents(64, 40, seed=3))
        assert looped._data == ranged._data
        assert looped.counters == ranged.counters
        assert ranged.read_block(7) is None

    def test_dmzoned_equals_loop_through_reclaim(self):
        looped, ranged = make_dmzoned(), make_dmzoned()
        n = looped.num_blocks
        extents = [(0, n)] + random_extents(n, 400, seed=4)
        drive_twins(looped, ranged, extents)
        assert looped.log.resets > 0
        assert looped._l2p.tolist() == ranged._l2p.tolist()
        assert dataclasses.asdict(looped.stats) == dataclasses.asdict(ranged.stats)
        assert looped.log.resets == ranged.log.resets
        assert dataclasses.asdict(looped.device.nand.counters) == dataclasses.asdict(
            ranged.device.nand.counters
        )
        ranged.check_invariants()
