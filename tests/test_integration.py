"""Cross-package integration tests.

These exercise whole stacks end to end: the same op sequence against
every block-device implementation, the LSM store over the host-translated ZNS
stack (three layers deep), and the experiment harness against the devices
it claims to measure.
"""

from collections import Counter

import numpy as np
import pytest

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore
from repro.block.dmzoned import ZonedBlockConfig, ZonedBlockDevice
from repro.block.ramdisk import RamDisk
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD
from repro.ftl.ftl import FTLConfig
from repro.zns.device import ZNSDevice


def all_block_devices():
    """One of each BlockDevice implementation, comparably sized."""
    ram = RamDisk(num_blocks=4096)
    conventional = ConventionalSSD(FlashGeometry.small(), FTLConfig(op_ratio=0.11))
    zoned = ZonedBlockDevice(
        ZNSDevice(ZonedGeometry.small()), ZonedBlockConfig(op_ratio=0.11)
    )
    return {"ramdisk": ram, "conventional": conventional, "zns+host": zoned}


def mixed_ops(count: int, seed: int) -> list[tuple[str, int]]:
    """``(op, lba)`` draws over 2048 LBAs: 30% reads, 5% trims, the rest writes."""
    rng = np.random.default_rng(seed)
    draws = rng.random(count)
    lbas = rng.integers(0, 2048, size=count)
    return [
        ("read" if draw < 0.30 else "trim" if draw < 0.35 else "write", int(lba))
        for draw, lba in zip(draws, lbas)
    ]


def apply_ops(device, ops: list[tuple[str, int]]) -> Counter:
    """Apply ``ops`` through the block interface; a read or trim of an LBA
    that holds no data is skipped and counted as such."""
    counts = Counter()
    written = set()
    for op, lba in ops:
        if op == "write":
            device.write_block(lba)
            written.add(lba)
        elif lba not in written:
            counts[f"skipped_{op}"] += 1
            continue
        elif op == "read":
            device.read_block(lba)
        else:
            device.trim_block(lba)
            written.discard(lba)
        counts[op] += 1
    return counts


class TestTraceAcrossDevices:
    def test_same_trace_same_counts_everywhere(self):
        ops = mixed_ops(6000, seed=0)
        results = {
            name: apply_ops(device, ops) for name, device in all_block_devices().items()
        }
        baseline = results["ramdisk"]
        assert min(baseline["read"], baseline["trim"], baseline["skipped_read"]) > 0
        for name, counts in results.items():
            assert counts == baseline, f"{name} diverged: {counts} vs {baseline}"

    def test_flash_devices_amplify_ram_does_not(self):
        lbas = np.random.default_rng(1).integers(0, 2048, size=12_000)
        devices = all_block_devices()
        for device in devices.values():
            apply_ops(device, [("write", int(lba)) for lba in lbas])
        assert devices["ramdisk"].counters.count("program") == 12_000
        conventional = devices["conventional"]
        flash_writes = conventional.ftl.nand.counters.programmed_pages()
        assert flash_writes > 12_000  # GC copies on top of host writes


class TestLsmOverHostTranslation:
    """LSM -> BlockFileBackend -> ZonedBlockDevice -> ZNSDevice -> NAND."""

    def test_three_layer_stack_round_trips(self):
        zoned_layer = ZonedBlockDevice(
            ZNSDevice(ZonedGeometry.small()), ZonedBlockConfig(op_ratio=0.11)
        )
        store = LSMStore(
            BlockFileBackend(zoned_layer, trim_on_delete=True),
            LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8),
        )
        rng = np.random.default_rng(2)
        truth = {}
        for i in range(4000):
            key = int(rng.integers(0, 600))
            store.put(key, i)
            truth[key] = i
        for key, value in truth.items():
            assert store.get(key) == value
        zoned_layer.check_invariants()

    def test_wa_ledger_multiplies_across_layers(self):
        """user -> app (LSM) -> host (translation) -> flash bytes all line up."""
        device = ZNSDevice(ZonedGeometry.small())
        zoned_layer = ZonedBlockDevice(device, ZonedBlockConfig(op_ratio=0.11))
        store = LSMStore(
            BlockFileBackend(zoned_layer, trim_on_delete=True),
            LSMConfig(memtable_pages=4, level0_pages=16, max_table_pages=8),
        )
        rng = np.random.default_rng(3)
        for i in range(6000):
            store.put(int(rng.integers(0, 800)), i)

        counters, page = device.nand.counters, device.page_size
        user_bytes = store.stats.user_bytes
        app_bytes = store.stats.app_pages_written * page
        # The translation layer's writes and relocations, as the NAND booked them.
        host_bytes = counters.count("program", "host", "reclaim") * page
        flash_bytes = counters.programmed_pages() * page
        application = app_bytes / user_bytes
        host = host_bytes / app_bytes
        device_wa = flash_bytes / host_bytes
        assert application > 1.0  # compaction + WAL
        assert host >= 1.0  # translation reclaim
        assert device_wa >= 0.99  # thin FTL adds nothing
        # Product consistency: the layers multiply to flash/user directly.
        direct = flash_bytes / user_bytes
        assert application * host * device_wa == pytest.approx(direct, rel=0.01)


class TestDeterminism:
    def test_experiments_are_seed_deterministic(self):
        from repro.experiments import ExperimentConfig, run_config

        a = run_config(ExperimentConfig("E8", seed=5))
        b = run_config(ExperimentConfig("E8", seed=5))
        assert a.rows == b.rows
        c = run_config(ExperimentConfig("E8", seed=6))
        assert c.rows != a.rows  # and the seed actually matters

    def test_device_state_machines_deterministic(self):
        def run_once():
            layer = ZonedBlockDevice(
                ZNSDevice(ZonedGeometry.small()), ZonedBlockConfig(op_ratio=0.15)
            )
            rng = np.random.default_rng(7)
            n = layer.logical_pages
            for lba in range(n):
                layer.write(lba)
            for _ in range(n):
                layer.write(int(rng.integers(0, n)))
            counters = layer.device.nand.counters
            return (
                counters.count("program", "reclaim"),
                layer.log.resets,
                counters.programmed_pages(),
            )

        assert run_once() == run_once()
