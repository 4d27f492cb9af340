#!/usr/bin/env python3
"""Quickstart: the two device models and why the paper prefers one.

Walks through the public API in five minutes:

1. raw ZNS commands (write, append, read, finish, reset, report);
2. the conventional SSD's block interface and its hidden cost -- device
   write amplification under random writes;
3. the same randomness on ZNS through a host translation layer, where the
   cost is visible, tunable, and keeps data movement inside the device.

Run: ``python examples/quickstart.py``
"""

import numpy as np

from repro.block.dmzoned import ZonedBlockConfig, ZonedBlockDevice
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD
from repro.ftl.ftl import FTLConfig
from repro.zns.device import ZNSDevice


def demo_zns_commands() -> None:
    print("=== 1. ZNS in ten lines ===")
    device = ZNSDevice(ZonedGeometry.small(), store_data=True)
    print(f"device: {device.zone_count} zones x "
          f"{device.geometry.zone_size_bytes // 1024} KiB, "
          f"max {device.geometry.max_active_zones} active zones")

    device.write(0, npages=2, data=[b"hello", b"zoned"])   # sequential write
    offset, _ = device.append(0, data=b"appended")          # device picks offset
    print(f"zone 0 write pointer: {device.zone(0).wp}, append landed at {offset}")
    payload, _ = device.read(0, 1)
    print(f"read back offset 1: {payload!r}")

    device.finish_zone(0)                                    # seal early
    device.reset_zone(0)                                     # erase, wp -> 0
    print(f"after reset: state={device.zone(0).state.value}, wp={device.zone(0).wp}")
    print(f"on-board translation DRAM: {device.dram_bytes()} bytes "
          f"(one 4-byte entry per erasure block)\n")


def demo_conventional_tax() -> None:
    print("=== 2. The block-interface tax ===")
    ssd = ConventionalSSD(FlashGeometry.small(), FTLConfig(op_ratio=0.07))
    rng = np.random.default_rng(0)
    n = ssd.num_blocks
    for lba in range(n):                 # fill
        ssd.write_block(lba)
    for _ in range(2 * n):               # random overwrites
        ssd.write_block(int(rng.integers(0, n)))
    print(f"host wrote {3 * n} pages; flash absorbed "
          f"{ssd.ftl.nand.counters.count('copy', 'gc')} extra GC copies")
    print(f"device write amplification at 7% OP: "
          f"{ssd.ftl.nand.counters.write_amplification():.2f}x\n")


def demo_host_translation() -> None:
    print("=== 3. The same workload, host-side, over ZNS ===")
    device = ZNSDevice(ZonedGeometry.small())
    layer = ZonedBlockDevice(device, ZonedBlockConfig(op_ratio=0.07, use_simple_copy=True))
    rng = np.random.default_rng(0)
    n = layer.num_blocks
    for lba in range(n):
        layer.write_block(lba)
    for _ in range(2 * n):
        layer.write_block(int(rng.integers(0, n)))
    counters = device.nand.counters
    print(f"write amplification from host-side reclaim: "
          f"{counters.write_amplification():.2f}x "
          f"(same algorithm, now in *your* code)")
    print(f"reclaim pages that crossed PCIe: {counters.count('read', 'reclaim')} "
          f"(simple copy keeps them in the device)")
    print(f"host DRAM for the map: {layer.host_dram_bytes() // 1024} KiB "
          f"on cheap commodity DIMMs")


if __name__ == "__main__":
    demo_zns_commands()
    demo_conventional_tax()
    demo_host_translation()
