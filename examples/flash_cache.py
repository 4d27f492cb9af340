#!/usr/bin/env python3
"""Flash caching two ways (the E13 scenario, §4.1's motivating app).

A CDN-style object cache under zipfian traffic, built twice:

- in-place set-associative over a conventional SSD -- every admission is
  a random 4 KiB rewrite, the FTL's nightmare;
- an append-only zone log over ZNS with FIFO zone eviction and hot-object
  readmission -- write amplification 1 by construction.

Run: ``python examples/flash_cache.py``
"""

from repro.apps.cache import SetAssociativeCache, ZoneLogCache
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD
from repro.ftl.ftl import FTLConfig
from repro.workloads.synthetic import zipfian_stream
from repro.zns.device import ZNSDevice

UNIVERSE = 60_000  # distinct cacheable objects
REQUESTS = 200_000
THETA = 0.9  # zipfian skew


def run_set_associative():
    ssd = ConventionalSSD(FlashGeometry.small(), FTLConfig(op_ratio=0.07))
    cache = SetAssociativeCache(ssd.ftl, ways=4)
    for obj in zipfian_stream(UNIVERSE, REQUESTS, theta=THETA, seed=0):
        if not cache.get(obj):
            cache.admit(obj)
    flash_pages = ssd.ftl.nand.counters.programmed_pages()
    return cache, flash_pages, ssd.ftl.nand.counters.count("erase")


def run_zone_log():
    zoned = ZonedGeometry(
        flash=FlashGeometry.small(), blocks_per_zone=2, max_active_zones=14
    )
    device = ZNSDevice(zoned)
    cache = ZoneLogCache(device, readmit_hot=True)
    for obj in zipfian_stream(UNIVERSE, REQUESTS, theta=THETA, seed=0):
        if not cache.get(obj):
            cache.admit(obj)
    flash_pages = device.nand.counters.programmed_pages()
    return cache, flash_pages, device.nand.counters.count("erase")


def main() -> None:
    print(f"workload: {REQUESTS:,} zipfian({THETA}) gets over "
          f"{UNIVERSE:,} objects, 32 MiB of flash\n")
    print(f"{'design':28s} {'hit ratio':>9} {'device WA':>9} {'erases':>7}")
    for label, runner in [
        ("set-assoc / conventional", run_set_associative),
        ("zone log / zns", run_zone_log),
    ]:
        cache, flash_pages, erases = runner()
        wa = flash_pages / max(cache.stats.insertions, 1)
        print(f"{label:28s} {cache.stats.hit_ratio:9.3f} {wa:9.2f} {erases:7d}")

    print(
        "\nTakeaway: the zone log erases a fraction as often for the same "
        "traffic -- that is device lifetime, the currency flash caches "
        "actually spend (paper §2, §4.1). Readmission recovers part of the "
        "hit-ratio gap and is a knob only the host-side design has."
    )


if __name__ == "__main__":
    main()
