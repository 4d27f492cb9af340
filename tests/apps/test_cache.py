"""Tests for the flash caches."""

import pytest

from repro.apps.cache import SetAssociativeCache, ZoneLogCache
from repro.block.factory import DeviceSpec, build_stack
from repro.flash.geometry import ZonedGeometry
from repro.workloads.synthetic import zipfian_stream
from repro.zns.device import ZNSDevice


def zns():
    return ZNSDevice(ZonedGeometry.small())


def ftl():
    return build_stack(DeviceSpec(kind="conventional-ftl", geometry="small"))


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(ftl(), ways=2, num_sets=64)
        assert not cache.get(1)
        cache.admit(1)
        assert cache.get(1)
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_set_eviction_lru(self):
        cache = SetAssociativeCache(ftl(), ways=2, num_sets=1)  # everything one set
        cache.admit(1)
        cache.admit(2)
        cache.get(1)  # bump 1
        cache.admit(3)  # evicts 2
        assert cache.get(1)
        assert not cache.get(2)
        assert cache.get(3)

    def test_each_admission_is_one_device_write(self):
        disk = ftl()
        cache = SetAssociativeCache(disk, ways=4, num_sets=64)
        for i in range(100):
            cache.admit(i)
        assert disk.nand.counters.count("program") == 100

    def test_readmitting_resident_is_noop(self):
        disk = ftl()
        cache = SetAssociativeCache(disk, num_sets=64)
        cache.admit(1)
        cache.admit(1)
        assert disk.nand.counters.count("program") == 1


class TestZoneLogCache:
    def test_miss_then_hit(self):
        cache = ZoneLogCache(zns())
        assert not cache.get(1)
        cache.admit(1)
        assert cache.get(1)

    def test_fifo_eviction_on_pressure(self):
        device = zns()
        cache = ZoneLogCache(device, readmit_hot=False)
        capacity = device.zone_count * device.geometry.pages_per_zone
        for i in range(capacity + 500):
            cache.admit(i)
        assert cache.stats.evictions > 0
        assert not cache.get(0)  # oldest object evicted
        assert cache.get(capacity + 499)  # newest survives

    def test_readmission_keeps_hot_objects(self):
        device = zns()
        cache = ZoneLogCache(device, readmit_hot=True)
        capacity = device.zone_count * device.geometry.pages_per_zone
        cache.admit(0)
        for i in range(1, capacity):
            cache.admit(i)
            if i % 50 == 0:
                cache.get(0)  # keep object 0 hot
        for i in range(capacity, capacity + 400):
            cache.admit(i)
            cache.get(0)
        assert cache.get(0), "hot object should have been readmitted"
        assert cache.stats.readmissions > 0

    def test_runs_indefinitely_within_capacity(self):
        cache = ZoneLogCache(zns(), readmit_hot=True)
        for obj in zipfian_stream(20_000, 30_000, theta=0.9, seed=1):
            if not cache.get(obj):
                cache.admit(obj)
        assert cache.stats.hit_ratio > 0.1

