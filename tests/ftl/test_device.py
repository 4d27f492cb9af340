"""Tests for the SSD device facades, untimed and timed."""

import numpy as np
import pytest

from repro.block.interface import BlockDevice
from repro.block.ramdisk import RamDisk
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD, TimedConventionalSSD
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.sim.engine import Engine
from repro.zns.device import TimedZNSDevice, ZNSDevice


def _timed_ssd(eng, **config) -> TimedConventionalSSD:
    """A timed SSD over a fresh small FTL with four GC streams."""
    ftl = ConventionalFTL(FlashGeometry.small(), FTLConfig(gc_streams=4, **config))
    return TimedConventionalSSD(eng, ftl)


class TestConventionalSSD:
    def test_implements_block_device_protocol(self):
        assert isinstance(ConventionalSSD(FlashGeometry.small()), BlockDevice)
        assert isinstance(RamDisk(16), BlockDevice)

    def test_round_trip_with_payloads(self):
        ssd = ConventionalSSD(FlashGeometry.small(), store_data=True)
        ssd.write_block(5, b"hello")
        assert ssd.read_block(5) == b"hello"

    def test_trim_then_read_fails(self):
        from repro.ftl.ftl import UnmappedReadError

        ssd = ConventionalSSD(FlashGeometry.small())
        ssd.write_block(5)
        ssd.trim_block(5)
        with pytest.raises(UnmappedReadError):
            ssd.read_block(5)

    def test_wa_visible_through_facade(self):
        ssd = ConventionalSSD(FlashGeometry.small(), FTLConfig(op_ratio=0.07))
        rng = np.random.default_rng(0)
        for lba in range(ssd.num_blocks):
            ssd.write_block(lba)
        for _ in range(2 * ssd.num_blocks):
            ssd.write_block(int(rng.integers(0, ssd.num_blocks)))
        assert ssd.ftl.nand.counters.write_amplification() > 1.5


class TestRamDisk:
    def test_round_trip(self):
        disk = RamDisk(num_blocks=8)
        disk.write_block(3, "x")
        assert disk.read_block(3) == "x"

    def test_unwritten_reads_none(self):
        assert RamDisk(8).read_block(0) is None

    def test_trim_clears(self):
        disk = RamDisk(8)
        disk.write_block(1, "x")
        disk.trim_block(1)
        assert disk.read_block(1) is None

    def test_bounds(self):
        with pytest.raises(IndexError):
            RamDisk(8).read_block(8)
        with pytest.raises(ValueError):
            RamDisk(0)


class TestTimedConventionalSSD:
    def test_reads_and_writes_complete_with_latency(self):
        eng = Engine()
        ssd = _timed_ssd(eng)

        def driver(eng, ssd):
            yield ssd.submit_write(0)
            latency = yield ssd.submit_read(0)
            return latency

        p = eng.process(driver(eng, ssd))
        latency = eng.run(until=p)
        assert latency > 0
        assert ssd.frame.observations("hostio.request.read.latency_us") == 1
        assert ssd.frame.observations("hostio.request.write.latency_us") == 1

    def test_background_gc_sustains_random_overwrites(self):
        eng = Engine()
        ssd = _timed_ssd(eng, op_ratio=0.15)
        rng = np.random.default_rng(1)
        n = ssd.ftl.logical_pages

        def driver(eng, ssd):
            for lpn in range(n):
                yield ssd.submit_write(lpn)
            for _ in range(n):
                yield ssd.submit_write(int(rng.integers(0, n)))

        p = eng.process(driver(eng, ssd))
        eng.run(until=p)
        assert ssd.ftl.stats.gc_runs > 0
        ssd.ftl.check_invariants()

    def test_gc_inflates_read_tail_latency(self):
        """The §2.4 phenomenon: concurrent reads during GC-heavy writes see
        tail latencies far above the raw read service time."""
        eng = Engine()
        ssd = _timed_ssd(eng, op_ratio=0.07)
        rng = np.random.default_rng(2)
        n = ssd.ftl.logical_pages
        # Prefill untimed for speed.
        for lpn in range(n):
            ssd.ftl.write(lpn)

        def writer(eng, ssd):
            # The 500 reads are over within ~0.43 simulated s; n // 4
            # writes keep GC busy for twenty times that.
            for _ in range(n // 4):
                yield ssd.submit_write(int(rng.integers(0, n)))

        def reader(eng, ssd):
            from repro.sim.engine import Timeout

            for _ in range(500):
                yield Timeout(eng, 200.0)
                yield ssd.submit_read(int(rng.integers(0, n)))

        w = eng.process(writer(eng, ssd))
        r = eng.process(reader(eng, ssd))
        eng.run(until=w)
        eng.run(until=r)
        p99 = ssd.frame.quantile("hostio.request.read.latency_us", 0.99)
        raw_read = ssd.service.timing.read_total_us(ssd.ftl.geometry.page_size)
        assert p99 > 2 * raw_read


class TestTimedZNSDevice:
    def test_write_and_read_latencies(self):
        eng = Engine()
        dev = TimedZNSDevice(eng, ZNSDevice(ZonedGeometry.small()))

        def driver(eng, dev):
            yield dev.submit_write(0)
            latency = yield dev.submit_read(0, 0)
            return latency

        p = eng.process(driver(eng, dev))
        latency = eng.run(until=p)
        assert latency > 0

    def test_concurrent_writes_one_zone_serialize(self):
        eng = Engine()
        dev = TimedZNSDevice(eng, ZNSDevice(ZonedGeometry.small()))
        procs = [dev.submit_write(0) for _ in range(4)]
        for p in procs:
            eng.run(until=p)
        program = dev.service.timing.program_total_us(dev.device.page_size)
        # Lock serialization: last write waited for the first three.
        assert dev.frame.quantile("hostio.request.write.latency_us", 1.0) >= 3.5 * program

    def test_concurrent_appends_one_zone_parallelize(self):
        eng = Engine()
        dev = TimedZNSDevice(eng, ZNSDevice(ZonedGeometry.small()))
        procs = [dev.submit_append(0) for _ in range(4)]
        for p in procs:
            eng.run(until=p)
        program = dev.service.timing.program_total_us(dev.device.page_size)
        # Striped appends land on distinct planes: far better than 4x serial.
        assert dev.frame.quantile("hostio.request.append.latency_us", 1.0) < 3 * program

    def test_reset_erases_in_parallel(self):
        eng = Engine()
        dev = TimedZNSDevice(eng, ZNSDevice(ZonedGeometry.small()))

        def driver(eng, dev):
            yield dev.submit_write(0, npages=dev.device.geometry.pages_per_zone)
            start = eng.now
            yield dev.submit_reset(0)
            return eng.now - start

        p = eng.process(driver(eng, dev))
        reset_time = eng.run(until=p)
        erase = dev.service.timing.erase_us
        # Blocks of the zone sit on different planes; erases overlap.
        assert reset_time < dev.device.geometry.blocks_per_zone * erase
