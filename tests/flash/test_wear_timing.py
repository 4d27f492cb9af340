"""Tests for wear tracking, timing model, and service model."""

import numpy as np
import pytest

from repro.flash.cells import CellType
from repro.flash.geometry import FlashGeometry
from repro.flash.ops import FlashOp, OpKind
from repro.flash.service import FlashServiceModel
from repro.flash.timing import TimingModel
from repro.flash.wear import WearTracker
from repro.sim.engine import Engine


class TestWearTracker:
    def test_counts_start_zero(self):
        w = WearTracker(total_blocks=4)
        assert w.stats().max_erases == 0

    def test_record_erase_increments(self):
        w = WearTracker(total_blocks=4)
        assert w.record_erase(2)
        assert w.erase_counts[2] == 1

    def test_endurance_disabled_never_fails(self):
        w = WearTracker(total_blocks=2, endurance_cycles=0)
        for _ in range(1000):
            assert w.record_erase(0)

    def test_deterministic_failure_at_limit(self):
        w = WearTracker(total_blocks=2, endurance_cycles=5)
        for _ in range(5):
            assert w.record_erase(0)
        assert not w.record_erase(0)
        assert w.is_bad(0)

    def test_probabilistic_failure_with_rng(self):
        w = WearTracker(
            total_blocks=1,
            endurance_cycles=1,
            failure_probability=0.5,
            failure_rng=np.random.default_rng(0),
        )
        w.record_erase(0)
        # Past limit: eventually fails, but not necessarily first time.
        survived = 0
        while not w.is_bad(0) and survived < 1000:
            w.record_erase(0)
            survived += 1
        assert w.is_bad(0)
        assert survived < 100  # p=0.5 per erase

    def test_erase_retired_block_rejected(self):
        w = WearTracker(total_blocks=1, endurance_cycles=1)
        w.record_erase(0)
        w.record_erase(0)  # fails, retires
        with pytest.raises(ValueError):
            w.record_erase(0)

    def test_stats_exclude_bad_blocks(self):
        w = WearTracker(total_blocks=3, endurance_cycles=1)
        w.record_erase(0)
        w.record_erase(0)  # retire block 0
        stats = w.stats()
        assert stats.bad_blocks == 1
        assert stats.max_erases == 0  # blocks 1 and 2 untouched

    def test_imbalance_zero_when_level(self):
        w = WearTracker(total_blocks=4)
        for b in range(4):
            w.record_erase(b)
        assert w.stats().imbalance == pytest.approx(0.0)


class TestTimingModel:
    def test_defaults_from_cell_type(self):
        t = TimingModel.for_cell(CellType.TLC)
        chars = CellType.TLC.characteristics
        assert t.read_us == chars.read_us
        assert t.program_us == chars.program_us
        assert t.erase_us == chars.erase_us

    def test_overrides_respected(self):
        t = TimingModel(cell_type=CellType.TLC, read_us=1.0)
        assert t.read_us == 1.0
        assert t.program_us == CellType.TLC.characteristics.program_us

    def test_transfer_time_scales_with_size(self):
        t = TimingModel()
        assert t.transfer_us(8192) == pytest.approx(2 * t.transfer_us(4096))

    def test_transfer_rate_sanity(self):
        t = TimingModel(channel_mb_per_s=800.0)
        # 4 KiB at 800 MB/s ~ 4.9 us.
        assert t.transfer_us(4096) == pytest.approx(4.88, rel=0.01)

    def test_totals_include_transfer(self):
        t = TimingModel()
        assert t.read_total_us(4096) > t.read_us
        assert t.program_total_us(4096) > t.program_us

    def test_invalid_channel_rate_rejected(self):
        with pytest.raises(ValueError):
            TimingModel(channel_mb_per_s=-1)


class TestFlashServiceModel:
    def test_single_read_takes_array_plus_transfer(self):
        eng = Engine()
        g = FlashGeometry.small()
        svc = FlashServiceModel(eng, g)
        op = FlashOp(OpKind.READ, 0, 0, 0.0)
        p = eng.process(svc.execute(op))
        latency = eng.run(until=p)
        expected = svc.timing.read_us + svc.timing.transfer_us(g.page_size)
        assert latency == pytest.approx(expected)

    def test_same_plane_ops_serialize(self):
        eng = Engine()
        g = FlashGeometry.small()
        svc = FlashServiceModel(eng, g)
        block = 0
        same_plane = g.total_planes  # block on the same plane as block 0
        assert g.plane_of_block(block) == g.plane_of_block(same_plane)
        p1 = eng.process(svc.execute(FlashOp(OpKind.ERASE, block, None, 0.0)))
        p2 = eng.process(svc.execute(FlashOp(OpKind.READ, same_plane, 0, 0.0)))
        eng.run(until=p2)
        read_latency = p2.value
        # The read queued behind the full erase on its plane.
        assert read_latency >= svc.timing.erase_us

    def test_different_planes_run_parallel(self):
        eng = Engine()
        g = FlashGeometry.small()
        svc = FlashServiceModel(eng, g)
        p1 = eng.process(svc.execute(FlashOp(OpKind.ERASE, 0, None, 0.0)))
        p2 = eng.process(svc.execute(FlashOp(OpKind.ERASE, 1, None, 0.0)))
        eng.run()
        assert p1.value == pytest.approx(svc.timing.erase_us)
        assert p2.value == pytest.approx(svc.timing.erase_us)

    def test_channel_serializes_transfers(self):
        eng = Engine()
        g = FlashGeometry(planes_per_channel=2, channels=1, blocks_per_plane=4)
        svc = FlashServiceModel(eng, g)
        # Two reads on different planes, same channel: array time overlaps,
        # transfers serialize.
        p1 = eng.process(svc.execute(FlashOp(OpKind.READ, 0, 0, 0.0)))
        p2 = eng.process(svc.execute(FlashOp(OpKind.READ, 1, 0, 0.0)))
        eng.run()
        transfer = svc.timing.transfer_us(g.page_size)
        slower = max(p1.value, p2.value)
        assert slower == pytest.approx(svc.timing.read_us + 2 * transfer)

    def test_copy_skips_channel(self):
        eng = Engine()
        g = FlashGeometry.small()
        svc = FlashServiceModel(eng, g)
        op = FlashOp(OpKind.COPY, 0, 0, 0.0, uses_channel=False)
        p = eng.process(svc.execute(op))
        latency = eng.run(until=p)
        assert latency == pytest.approx(svc.timing.read_us + svc.timing.program_us)

    def test_read_priority_overtakes_background(self):
        eng = Engine()
        g = FlashGeometry.small()
        svc = FlashServiceModel(eng, g, prioritize_reads=True)
        same_plane = g.total_planes
        # Occupy the plane, then queue an erase and a read; read must win.
        running = eng.process(svc.execute(FlashOp(OpKind.ERASE, 0, None, 0.0)))
        erase2 = eng.process(svc.execute(FlashOp(OpKind.ERASE, same_plane, None, 0.0)))
        read = eng.process(svc.execute(FlashOp(OpKind.READ, same_plane, 0, 0.0)))
        eng.run()
        # read completes before the second erase despite arriving later.
        assert read.value < erase2.value
