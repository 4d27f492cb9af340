"""Tests for FTL mapping-durability checkpointing."""

import pytest

from repro.flash.geometry import FlashGeometry
from repro.ftl.checkpoint import CheckpointedFTL, CheckpointPolicy
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.sim.rng import make_rng


class TestCheckpointPolicy:
    def test_checkpoint_fires_at_interval(self):
        policy = CheckpointPolicy(entries_per_metadata_page=4, interval_writes=10)
        written = 0
        for lpn in range(10):
            written += policy.note_mapping_update(lpn)
        # 10 lpns over 4-entry pages -> 3 dirty metadata pages at checkpoint.
        assert policy.stats.checkpoints == 1
        assert written == 3

    def test_dirty_set_deduplicates(self):
        policy = CheckpointPolicy(entries_per_metadata_page=1024, interval_writes=100)
        for _ in range(99):
            policy.note_mapping_update(0)  # same metadata page every time
        assert policy.dirty_pages == 1
        assert policy.checkpoint() == 1

    def test_disabled_interval_writes_nothing(self):
        policy = CheckpointPolicy(interval_writes=0)
        for lpn in range(1000):
            assert policy.note_mapping_update(lpn) == 0
        assert policy.stats.metadata_pages_written == 0

    def test_forced_checkpoint_clears_dirty(self):
        policy = CheckpointPolicy(entries_per_metadata_page=1, interval_writes=1000)
        policy.note_mapping_update(1)
        policy.note_mapping_update(2)
        assert policy.checkpoint() == 2
        assert policy.checkpoint() == 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(entries_per_metadata_page=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(interval_writes=-1)

    def test_overhead_accounting(self):
        policy = CheckpointPolicy(entries_per_metadata_page=1, interval_writes=2)
        policy.note_mapping_update(0)
        policy.note_mapping_update(1)  # checkpoint: 2 pages
        assert policy.stats.metadata_overhead(2) == pytest.approx(1.0)


class TestCheckpointedFTL:
    def test_total_wa_includes_metadata(self):
        device = CheckpointedFTL(
            ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.25)),
            interval_writes=256,
        )
        n = device.ftl.logical_pages
        for lpn in range(n):
            device.write(lpn)
        rng = make_rng(0)
        for _ in range(n):
            device.write(int(rng.integers(0, n)))
        base_wa = device.ftl.nand.counters.write_amplification()
        assert device.total_write_amplification > base_wa > 1.0
        assert device.policy.stats.checkpoints > 0

    def test_reads_do_not_dirty(self):
        device = CheckpointedFTL(
            ConventionalFTL(FlashGeometry.small()), interval_writes=100
        )
        device.write(0)
        dirty_after_write = device.policy.dirty_pages
        device.read(0)
        assert device.policy.dirty_pages == dirty_after_write

    def test_trim_dirties(self):
        device = CheckpointedFTL(
            ConventionalFTL(FlashGeometry.small()), interval_writes=100
        )
        device.write(0)
        device.policy.checkpoint()
        device.trim(0)
        assert device.policy.dirty_pages == 1
