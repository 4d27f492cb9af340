"""Tests for op counters and WA accounting."""

import pytest

from repro.metrics.counters import OpCounter
from repro.metrics.wa import WriteAmpAccounting


class TestOpCounter:
    def test_notes_accumulate(self):
        c = OpCounter()
        c.note_read(4096)
        c.note_write(4096)
        c.note_write(4096)
        c.note_erase()
        c.note_copy(4096)
        assert (c.reads, c.writes, c.erases, c.copies) == (1, 2, 1, 1)
        assert c.bytes_written == 8192
        assert c.bytes_copied == 4096

    def test_snapshot_is_independent(self):
        c = OpCounter()
        c.note_write(100)
        snap = c.snapshot()
        c.note_write(100)
        assert snap.writes == 1
        assert c.writes == 2

    def test_delta_between_snapshots(self):
        c = OpCounter()
        c.note_write(100)
        before = c.snapshot()
        c.note_write(100)
        c.note_erase()
        d = c.delta(before)
        assert d.writes == 1
        assert d.erases == 1
        assert d.bytes_written == 100


class TestWriteAmpAccounting:
    def test_no_amplification_when_layers_pass_through(self):
        acct = WriteAmpAccounting()
        acct.record_user(1000)
        acct.record_flash(1000)
        b = acct.breakdown()
        assert b.total == pytest.approx(1.0)

    def test_device_wa_isolated(self):
        acct = WriteAmpAccounting()
        acct.record_user(1000)
        acct.record_host(1000)
        acct.record_flash(2500)
        b = acct.breakdown()
        assert b.application == pytest.approx(1.0)
        assert b.host == pytest.approx(1.0)
        assert b.device == pytest.approx(2.5)
        assert b.total == pytest.approx(2.5)

    def test_layers_multiply(self):
        acct = WriteAmpAccounting()
        acct.record_user(100)
        acct.record_app(300)  # LSM compaction x3
        acct.record_host(300)
        acct.record_flash(600)  # device GC x2
        b = acct.breakdown()
        assert b.application == pytest.approx(3.0)
        assert b.device == pytest.approx(2.0)
        assert b.total == pytest.approx(6.0)

    def test_empty_accounting_is_unity(self):
        assert WriteAmpAccounting().total == pytest.approx(1.0)

    def test_str_contains_factors(self):
        acct = WriteAmpAccounting()
        acct.record_user(100)
        acct.record_flash(150)
        assert "1.50" in str(acct.breakdown())
