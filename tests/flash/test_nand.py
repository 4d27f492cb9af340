"""Tests for the raw NAND array state machine."""

import pytest

from repro.flash.errors import BadBlockError, ProgramOrderError, ReadUnwrittenError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.wear import WearTracker


@pytest.fixture
def nand():
    return NandArray(FlashGeometry.small())


def fill_block(nand, block):
    for page in nand.geometry.pages_of_block(block):
        nand.program(page, "host")


class TestProgram:
    def test_sequential_program_succeeds(self, nand):
        fill_block(nand, 0)
        assert nand.is_block_full(0)

    def test_out_of_order_program_rejected(self, nand):
        with pytest.raises(ProgramOrderError):
            nand.program(1, "host")  # page 0 not programmed yet

    def test_reprogram_rejected(self, nand):
        nand.program(0, "host")
        with pytest.raises(ProgramOrderError):
            nand.program(0, "host")

    def test_program_full_block_rejected(self, nand):
        fill_block(nand, 0)
        with pytest.raises(ProgramOrderError):
            nand.program_next(0, "host")

    def test_program_next_returns_page(self, nand):
        page, latency = nand.program_next(5, "host")
        assert page == nand.geometry.first_page_of_block(5)
        assert latency > 0
        page2, _ = nand.program_next(5, "host")
        assert page2 == page + 1

    def test_write_offset_tracks(self, nand):
        assert nand.write_offset(0) == 0
        nand.program(0, "host")
        nand.program(1, "host")
        assert nand.write_offset(0) == 2
        assert nand.free_pages_in_block(0) == nand.geometry.pages_per_block - 2

    def test_counters_track_programs(self, nand):
        nand.program(0, "host")
        assert nand.counters.programmed_pages() == nand.counters.count("program", "host") == 1
        assert nand.counters.count("program") == 1


class TestRead:
    def test_read_programmed_page(self, nand):
        nand.program(0, "host")
        _, latency = nand.read(0, "host")
        assert latency > 0
        assert nand.counters.count("read") == 1

    def test_read_unwritten_rejected(self, nand):
        with pytest.raises(ReadUnwrittenError):
            nand.read(0, "host")

    def test_read_after_erase_rejected(self, nand):
        nand.program(0, "host")
        nand.erase(0, "host")
        with pytest.raises(ReadUnwrittenError):
            nand.read(0, "host")

    def test_payload_round_trip_when_storing(self):
        nand = NandArray(FlashGeometry.small(), store_data=True)
        nand.program(0, "host", data=b"hello")
        payload, _ = nand.read(0, "host")
        assert payload == b"hello"

    def test_payload_none_when_not_storing(self, nand):
        nand.program(0, "host", data=b"dropped")
        payload, _ = nand.read(0, "host")
        assert payload is None


class TestErase:
    def test_erase_resets_write_offset(self, nand):
        fill_block(nand, 0)
        nand.erase(0, "host")
        assert nand.is_block_erased(0)
        nand.program(0, "host")  # can program from the start again

    def test_erase_latency_exceeds_program(self, nand):
        program_latency = nand.program(0, "host")
        erase_latency = nand.erase(0, "host")
        assert erase_latency > program_latency

    def test_erase_clears_stored_data(self):
        nand = NandArray(FlashGeometry.small(), store_data=True)
        nand.program(0, "host", data=b"x")
        nand.erase(0, "host")
        nand.program(0, "host", data=None)
        payload, _ = nand.read(0, "host")
        assert payload is None

    def test_erase_counts_wear(self, nand):
        nand.erase(0, "host")
        nand.erase(0, "host")
        assert nand.wear.erase_counts[0] == 2

    def test_erased_blocks_listing(self, nand):
        nand.program(0, "host")
        erased = nand.erased_blocks()
        assert 0 not in erased
        assert 1 in erased


class TestWearIntegration:
    def test_block_retires_at_endurance_limit(self):
        geometry = FlashGeometry.small()
        wear = WearTracker(total_blocks=geometry.total_blocks, endurance_cycles=3)
        nand = NandArray(geometry, wear=wear)
        for _ in range(3):
            nand.erase(0, "host")
        with pytest.raises(BadBlockError):
            nand.erase(0, "host")
        assert wear.is_bad(0)

    def test_retired_block_rejects_all_ops(self):
        geometry = FlashGeometry.small()
        wear = WearTracker(total_blocks=geometry.total_blocks, endurance_cycles=1)
        nand = NandArray(geometry, wear=wear)
        nand.erase(0, "host")
        with pytest.raises(BadBlockError):
            nand.erase(0, "host")
        with pytest.raises(BadBlockError):
            nand.program(0, "host")
        with pytest.raises(BadBlockError):
            nand.read(0, "host")

    def test_mismatched_wear_tracker_rejected(self):
        geometry = FlashGeometry.small()
        with pytest.raises(ValueError):
            NandArray(geometry, wear=WearTracker(total_blocks=7))


class TestCopyPage:
    def test_copy_moves_data_without_host_read(self):
        nand = NandArray(FlashGeometry.small(), store_data=True)
        nand.program(0, "host", data=b"payload")
        dst = nand.geometry.first_page_of_block(1)
        nand.copy_page(0, dst, "gc")
        payload, _ = nand.read(dst, "host")
        assert payload == b"payload"
        assert nand.counters.count("read") == 1  # only the verification read above
        assert nand.counters.count("copy") == 1

    def test_copy_counts_physical_write(self):
        nand = NandArray(FlashGeometry.small())
        nand.program(0, "host")
        before = nand.counters.programmed_pages()
        nand.copy_page(0, nand.geometry.first_page_of_block(1), "gc")
        assert nand.counters.programmed_pages() == before + 1

    def test_copy_respects_program_order(self):
        nand = NandArray(FlashGeometry.small())
        nand.program(0, "host")
        bad_dst = nand.geometry.first_page_of_block(1) + 1
        with pytest.raises(ProgramOrderError):
            nand.copy_page(0, bad_dst, "gc")

    def test_copy_from_unwritten_rejected(self):
        nand = NandArray(FlashGeometry.small())
        with pytest.raises(ReadUnwrittenError):
            nand.copy_page(0, nand.geometry.first_page_of_block(1), "gc")


class TestCheckInvariants:
    def test_holds_through_program_read_copy_erase(self):
        nand = NandArray(FlashGeometry.small(), store_data=True)
        fill_block(nand, 0)
        nand.read(3, "host")
        nand.copy_page(3, nand.geometry.first_page_of_block(1), "gc")
        nand.erase(0, "host")
        nand.check_invariants()

    @pytest.mark.parametrize(
        ("store_data", "block", "offset"),
        [
            pytest.param(False, 1, FlashGeometry.small().pages_per_block + 1, id="past-ppb"),
            pytest.param(False, 1, -1, id="negative"),
            pytest.param(True, 0, 3, id="payload-at-offset"),
        ],
    )
    def test_corrupt_offset_is_caught(self, store_data, block, offset):
        nand = NandArray(FlashGeometry.small(), store_data=store_data)
        for page in range(4):
            nand.program(page, "host", data=page)
        nand.read(3, "host")
        nand.check_invariants()
        nand._write_offsets[block] = offset
        with pytest.raises(AssertionError):
            nand.check_invariants()
