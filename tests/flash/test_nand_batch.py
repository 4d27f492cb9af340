"""NandArray runs and block scans: parity with scalar ops and error fidelity."""

import dataclasses

import pytest

from repro.flash.errors import ProgramOrderError
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray


def make_nand() -> NandArray:
    return NandArray(FlashGeometry.small())


def nand_state(nand: NandArray) -> dict:
    return {
        "write_offsets": [
            nand.write_offset(b) for b in range(nand.geometry.total_blocks)
        ],
        "erase_counts": nand.wear.erase_counts.tolist(),
        "counters": dataclasses.asdict(nand.counters),
        "erased": nand.erased_blocks(),
    }


class TestProgramBatch:
    """``program_run``, the one bulk program, against the scalar loop."""

    def test_matches_scalar_program_loop(self):
        ppb = FlashGeometry.small().pages_per_block
        scalar, batched = make_nand(), make_nand()
        for page in list(range(0, ppb)) + list(range(5 * ppb, 5 * ppb + 7)):
            scalar.program(page, "host")
        batched.program_run(0, ppb, "host")
        batched.program_run(5, 7, "host")
        assert nand_state(scalar) == nand_state(batched)

    def test_aggregate_latency_equals_scalar_sum(self):
        scalar, batched = make_nand(), make_nand()
        total = sum(scalar.program(page, "host") for page in range(10))
        assert batched.program_run(0, 10, "host") == (0, total)

    def test_program_run_matches_program_next(self):
        scalar, batched = make_nand(), make_nand()
        for _ in range(5):
            scalar.program_next(3, "host")
        first, _ = batched.program_run(3, 5, "host")
        assert first == 3 * scalar.geometry.pages_per_block
        assert nand_state(scalar) == nand_state(batched)

    # An arbitrary page list has no bulk entry point: it programs one page
    # at a time, refused at the first page out of order, the pages before
    # it kept (a run cannot express a duplicate or a gap).

    def test_duplicate_page_in_batch_rejected(self):
        nand = make_nand()
        with pytest.raises(ProgramOrderError, match="page 0 is offset 0"):
            for page in (0, 0, 1):
                nand.program(page, "host")
        assert nand.write_offset(0) == 1

    def test_gap_within_batch_rejected(self):
        nand = make_nand()
        with pytest.raises(ProgramOrderError, match="page 2 is offset 2"):
            for page in (0, 2):
                nand.program(page, "host")
        assert nand.write_offset(0) == 1

    def test_gap_after_write_offset_rejected(self):
        nand = make_nand()
        nand.program(0, "host")
        with pytest.raises(ProgramOrderError, match="next programmable offset is 1"):
            nand.program(3, "host")
        first, _ = nand.program_run(0, 2, "host")  # a run starts at the write offset
        assert (first, nand.write_offset(0)) == (1, 3)

    def test_run_past_the_block_end_rejected(self):
        nand = make_nand()
        nand.program(0, "host")
        ppb = nand.geometry.pages_per_block
        with pytest.raises(ProgramOrderError, match=f"has {ppb - 1} free pages"):
            nand.program_run(0, ppb, "host")
        assert nand.write_offset(0) == 1


def fill(nand: NandArray, npages: int) -> None:
    """Program pages ``0 .. npages - 1``, a block run at a time."""
    ppb = nand.geometry.pages_per_block
    for block in range(-(-npages // ppb)):
        nand.program_run(block, min(ppb, npages - block * ppb), "host")


class TestBlockScans:
    def test_erased_blocks_matches_bruteforce(self):
        nand = make_nand()
        fill(nand, 40)
        nand.erase(0, "host")
        expected = [
            b for b in range(nand.geometry.total_blocks) if nand.is_block_erased(b)
        ]
        assert nand.erased_blocks() == expected
