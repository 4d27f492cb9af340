"""Batched NandArray entry points: parity with scalar ops and error fidelity."""

import dataclasses

import numpy as np
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
    def test_matches_scalar_program_loop(self):
        ppb = FlashGeometry.small().pages_per_block
        pages = list(range(0, ppb)) + list(range(5 * ppb, 5 * ppb + 7))
        scalar, batched = make_nand(), make_nand()
        for page in pages:
            scalar.program(page)
        batched.program_batch(np.asarray(pages, dtype=np.int64))
        assert nand_state(scalar) == nand_state(batched)

    def test_aggregate_latency_equals_scalar_sum(self):
        scalar, batched = make_nand(), make_nand()
        total = sum(scalar.program(page) for page in range(10))
        assert batched.program_batch(np.arange(10, dtype=np.int64)) == total

    def test_permuted_contiguous_batch_accepted(self):
        """Within one batch, per-block pages may arrive in any order."""
        nand = make_nand()
        nand.program_batch(np.array([2, 0, 1], dtype=np.int64))
        assert nand.write_offset(0) == 3

    def test_duplicate_page_in_batch_rejected(self):
        nand = make_nand()
        with pytest.raises(ProgramOrderError):
            nand.program_batch(np.array([0, 0, 1], dtype=np.int64))

    def test_gap_within_batch_rejected(self):
        nand = make_nand()
        with pytest.raises(ProgramOrderError):
            nand.program_batch(np.array([0, 2], dtype=np.int64))

    def test_gap_after_write_offset_rejected(self):
        nand = make_nand()
        nand.program(0)
        with pytest.raises(ProgramOrderError):
            nand.program_batch(np.array([3], dtype=np.int64))

    def test_program_run_matches_program_next(self):
        scalar, batched = make_nand(), make_nand()
        for _ in range(5):
            scalar.program_next(3)
        first, _ = batched.program_run(3, 5)
        assert first == 3 * scalar.geometry.pages_per_block
        assert nand_state(scalar) == nand_state(batched)


class TestBlockScans:
    def test_erased_blocks_matches_bruteforce(self):
        nand = make_nand()
        nand.program_batch(np.arange(40, dtype=np.int64))
        nand.erase(0)
        expected = [
            b for b in range(nand.geometry.total_blocks) if nand.is_block_erased(b)
        ]
        assert nand.erased_blocks() == expected

    def test_disturbed_blocks_matches_scalar_reads(self):
        nand = make_nand()
        ppb = nand.geometry.pages_per_block
        nand.program_batch(np.arange(4 * ppb, dtype=np.int64))
        for block, reads in ((0, 50), (1, 5), (3, 1)):  # block 2 is never read
            for _ in range(reads):
                nand.read(block * ppb)
        limit = nand.read_disturb_limit
        for threshold in (0.0001, 1 / limit, 5 / limit, 50 / limit, 1.0):
            expected = [
                block
                for block in range(nand.geometry.total_blocks)
                if nand.reads_since_erase(block) >= threshold * limit
            ]
            assert nand.disturbed_blocks(threshold) == expected
