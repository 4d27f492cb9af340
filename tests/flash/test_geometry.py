"""Tests for flash and zoned geometry arithmetic."""

import pytest

from repro.flash.cells import CellType
from repro.flash.geometry import KIB, MIB, FlashGeometry, ZonedGeometry


class TestFlashGeometry:
    def test_derived_sizes(self):
        g = FlashGeometry(
            page_size=4 * KIB,
            pages_per_block=64,
            blocks_per_plane=16,
            planes_per_channel=2,
            channels=4,
        )
        assert g.total_planes == 8
        assert g.total_blocks == 128
        assert g.total_pages == 8192
        assert g.block_size == 256 * KIB
        assert g.capacity_bytes == 32 * MIB

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            FlashGeometry(channels=0)
        with pytest.raises(ValueError):
            FlashGeometry(page_size=0)

    def test_page_block_round_trip(self):
        g = FlashGeometry.small()
        for page in (0, 1, g.pages_per_block - 1, g.pages_per_block, g.total_pages - 1):
            block = g.block_of_page(page)
            offset = g.page_offset_in_block(page)
            assert g.first_page_of_block(block) + offset == page

    def test_pages_of_block_covers_block(self):
        g = FlashGeometry.small()
        pages = list(g.pages_of_block(3))
        assert len(pages) == g.pages_per_block
        assert all(g.block_of_page(p) == 3 for p in pages)

    def test_blocks_stripe_across_planes(self):
        g = FlashGeometry.small()
        planes = [g.plane_of_block(b) for b in range(g.total_planes * 2)]
        assert planes[: g.total_planes] == list(range(g.total_planes))
        assert planes[g.total_planes :] == list(range(g.total_planes))

    def test_channel_groups_planes(self):
        g = FlashGeometry(planes_per_channel=2, channels=4)
        for block in range(g.total_blocks):
            chan = g.channel_of_block(block)
            assert 0 <= chan < g.channels
            assert chan == g.plane_of_block(block) // g.planes_per_channel

    def test_bounds_checks(self):
        g = FlashGeometry.small()
        with pytest.raises(IndexError):
            g.check_page(g.total_pages)
        with pytest.raises(IndexError):
            g.check_page(-1)
        with pytest.raises(IndexError):
            g.check_block(g.total_blocks)

class TestZonedGeometry:
    def test_zone_counts(self):
        zg = ZonedGeometry.small()
        assert zg.zone_count * zg.blocks_per_zone == zg.flash.total_blocks
        assert zg.pages_per_zone == zg.blocks_per_zone * zg.flash.pages_per_block
        assert zg.zone_size_bytes == zg.blocks_per_zone * zg.flash.block_size

    def test_indivisible_zone_width_rejected(self):
        with pytest.raises(ValueError):
            ZonedGeometry(flash=FlashGeometry.small(), blocks_per_zone=7)

    def test_blocks_of_zone_partition(self):
        zg = ZonedGeometry.small()
        seen = set()
        for z in range(zg.zone_count):
            blocks = set(zg.blocks_of_zone(z))
            assert not (blocks & seen)
            seen |= blocks
        assert seen == set(range(zg.flash.total_blocks))

    def test_zone_bounds(self):
        zg = ZonedGeometry.small()
        with pytest.raises(IndexError):
            zg.blocks_of_zone(zg.zone_count)

    def test_open_limit_defaults_to_active(self):
        zg = ZonedGeometry(flash=FlashGeometry.small(), blocks_per_zone=2, max_active_zones=6)
        assert zg.open_limit == 6

    def test_open_limit_override(self):
        zg = ZonedGeometry(
            flash=FlashGeometry.small(),
            blocks_per_zone=2,
            max_active_zones=8,
            max_open_zones=4,
        )
        assert zg.open_limit == 4

    def test_bench_matches_paper_reference_device_shape(self):
        # Paper [10]: 14 active zones on the evaluated device.
        assert ZonedGeometry.bench().max_active_zones == 14


class TestCellTypes:
    def test_bits_ladder(self):
        bits = [c.characteristics.bits_per_cell for c in CellType]
        assert bits == [1, 2, 3, 4, 5]

    def test_endurance_decreases_with_density(self):
        endurance = [c.endurance_cycles for c in CellType]
        assert endurance == sorted(endurance, reverse=True)

    def test_latencies_increase_with_density(self):
        programs = [c.characteristics.program_us for c in CellType]
        assert programs == sorted(programs)

    def test_tlc_erase_program_ratio_near_six(self):
        # Paper §2.1: erasing takes ~6x longer than programming for TLC.
        ratio = CellType.TLC.characteristics.erase_program_ratio
        assert 5.5 <= ratio <= 7.0
