"""Direct tests for the thin zone-granularity FTL (ZnsFTL)."""

import pytest

from repro.flash.geometry import ZonedGeometry
from repro.flash.nand import NandArray
from repro.flash.wear import WearTracker
from repro.zns.device import ZNSDevice
from repro.zns.ftl import ZnsFTL


def make_ftl(spare_blocks=0, rotate=True, endurance=0):
    zoned = ZonedGeometry.small()
    wear = WearTracker(total_blocks=zoned.flash.total_blocks, endurance_cycles=endurance)
    nand = NandArray(zoned.flash, wear=wear)
    return ZnsFTL(zoned, nand, spare_blocks=spare_blocks, rotate_on_reset=rotate), nand


class TestLayout:
    def test_initial_zones_cover_all_blocks(self):
        ftl, _ = make_ftl()
        seen = set()
        for zone in range(ftl.zone_count):
            blocks = ftl.blocks_of_zone(zone)
            assert len(blocks) == ftl.geometry.blocks_per_zone
            assert not (set(blocks) & seen)
            seen |= set(blocks)

    def test_spares_reduce_zone_count(self):
        full, _ = make_ftl(spare_blocks=0)
        spared, _ = make_ftl(spare_blocks=4)
        assert spared.zone_count == full.zone_count - 2  # 2 blocks/zone

    def test_too_many_spares_rejected(self):
        zoned = ZonedGeometry.small()
        nand = NandArray(zoned.flash)
        with pytest.raises(ValueError):
            ZnsFTL(zoned, nand, spare_blocks=zoned.flash.total_blocks)

    # Translation is the device's one routine (ZNSDevice._page_of), over
    # this FTL's block lists.

    def test_page_of_linear_layout(self):
        zoned = ZonedGeometry.small()
        ppb = zoned.flash.pages_per_block
        linear = ZNSDevice(zoned, striped=False)
        blocks = linear.ftl.blocks_of_zone(3)
        assert linear._page_of(3, 0) == blocks[0] * ppb
        assert linear._page_of(3, ppb) == blocks[1] * ppb
        striped = ZNSDevice(zoned)
        assert striped._page_of(3, 0) == blocks[0] * ppb
        assert striped._page_of(3, 1) == blocks[1] * ppb
        assert striped._page_of(3, len(blocks)) == blocks[0] * ppb + 1

    def test_page_of_bounds(self):
        for striped in (True, False):
            device = ZNSDevice(ZonedGeometry.small(), striped=striped)
            with pytest.raises(IndexError):
                device._page_of(0, device.ftl.zone_capacity_pages(0))
            with pytest.raises(IndexError):
                device._page_of(device.zone_count, 0)
        with pytest.raises(IndexError):
            device.ftl.blocks_of_zone(device.ftl.zone_count)


class TestReset:
    def _fill_zone(self, ftl, nand, zone):
        for block in ftl.blocks_of_zone(zone):
            for page in nand.geometry.pages_of_block(block):
                nand.program(page, "host")

    def test_reset_erases_all_blocks(self):
        ftl, nand = make_ftl()
        self._fill_zone(ftl, nand, 0)
        latencies, capacity = ftl.reset_zone(0)
        assert len(latencies) == ftl.geometry.blocks_per_zone
        assert capacity == ftl.geometry.pages_per_zone
        for block in ftl.blocks_of_zone(0):
            assert nand.is_block_erased(block)

    def test_rotation_prefers_least_worn_blocks(self):
        ftl, nand = make_ftl(rotate=True)
        original = set(ftl.blocks_of_zone(0))
        # Wear the original blocks heavily relative to the pool.
        for block in original:
            for _ in range(5):
                nand.erase(block, "host")
        self._fill_zone(ftl, nand, 0)
        ftl.reset_zone(0)
        ftl.reset_zone(0)  # second reset draws from the rotated pool
        rebacked = set(ftl.blocks_of_zone(0))
        wear = nand.wear.erase_counts
        # The zone's backing blocks are now among the least-worn available.
        assert max(int(wear[b]) for b in rebacked) <= 7

    def test_no_rotation_keeps_blocks(self):
        ftl, nand = make_ftl(rotate=False)
        before = ftl.blocks_of_zone(0)
        self._fill_zone(ftl, nand, 0)
        ftl.reset_zone(0)
        assert ftl.blocks_of_zone(0) == before

    def test_failed_block_replaced_by_spare(self):
        ftl, nand = make_ftl(spare_blocks=2, rotate=False, endurance=1)
        self._fill_zone(ftl, nand, 0)
        ftl.reset_zone(0)  # erase 1 ok
        self._fill_zone(ftl, nand, 0)
        _, capacity = ftl.reset_zone(0)  # erase 2 retires both blocks
        assert capacity == ftl.geometry.pages_per_zone  # spares stepped in
        for block in ftl.blocks_of_zone(0):
            assert not nand.wear.is_bad(block)

    def test_capacity_shrinks_without_spares(self):
        ftl, nand = make_ftl(spare_blocks=0, rotate=False, endurance=1)
        self._fill_zone(ftl, nand, 0)
        ftl.reset_zone(0)
        self._fill_zone(ftl, nand, 0)
        _, capacity = ftl.reset_zone(0)
        assert capacity == 0  # every backing block retired


class TestDram:
    def test_dram_per_block(self):
        ftl, _ = make_ftl()
        mapped_blocks = ftl.zone_count * ftl.geometry.blocks_per_zone
        assert ftl.dram_bytes() == mapped_blocks * 4


class TestCheckInvariants:
    """Each rule of ``ZnsFTL.check_invariants``, broken once, and the
    device's check runs it."""

    @staticmethod
    def _reset_once():
        ftl, _ = make_ftl(spare_blocks=4)
        ftl.reset_zone(0)
        ftl.check_invariants()
        return ftl

    def test_a_block_in_a_zone_and_the_free_pool(self):
        ftl = self._reset_once()
        ftl._free_pool.append(ftl.live_blocks(1)[0])
        with pytest.raises(AssertionError, match="in two places"):
            ftl.check_invariants()

    def test_a_block_in_two_zones(self):
        ftl = self._reset_once()
        ftl._zone_blocks[2] = [ftl.live_blocks(1)[0], ftl.live_blocks(2)[1]]
        with pytest.raises(AssertionError, match="in two places"):
            ftl.check_invariants()

    def test_a_spare_also_in_a_zone(self):
        ftl = self._reset_once()
        ftl._spares.append(ftl.live_blocks(3)[1])
        with pytest.raises(AssertionError, match="in two places"):
            ftl.check_invariants()

    def test_a_block_id_out_of_range(self):
        ftl = self._reset_once()
        ftl._spares.append(ftl.geometry.flash.total_blocks)
        with pytest.raises(AssertionError, match="outside"):
            ftl.check_invariants()

    def test_a_zone_wider_than_blocks_per_zone(self):
        ftl = self._reset_once()
        ftl._zone_blocks[0].append(ftl._spares.pop())
        with pytest.raises(AssertionError, match="over 2"):
            ftl.check_invariants()

    def test_the_device_check_runs_it(self):
        device = ZNSDevice(ZonedGeometry.small(), spare_blocks=2)
        device.check_invariants()
        device.ftl._spares.append(device.ftl.live_blocks(0)[0])
        with pytest.raises(AssertionError, match="in two places"):
            device.check_invariants()
