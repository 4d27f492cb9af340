"""Tests for the ZNS device: commands, limits, translation, simple copy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.zns.device import ZNSDevice
from repro.zns.errors import (
    ActiveZoneLimitError,
    WritePointerError,
    ZoneFullError,
    ZoneStateError,
)
from repro.zns.zone import ZoneState


def make_device(**kwargs):
    return ZNSDevice(ZonedGeometry.small(), **kwargs)


class TestBasicIO:
    def test_write_advances_wp(self):
        d = make_device()
        d.write(0, npages=3)
        assert d.zone(0).wp == 3
        assert d.zone(0).state is ZoneState.IMPLICIT_OPEN

    def test_write_at_explicit_wp_offset(self):
        d = make_device()
        d.write(0, offset=0, npages=2)
        d.write(0, offset=2, npages=2)
        assert d.zone(0).wp == 4

    def test_write_at_wrong_offset_rejected(self):
        d = make_device()
        d.write(0, npages=2)
        with pytest.raises(WritePointerError):
            d.write(0, offset=5)

    def test_append_returns_assigned_offset(self):
        d = make_device()
        off1, _ = d.append(0, npages=2)
        off2, _ = d.append(0, npages=3)
        assert (off1, off2) == (0, 2)
        assert d.zone(0).wp == 5

    def test_read_below_wp(self):
        d = make_device(store_data=True)
        d.write(0, npages=1, data=b"abc")
        payload, op = d.read(0, 0)
        assert payload == b"abc"

    def test_read_at_wp_rejected(self):
        d = make_device()
        d.write(0, npages=1)
        with pytest.raises(ZoneStateError):
            d.read(0, 1)

    def test_data_list_distributes_across_pages(self):
        d = make_device(store_data=True)
        d.write(0, npages=3, data=[b"a", b"b", b"c"])
        assert d.read(0, 1)[0] == b"b"

    @pytest.mark.parametrize("payloads", [["a"], ["a", "b", "c", "d"], ()])
    @pytest.mark.parametrize("command", ["write", "append"])
    def test_payload_list_of_the_wrong_length_moves_nothing(self, command, payloads):
        """One payload per page or one for all: a list of another length is
        refused before the implicit open and before any page is programmed
        (a short one used to program a page, then die on an IndexError with
        the zone wedged: wp 0 over a block whose write offset was 1)."""
        d = make_device(store_data=True)
        with pytest.raises(ValueError, match="payloads for a write of 3 pages"):
            getattr(d, command)(0, npages=3, data=payloads)
        zone = d.zone(0)
        assert (zone.wp, zone.state) == (0, ZoneState.EMPTY)
        assert not d.nand.write_offsets.any()
        assert d.nand.counters.count("program") == 0
        d.check_invariants()
        d.write(0, npages=3, data=["a", "b", "c"])
        assert [d.read(0, i)[0] for i in range(3)] == ["a", "b", "c"]

    def test_check_invariants_checks_the_flash_underneath(self):
        d = make_device()
        d.write(0, npages=2)
        d.check_invariants()
        d.nand._write_offsets[d.ftl.blocks_of_zone(1)[0]] = -1
        with pytest.raises(AssertionError, match=r"write offset outside \[0, ppb\]"):
            d.check_invariants()

    def test_fill_zone_goes_full(self):
        d = make_device()
        d.write(0, npages=d.geometry.pages_per_zone)
        assert d.zone(0).state is ZoneState.FULL
        with pytest.raises(ZoneStateError):
            d.write(0)

    def test_overfill_rejected(self):
        d = make_device()
        with pytest.raises(ZoneFullError):
            d.write(0, npages=d.geometry.pages_per_zone + 1)

    def test_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            make_device().write(0, npages=0)

    def test_bad_zone_id_rejected(self):
        d = make_device()
        with pytest.raises(IndexError):
            d.write(d.zone_count)


class TestZoneManagement:
    def test_explicit_open_and_close(self):
        d = make_device()
        d.open_zone(3)
        assert d.zone(3).state is ZoneState.EXPLICIT_OPEN
        d.write(3, npages=1)
        d.close_zone(3)
        assert d.zone(3).state is ZoneState.CLOSED

    def test_finish_frees_active_slot(self):
        d = make_device()
        d.write(0, npages=1)
        assert d.active_count == 1
        d.finish_zone(0)
        assert d.active_count == 0
        assert d.zone(0).state is ZoneState.FULL

    def test_reset_returns_zone_to_empty(self):
        d = make_device()
        d.write(0, npages=5)
        ops = d.reset_zone(0)
        assert d.zone(0).state is ZoneState.EMPTY
        assert d.zone(0).wp == 0
        assert len(ops) == d.geometry.blocks_per_zone

    def test_reset_then_rewrite(self):
        d = make_device(store_data=True)
        d.write(0, npages=1, data=b"old")
        d.finish_zone(0)
        d.reset_zone(0)
        d.write(0, npages=1, data=b"new")
        assert d.read(0, 0)[0] == b"new"

    def test_report_zones_snapshot(self):
        d = make_device()
        d.write(2, npages=1)
        report = d.report_zones()
        assert len(report) == d.zone_count
        assert report[2].wp == 1

    def test_zones_in_state(self):
        d = make_device()
        d.write(1, npages=1)
        assert d.zones_in_state(ZoneState.IMPLICIT_OPEN) == [1]


class TestResourceLimits:
    def test_active_limit_enforced(self):
        d = make_device()
        limit = d.geometry.max_active_zones
        for z in range(limit):
            d.write(z, npages=1)
        assert d.active_count == limit
        with pytest.raises(ActiveZoneLimitError):
            d.write(limit, npages=1)

    def test_finish_releases_active_slot_for_new_zone(self):
        d = make_device()
        limit = d.geometry.max_active_zones
        for z in range(limit):
            d.write(z, npages=1)
        d.finish_zone(0)
        d.write(limit, npages=1)  # now fits

    def test_reset_releases_active_slot(self):
        d = make_device()
        limit = d.geometry.max_active_zones
        for z in range(limit):
            d.write(z, npages=1)
        d.reset_zone(0)
        d.write(limit, npages=1)

    def test_open_limit_implicitly_closes_lru(self):
        geometry = ZonedGeometry(
            flash=FlashGeometry.small(),
            blocks_per_zone=2,
            max_active_zones=8,
            max_open_zones=2,
        )
        d = ZNSDevice(geometry)
        d.write(0, npages=1)
        d.write(1, npages=1)
        d.write(2, npages=1)  # forces zone 0 (LRU) to CLOSED
        assert d.zone(0).state is ZoneState.CLOSED
        assert d.open_count == 2
        # Writing zone 0 again reopens it (closing zone 1, now LRU).
        d.write(0, npages=1)
        assert d.zone(0).state is ZoneState.IMPLICIT_OPEN
        assert d.zone(1).state is ZoneState.CLOSED

    def test_explicit_open_respects_active_limit(self):
        d = make_device()
        for z in range(d.geometry.max_active_zones):
            d.open_zone(z)
        with pytest.raises(ActiveZoneLimitError):
            d.open_zone(d.geometry.max_active_zones)

    def test_full_zones_do_not_count_active(self):
        d = make_device()
        for z in range(d.zone_count):
            d.write(z, npages=d.geometry.pages_per_zone)
        assert d.active_count == 0


class TestTranslationAndCounters:
    def test_striped_layout_spreads_blocks(self):
        d = make_device(striped=True)
        blocks = {d.block_of_offset(0, i) for i in range(d.geometry.blocks_per_zone)}
        assert len(blocks) == d.geometry.blocks_per_zone

    def test_linear_layout_fills_block_first(self):
        d = ZNSDevice(ZonedGeometry.small(), striped=False)
        ppb = d.geometry.flash.pages_per_block
        assert d.block_of_offset(0, 0) == d.block_of_offset(0, ppb - 1)
        assert d.block_of_offset(0, ppb) != d.block_of_offset(0, 0)

    def test_round_trip_striped_read(self):
        d = make_device(store_data=True)
        payloads = [f"p{i}".encode() for i in range(10)]
        d.write(0, npages=10, data=payloads)
        for i, expected in enumerate(payloads):
            assert d.read(0, i)[0] == expected

    def test_counters_track_interface_traffic(self):
        d = make_device()
        d.write(0, npages=4)
        d.read(0, 0)
        d.finish_zone(0)
        d.reset_zone(0)
        counters = d.nand.counters
        assert counters.count("program", "host") == counters.count("program") == 4
        assert counters.count("read", "host") == counters.count("read") == 1
        assert counters.count("erase", "zone-mgmt") == d.geometry.blocks_per_zone

    def test_dram_footprint_is_per_block(self):
        d = make_device()
        assert d.dram_bytes() == d.geometry.flash.total_blocks * 4


class TestSimpleCopy:
    def test_copy_moves_pages(self):
        d = make_device(store_data=True)
        d.write(0, npages=3, data=[b"a", b"b", b"c"])
        start, ops = d.simple_copy([(0, 0), (0, 2)], dst_zone_id=1)
        assert start == 0
        assert len(ops) == 2
        assert d.read(1, 0)[0] == b"a"
        assert d.read(1, 1)[0] == b"c"

    def test_copy_does_not_use_channel(self):
        d = make_device()
        d.write(0, npages=2)
        _, ops = d.simple_copy([(0, 0)], dst_zone_id=1)
        assert all(not op.uses_channel for op in ops)

    def test_copy_counts_as_copy_not_host_write(self):
        d = make_device()
        d.write(0, npages=2)
        counters = d.nand.counters
        writes_before = counters.count("program", "host")
        d.simple_copy([(0, 0), (0, 1)], dst_zone_id=1)
        assert counters.count("program", "host") == writes_before
        assert counters.count("program", "reclaim") == 2
        assert counters.count("read") == 0  # the sources are sensed on the die

    def test_copy_advances_destination_wp(self):
        d = make_device()
        d.write(0, npages=2)
        d.write(1, npages=1)
        start, _ = d.simple_copy([(0, 0)], dst_zone_id=1)
        assert start == 1
        assert d.zone(1).wp == 2

    def test_copy_from_unwritten_rejected(self):
        d = make_device()
        d.write(0, npages=1)
        with pytest.raises(ZoneStateError):
            d.simple_copy([(0, 5)], dst_zone_id=1)

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            make_device().simple_copy([], dst_zone_id=1)


class TestBadBlockHandling:
    def test_reset_shrinks_capacity_when_block_dies(self):
        from repro.flash.wear import WearTracker
        from repro.flash.nand import NandArray

        zg = ZonedGeometry.small()
        wear = WearTracker(total_blocks=zg.flash.total_blocks, endurance_cycles=1)
        nand = NandArray(zg.flash, wear=wear)
        d = ZNSDevice(zg, nand=nand, spare_blocks=0)
        d.ftl.rotate_on_reset = False  # pin blocks so wear concentrates
        pages = d.geometry.pages_per_zone
        d.write(0, npages=pages)
        d.reset_zone(0)  # erase #1: fine
        d.write(0, npages=d.zone(0).capacity_pages)
        d.reset_zone(0)  # erase #2: all blocks fail and retire
        assert d.zone(0).state is ZoneState.OFFLINE

    def test_spare_blocks_preserve_capacity(self):
        from repro.flash.wear import WearTracker
        from repro.flash.nand import NandArray

        zg = ZonedGeometry.small()
        wear = WearTracker(total_blocks=zg.flash.total_blocks, endurance_cycles=1)
        nand = NandArray(zg.flash, wear=wear)
        spares = zg.blocks_per_zone  # enough to reback one zone
        d = ZNSDevice(zg, nand=nand, spare_blocks=spares)
        d.ftl.rotate_on_reset = False
        d.write(0, npages=d.geometry.pages_per_zone)
        d.reset_zone(0)
        d.write(0, npages=d.zone(0).capacity_pages)
        d.reset_zone(0)  # originals die; spares step in
        assert d.zone(0).state is ZoneState.EMPTY
        assert d.zone(0).capacity_pages == d.geometry.pages_per_zone


# -- Property test: the device never violates its own interface rules ------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["write", "append", "finish", "reset"]),
                           st.integers(0, 7)), max_size=120),
       st.integers(0, 3))
def test_device_state_machine_consistency(actions, _seed):
    from repro.zns.errors import ZnsError

    d = ZNSDevice(ZonedGeometry.small())
    for action, zone_id in actions:
        try:
            if action == "write":
                d.write(zone_id, npages=1)
            elif action == "append":
                d.append(zone_id, npages=1)
            elif action == "finish":
                d.finish_zone(zone_id)
            elif action == "reset":
                d.reset_zone(zone_id)
        except ZnsError:
            pass  # rejected commands must leave state consistent

    # Global invariants after arbitrary command sequences:
    assert d.active_count <= d.geometry.max_active_zones
    assert d.open_count <= d.geometry.open_limit
    for zone in d.report_zones():
        assert 0 <= zone.wp <= zone.capacity_pages
        if zone.state is ZoneState.FULL and zone.capacity_pages > 0:
            assert zone.wp <= zone.capacity_pages
        # The write pointer must agree with NAND state: every page below
        # wp is programmed, everything above is not.
        if zone.state is not ZoneState.OFFLINE:
            for offset in (0, zone.wp - 1):
                if 0 <= offset < zone.wp:
                    page = d._page_of(zone.zone_id, offset)
                    assert d.nand.is_programmed(page)
