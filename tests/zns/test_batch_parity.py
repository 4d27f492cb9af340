"""Property tests: the one ``write``'s two flash paths are state-identical.

Asked for no op records and with no armed injector, ``ZNSDevice.write``
programs each block of the zone's stripe as one ``program_run`` (the
"batched" device below); otherwise it programs page by page in offset
order (the "scalar" device, building op records and armed with an
injector that never fires). Hypothesis drives both devices through
identical command scripts (including commands that must fail, and simple
copies interleaved with the writes) and compares zone states, write
pointers, flash write offsets, and both counter layers.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.zns.device import ZNSDevice
from repro.zns.errors import ZnsError


def tiny_geometry() -> ZonedGeometry:
    flash = FlashGeometry(
        page_size=512,
        pages_per_block=8,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )
    return ZonedGeometry(flash=flash, blocks_per_zone=2, max_active_zones=4)


def page_path_device(**kwargs) -> ZNSDevice:
    """A device armed with a fault that never comes: writes go page by page."""
    never = FaultInjector(FaultPlan(grown_bad_blocks=((10**12, 0),)))
    return ZNSDevice(tiny_geometry(), faults=never, **kwargs)


ZONES = tiny_geometry().zone_count
ZONE_PAGES = tiny_geometry().pages_per_zone


def device_state(device: ZNSDevice) -> dict:
    return {
        "zones": [(z.state.value, z.wp, z.capacity_pages) for z in device.zones],
        "write_offsets": [
            device.nand.write_offset(b)
            for b in range(device.geometry.flash.total_blocks)
        ],
        "erase_counts": device.nand.wear.erase_counts.tolist(),
        "nand_counters": dataclasses.asdict(device.nand.counters),
        "open_order": list(device._open_order),
    }


commands = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.integers(0, ZONES - 1),
            st.integers(1, ZONE_PAGES),
        ),
        st.tuples(
            st.just("write"),
            st.integers(0, ZONES - 1),
            st.integers(1, ZONE_PAGES),
        ),
        st.tuples(
            st.just("copy"),
            st.integers(0, ZONES - 1),
            st.integers(0, ZONES - 1),
            st.integers(1, 6),
        ),
        st.tuples(st.just("reset"), st.integers(0, ZONES - 1)),
        st.tuples(st.just("finish"), st.integers(0, ZONES - 1)),
    ),
    min_size=1,
    max_size=40,
)


def apply_command(device: ZNSDevice, command: tuple, batched: bool) -> tuple:
    """Run one command; returns (outcome, payload) for cross-checking."""
    kind = command[0]
    try:
        if kind == "append":
            _, zone_id, n = command
            assigned, _ = device.append(zone_id, n, build_ops=not batched)
            return ("ok", assigned)
        if kind == "write":
            _, zone_id, n = command
            device.write(zone_id, npages=n, build_ops=not batched)
            return ("ok", n)
        if kind == "copy":
            _, src_zone, dst_zone, n = command
            # Sources are the first n written pages of the source zone;
            # short zones produce the readability failures we also want
            # to see handled identically.
            sources = [(src_zone, offset) for offset in range(n)]
            start, _ = device.simple_copy(sources, dst_zone)
            return ("ok", start)
        if kind == "reset":
            device.reset_zone(command[1])
            return ("ok", None)
        if kind == "finish":
            device.finish_zone(command[1])
            return ("ok", None)
        raise AssertionError(f"unknown command {command}")
    except (ZnsError, ValueError, IndexError) as exc:
        return ("error", type(exc).__name__)


class TestZnsBatchParity:
    @settings(max_examples=40, deadline=None)
    @given(script=commands)
    def test_batched_equals_scalar(self, script):
        scalar = page_path_device(striped=True)
        batched = ZNSDevice(tiny_geometry(), striped=True)
        for command in script:
            scalar_outcome = apply_command(scalar, command, batched=False)
            batched_outcome = apply_command(batched, command, batched=True)
            assert scalar_outcome == batched_outcome, command
        assert device_state(scalar) == device_state(batched)
        scalar.check_invariants()
        batched.check_invariants()

    @settings(max_examples=15, deadline=None)
    @given(script=commands)
    def test_parity_holds_unstriped(self, script):
        scalar = page_path_device(striped=False)
        batched = ZNSDevice(tiny_geometry(), striped=False)
        for command in script:
            assert apply_command(scalar, command, batched=False) == apply_command(
                batched, command, batched=True
            )
        assert device_state(scalar) == device_state(batched)
        scalar.check_invariants()
        batched.check_invariants()

    def test_copy_accounting_matches_scalar(self):
        """simple_copy books sense+program at flash level, copy at command level."""
        scalar = page_path_device()
        batched = ZNSDevice(tiny_geometry())
        scalar.write(0, npages=6)
        batched.write(0, npages=6, build_ops=False)
        for device in (scalar, batched):
            device.simple_copy([(0, 0), (0, 3), (0, 5)], 1)
        assert device_state(scalar) == device_state(batched)
        assert scalar.nand.counters.count("program", "reclaim") == 3
        assert scalar.nand.counters.count("copy") == 0  # programs, not copy events
