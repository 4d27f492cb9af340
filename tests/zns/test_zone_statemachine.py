"""Zone state-machine invariants under randomized command sequences.

Hypothesis drives arbitrary interleavings of the full NVMe command set
(write/append/read/open/close/finish/reset) against a device with the
management fault classes armed -- transient reset failures, finish
timeouts, a stuck-open zone. Whatever the interleaving and whatever
bounces, the device must hold :meth:`ZNSDevice.check_invariants` (write
pointers in range and matched by the flash write offsets, the
open/active budgets respected, the open-LRU bookkeeping consistent with
zone states), and every refusal must be a typed ``ZnsError``. The same sequence must also replay to the identical final
state -- management faults draw from seeded streams, never wall-clock.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.flash.errors import FlashError
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.zns.device import ZNSDevice
from repro.zns.errors import ZnsError

_ZONES = 8


def _geometry() -> ZonedGeometry:
    flash = FlashGeometry(
        page_size=512,
        pages_per_block=4,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )
    return ZonedGeometry(flash=flash, blocks_per_zone=2, max_active_zones=4,
                         max_open_zones=3)


def _plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=seed,
        reset_fail_prob=0.3,
        finish_timeout_prob=0.3,
        finish_timeout_us=1_000.0,
        stuck_open_zones=((0, 1),),
        stuck_release_after=2,
    )


def _build(seed: int) -> ZNSDevice:
    return ZNSDevice(_geometry(), faults=FaultInjector(_plan(seed)))


_COMMANDS = st.tuples(
    st.sampled_from(("write", "append", "read", "open", "close", "finish", "reset")),
    st.integers(0, _ZONES - 1),
    st.integers(1, 3),
)


def _apply(device: ZNSDevice, command: tuple) -> None:
    op, zone_id, npages = command
    try:
        if op == "write":
            device.write(zone_id, npages=npages)
        elif op == "append":
            device.append(zone_id, npages=npages)
        elif op == "read":
            device.read(zone_id, npages - 1)
        elif op == "open":
            device.open_zone(zone_id)
        elif op == "close":
            device.close_zone(zone_id)
        elif op == "finish":
            device.finish_zone(zone_id)
        elif op == "reset":
            device.reset_zone(zone_id)
    except (ZnsError, FlashError):
        # Every refusal must be typed; anything else propagates and
        # fails the test.
        pass


def _snapshot(device: ZNSDevice) -> list[tuple]:
    return [
        (z.state.value, z.wp, z.capacity_pages, z.reset_count) for z in device.zones
    ]


class TestRandomizedCommandSequences:
    @given(
        seed=st.integers(0, 2**31 - 1),
        commands=st.lists(_COMMANDS, min_size=1, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_with_mgmt_faults_armed(self, seed, commands):
        device = _build(seed)
        for command in commands:
            _apply(device, command)
            device.check_invariants()

    @given(
        seed=st.integers(0, 2**31 - 1),
        commands=st.lists(_COMMANDS, min_size=1, max_size=40),
    )
    @settings(max_examples=25, deadline=None)
    def test_same_sequence_replays_to_identical_state(self, seed, commands):
        first = _build(seed)
        second = _build(seed)
        for command in commands:
            _apply(first, command)
        for command in commands:
            _apply(second, command)
        assert _snapshot(first) == _snapshot(second)
        assert first.nand.counters == second.nand.counters
        first.check_invariants()
