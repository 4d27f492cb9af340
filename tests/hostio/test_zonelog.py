"""ZoneLog against a plain model: the free/open/sealed/dropped partition,
live counts, FIFO reuse and the greedy victim with lowest-id ties."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.hostio.zonelog import ZoneLog
from repro.zns.device import ZNSDevice

FLASH = FlashGeometry(
    page_size=512, pages_per_block=4, blocks_per_plane=4, planes_per_channel=2, channels=2
)
STREAMS = ("hot", "cold", "gc")


class ZoneLogMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.device = ZNSDevice(ZonedGeometry(flash=FLASH, blocks_per_zone=1, max_active_zones=8))
        self.log = ZoneLog(self.device)
        zones = self.device.zone_count
        self.free = list(range(zones))
        self.frontiers: dict[str, int] = {}
        self.live = [0] * zones
        self.sealed, self.dropped = set(), set()
        self.resets = self.free_resets = 0

    def _seal(self, zone: int) -> None:
        self.sealed.add(zone)
        self.frontiers = {s: z for s, z in self.frontiers.items() if z != zone}

    def _victim(self, exclude=()):
        candidates = sorted(self.sealed - set(exclude))
        return min(candidates, key=lambda z: self.live[z]) if candidates else None

    @rule(stream=st.sampled_from(STREAMS), pages=st.integers(1, 4))
    def append(self, stream, pages):
        zone = self.log.frontier(stream, pages)
        expected = self.frontiers.get(stream)
        if expected is not None and self.device.zone(expected).remaining < pages:
            self._seal(expected)
            expected = None
        assert zone == expected
        if zone is None:
            zone = self.log.take(stream)
            assert zone == (self.free.pop(0) if self.free else None)
            if zone is None:
                return
            self.frontiers[stream] = zone
        self.device.write(zone, npages=pages, build_ops=False)
        self.log.add(zone, pages)
        self.live[zone] += pages
        if self.device.zone(zone).remaining == 0:
            self._seal(zone)

    @rule(data=st.data())
    def kill(self, data):
        holders = [z for z, n in enumerate(self.live) if n]
        if holders:
            zone = data.draw(st.sampled_from(holders))
            pages = data.draw(st.integers(1, self.live[zone]))
            self.log.live_v[zone] -= pages
            self.live[zone] -= pages

    @rule(stream=st.sampled_from(STREAMS))
    def seal(self, stream):
        if stream in self.frontiers:
            zone = self.frontiers[stream]
            self.log.seal(zone)
            self._seal(zone)

    @rule(goal=st.integers(1, 12), pin=st.integers(0, 15))
    def reclaim(self, goal, pin):
        evacuated = []

        def evacuate(zone):  # the survivors go elsewhere; the log only sees them leave
            evacuated.append(zone)
            self.log.live_v[zone] = 0

        short = self.log.reclaim(goal, evacuate, exclude=(pin,))
        expected, reason = [], None
        while len(self.free) < goal:
            victim = self._victim(exclude=(pin,))
            if victim is None:
                reason = "nothing to reclaim"
                break
            if self.live[victim] >= self.device.geometry.pages_per_zone:
                reason = "all zones fully live"
                break
            expected.append(victim)
            self.free_resets += self.live[victim] == 0
            self.live[victim] = 0
            self.sealed.discard(victim)
            self.free.append(victim)
            self.resets += 1
        assert (evacuated, short) == (expected, reason)

    @rule(zone=st.integers(0, 15))
    def drop(self, zone):
        assert self.log.drop(zone) is (zone not in self.dropped)
        self.dropped.add(zone)
        self.live[zone] = 0
        self.sealed.discard(zone)
        self.free = [z for z in self.free if z != zone]
        self.frontiers = {s: z for s, z in self.frontiers.items() if z != zone}

    @invariant()
    def matches_the_model(self):
        log = self.log
        log.check_invariants()
        assert log.free == self.free and log.frontiers == self.frontiers
        assert log.live.tolist() == self.live and log.dropped == self.dropped
        assert set(log.sealed.nonzero()[0].tolist()) == self.sealed
        assert (log.resets, log.free_resets) == (self.resets, self.free_resets)
        assert log.victim() == self._victim()


ZoneLogMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestZoneLog = ZoneLogMachine.TestCase
