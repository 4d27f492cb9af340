"""Stalled writers wait first come, first served, and no wake-up is lost.

Both timed block stacks run a scenario that keeps writers parked, and
after every processed event (``Event._process`` wrapped) the test checks:

- ``TimedFrontEnd.check_invariants()``: only the head of the parked queue
  may hold the wake, and a writer parked behind no woken one means the
  stack really is out of space -- a lost wake-up would leave it parked
  with space free;
- writes enter service in the order they were submitted, so parked
  writers leave in arrival order and no arrival overtakes one;
- in particular, a write submitted in the very instant a lone parked
  writer is woken (injected by wrapping ``_wake_stalled``, so it runs
  before the woken writer resumes) parks behind it instead of taking its
  space.
"""

import numpy as np
import pytest

from repro.flash.geometry import FlashGeometry
from repro.ftl.device import TimedConventionalSSD
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.sim.engine import Engine, Event
from repro.sim.rng import make_rng
from tests.test_fingerprints import dmzoned_open_loop


class _WriteOrder:
    """Sink: write request ids in submission order, and how many have
    entered service, checked against that order as they do."""

    def __init__(self):
        self.enqueued: list[int] = []
        self.started: list[int] = []

    def on_event(self, event) -> None:
        if event.layer == "hostio.request" and event.op == "write":
            if event.phase == "enqueue":
                self.enqueued.append(event.request_id)
            elif event.phase == "service-start":
                self.started.append(event.request_id)


class _Watch:
    """The per-event checks on one stack, plus same-instant arrivals."""

    def __init__(self, host, logical_pages: int, arrivals: int = 40):
        self.host = host
        self.order = host.tracer.attach(_WriteOrder())
        self.events = 0
        self.checked = 0
        self.max_parked = 0
        self.barged = 0
        self._arrivals = arrivals
        self._rng = make_rng(99)
        self._n = logical_pages
        self._wake = host._wake_stalled
        host._wake_stalled = self._wake_with_arrival

    def _wake_with_arrival(self) -> None:
        parked = self.host._parked
        will_wake = len(parked) == 1 and not parked[0].triggered and not self.host._stalled()
        if will_wake and self.barged < self._arrivals:
            # Submitted first, so its process starts before the woken
            # writer resumes; with that writer the only one parked, the
            # arrival is all that stands between the head and its space.
            self.barged += 1
            self.host.submit_write(int(self._rng.integers(0, self._n)))
        self._wake()

    def check(self) -> None:
        self.events += 1
        self.host.check_invariants()
        self.max_parked = max(self.max_parked, len(self.host._parked))
        started, enqueued = self.order.started, self.order.enqueued
        # The k-th write to enter service is the k-th one submitted.
        assert started[self.checked:] == enqueued[self.checked:len(started)]
        self.checked = len(started)


@pytest.fixture
def after_every_event(monkeypatch):
    """Run the registered checks after each event the engine processes."""
    checks = []
    process = Event._process

    def checked(event):
        process(event)
        for check in checks:
            check()

    monkeypatch.setattr(Event, "_process", checked)
    return checks


def test_conventional_saturation_waits_in_order(after_every_event):
    """E3's op=7% saturation in small: eight closed-loop writers on a full,
    half-churned drive, parked behind the collector for much of the run."""
    engine = Engine()
    ftl = ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.07, gc_streams=4))
    ssd = TimedConventionalSSD(engine, ftl)
    n = ssd.ftl.logical_pages
    ssd.ftl.write_pages(np.arange(n, dtype=np.int64))
    churn = make_rng(5)
    for _ in range(n // 2):
        ssd.ftl.write(int(churn.integers(0, n)))
    watch = _Watch(ssd, n)
    after_every_event.append(watch.check)
    rng = make_rng(1234)

    def writer(engine):
        for _ in range(40):
            yield ssd.submit_write(int(rng.integers(0, n)))

    engine.run(until=engine.all_of([engine.process(writer(engine)) for _ in range(8)]))

    assert ssd.ftl.stats.foreground_gc_stalls > 100
    assert watch.barged == 40 and watch.max_parked >= 8
    assert len(watch.order.started) >= 8 * 40
    assert watch.events == engine.processed_events


def test_dmzoned_open_loop_waits_in_order(after_every_event):
    """E11's always-on arm: the open-loop writer outruns host reclaim and
    hundreds of writes park at once behind the reclaim loop."""
    watches = []

    def attach(host):
        watch = _Watch(host, host.layer.logical_pages)
        watches.append(watch)
        after_every_event.append(watch.check)

    engine, host = dmzoned_open_loop(48, on_built=attach)

    (watch,) = watches
    assert host.layer.stats.write_stalls > 100
    assert watch.barged == 40 and watch.max_parked > 100
    assert len(watch.order.started) > 500
