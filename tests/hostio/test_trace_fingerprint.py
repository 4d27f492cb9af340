"""Pinned event order of one short traced run per timed stack.

Each digest is the sha256 of the JSONL lines a ``--trace`` file would
hold for the run (``json.dumps(event_to_dict(event), sort_keys=True)``
plus a newline per event), with the sink attached after the untimed
prefill. It pins where every event lands among its neighbours, which
no latency or counter digest does: the ``service-start`` phase of a
host request comes after the command's flash events for reads and for
every ZNS request, and before them for conventional and dm-zoned
writes, so a refactor of the request lifecycle can reorder the stream
without moving a single number. A deliberate trace change re-records
them and says so: flash-op events gaining ``cause`` re-recorded all
three (hashing each line with ``cause`` removed gave the previous
digests), and stalled writers waking on the collector instead of a
100 us poll re-recorded the conventional one, the only run here whose
writes park.
"""

import hashlib
import json

from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.timing import ZoneMgmtTiming
from repro.ftl.device import TimedConventionalSSD
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.obs.events import event_to_dict
from repro.sim.engine import Engine
from repro.sim.rng import make_rng
from repro.zns.device import TimedZNSDevice, ZNSDevice
from tests.hostio.test_stall_fingerprint import dmzoned_open_loop

#: (sha256, line count) per run.
PINNED = {
    "conventional": ("acc257f7e93da4c2c548319fc2e6dab474525910d8504a34712dd1c5d98908aa", 6948),
    "dmzoned": ("67cb9c957cfc4b5a5f2b73a8611bbfac8fd73d16dedc9b7e053c96ef0d8a4f9f", 2153),
    "zns": ("044183cb4516a5fd13563f1f53422097c7c5112ccc6036dd66bfea74dca9e87e", 547),
}


class DigestSink:
    """Hashes each event as its JSONL trace line."""

    def __init__(self):
        self.lines = 0
        self._sha = hashlib.sha256()

    def on_event(self, event) -> None:
        self.lines += 1
        self._sha.update(json.dumps(event_to_dict(event), sort_keys=True).encode())
        self._sha.update(b"\n")

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def test_conventional_saturation_trace():
    """Eight closed-loop writers and a reader against a full, half-churned
    drive: writes stall, the collector runs, reads queue behind it."""
    engine = Engine()
    ftl = ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.07, gc_streams=4))
    ssd = TimedConventionalSSD(engine, ftl)
    n = ssd.ftl.logical_pages
    for lpn in range(n):
        ssd.ftl.write(lpn)
    churn = make_rng(5)
    for _ in range(n // 2):
        ssd.ftl.write(int(churn.integers(0, n)))
    sink = ssd.tracer.attach(DigestSink())
    rng = make_rng(77)

    def writer(engine):
        for _ in range(40):
            yield ssd.submit_write(int(rng.integers(0, n)))

    def reader(engine):
        for _ in range(40):
            yield ssd.submit_read(int(rng.integers(0, n)))

    procs = [engine.process(writer(engine)) for _ in range(8)]
    engine.run(until=engine.all_of([*procs, engine.process(reader(engine))]))

    assert ssd.ftl.stats.foreground_gc_stalls > 0
    assert (sink.hexdigest(), sink.lines) == PINNED["conventional"]


def test_dmzoned_open_loop_trace():
    sink = DigestSink()
    engine, host = dmzoned_open_loop(8, sink=sink)
    assert host.frame.observations("hostio.request.read.latency_us") == 8 * 20
    assert (sink.hexdigest(), sink.lines) == PINNED["dmzoned"]


def test_zns_mixed_trace():
    """Locked writes and appends fill four zones; then a reset and a
    finish hold their zones while appends, a write and reads queue
    behind the management gates."""
    engine = Engine()
    mgmt_timing = ZoneMgmtTiming(reset_us=2_000.0, finish_us=500.0, finish_per_page_us=2.0)
    dev = TimedZNSDevice(engine, ZNSDevice(ZonedGeometry.small(), mgmt_timing=mgmt_timing))
    sink = dev.tracer.attach(DigestSink())

    def driver():
        yield engine.all_of(
            [dev.submit_write(zone, 2) for zone in (0, 1) for _ in range(8)]
            + [dev.submit_append(zone) for zone in (2, 3) for _ in range(16)]
        )
        yield engine.all_of(
            [dev.submit_reset(0), dev.submit_finish(1)]
            + [dev.submit_append(0) for _ in range(4)]
            + [dev.submit_write(0, 1)]
            + [dev.submit_read(1, offset) for offset in range(0, 16, 2)]
        )
        yield engine.all_of(
            [dev.submit_read(zone, offset) for zone in (2, 3) for offset in range(8)]
        )

    engine.run(until=engine.process(driver()))
    assert (sink.hexdigest(), sink.lines) == PINNED["zns"]
