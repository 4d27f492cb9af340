"""Pinned fingerprint of the two stalled-writer call sites.

``TimedConventionalSSD`` and ``TimedZonedBlockDevice`` writes (both in
``TimedFrontEnd._request``) park a writer that finds no free block / zone
and re-check every ``POLL_INTERVAL_US`` (100 us). Which stalled writer
takes a freed block is decided by ``(time, seq)``
among same-time events, so a speed-only change to how a parked writer
polls must leave every number below where it is: the event count and
final clock (a tick is still an event, though no longer a generator
resume or a heap entry), the stall counter (the inline check plus each
blocked tick), every request latency and the NAND traffic the
interleaving produced.

Both digests were recorded on the source of commit c98fa0a -- where each
writer still ran ``while <stalled>: yield engine.sleep(100.0)`` in its
own generator -- before ``Engine.poll`` was written, and stand in tier-1
for the golden compare of E3/E11/A3 (~12 s; this takes about two). A
deliberate physics change re-records them and says so.
"""

import hashlib
import json

from repro.block.factory import DeviceSpec, build_stack
from repro.flash.geometry import FlashGeometry
from repro.ftl.device import TimedConventionalSSD
from repro.ftl.ftl import FTLConfig
from repro.hostio.scheduler import make_scheduler
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng

PINNED = {
    "conventional": "2d968e9fd3a8d8e81e0d62afb30ed98b64d4352568884a933b97668ab12d218b",
    "dmzoned": "c42e63c8fe7664efb4a9dbcc2a04874b99231952f468bf8f7d4e9ada9ea51639",
}

_WRITERS = 8


def _latencies(device, op: str) -> list:
    key = f"hostio.request.{op}.latency_us"
    return [device.frame.observations(key), device.frame.mean(key)]


def _digest(engine: Engine, device, nand, **extra) -> str:
    counters = nand.counters
    state = {
        "now": engine.now,
        "processed_events": engine.processed_events,
        "write_latency": _latencies(device, "write"),
        "read_latency": _latencies(device, "read"),
        "nand": [counters.count("program"), counters.count("copy"), counters.count("erase")],
        **extra,
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def test_conventional_saturation_fingerprint():
    """E3's op=7% saturation run in small: 8 closed-loop writers against a
    full, half-churned drive spend most of ~2.1 simulated s stalled."""
    engine = Engine()
    ssd = TimedConventionalSSD(engine, FlashGeometry.small(), FTLConfig(op_ratio=0.07))
    n = ssd.ftl.logical_pages
    for lpn in range(n):
        ssd.ftl.write(lpn)
    churn = make_rng(5)
    for _ in range(n // 2):
        ssd.ftl.write(int(churn.integers(0, n)))
    rng = make_rng(1234)

    def writer(engine):
        for _ in range(60):
            yield ssd.submit_write(int(rng.integers(0, n)))

    done = engine.all_of([engine.process(writer(engine)) for _ in range(_WRITERS)])
    engine.run(until=done)

    stalls = ssd.ftl.stats.foreground_gc_stalls
    assert stalls > 100_000  # the scenario is nothing if it stops stalling
    assert ssd.frame.observations("hostio.request.write.latency_us") == 60 * _WRITERS
    digest = _digest(engine, ssd, ssd.ftl.nand, foreground_gc_stalls=stalls)
    assert digest == PINNED["conventional"]


def dmzoned_open_loop(bursts: int, sink=None):
    """E11's always-on arm run for ``bursts`` read bursts; returns (engine, host).

    ``sink``, if given, is attached to the stack's tracer after the prefill.
    """
    engine = Engine()
    spec = DeviceSpec(
        kind="dmzoned-timed",
        geometry="small",
        blocks_per_zone=2,
        max_active_zones=14,
        zoned_block={
            "op_ratio": 0.18,
            "use_simple_copy": True,
            "gc_low_zones": 6,
            "gc_high_zones": 8,
        },
        extra={"prioritize_reads": False},
    )
    host = build_stack(spec, engine=engine, scheduler=make_scheduler("always-on"))
    n = host.layer.logical_pages
    for lpn in range(n):
        host.layer.write(lpn)
    churn = make_rng(2)
    for _ in range(n // 2):
        host.layer.write(int(churn.integers(0, n)))
    if sink is not None:
        host.tracer.attach(sink)
    rng_w = make_rng(0)
    rng_r = make_rng(1)
    done = [False]

    def writer(engine):
        while not done[0]:
            yield Timeout(engine, float(rng_w.exponential(500.0)))
            host.submit_write(int(rng_w.integers(0, n)))

    def reader(engine):
        for _ in range(bursts):
            for _ in range(20):
                yield host.submit_read(int(rng_r.integers(0, n)))
            yield Timeout(engine, 4000.0)
        done[0] = True

    engine.process(writer(engine))
    engine.run(until=engine.process(reader(engine)))
    return engine, host


def test_dmzoned_open_loop_fingerprint():
    """E11's always-on arm, 64 read bursts: the open-loop writer outruns
    host reclaim, so writes pile up out of zones and tick side by side
    with the reclaim loop's idle poll on the same 100 us period."""
    engine, host = dmzoned_open_loop(64)

    assert host.frame.observations("hostio.request.read.latency_us") == 64 * 20
    # Far more events than requests: the surplus is stalled writers ticking.
    assert engine.processed_events > 200_000
    assert _digest(engine, host, host.layer.device.nand) == PINNED["dmzoned"]
    # Booked when a stall ends, from the poll's blocked-tick count; writers
    # still parked when the reader finishes are not in them. Before
    # reclaim ties went to the lowest zone, both numbers (then 103 and
    # 25,282) matched a count of the sleeps of c98fa0a's `while <stalled>`
    # loop.
    stats = host.layer.stats
    assert (stats.write_stalls, stats.write_stall_ticks) == (100, 27_258)
