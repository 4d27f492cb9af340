"""Pinned fingerprint of the two stalled-writer call sites.

``TimedConventionalSSD`` and ``TimedZonedBlockDevice`` writes (both in
``TimedFrontEnd._request``) park a writer that finds no free block / zone,
first come first served, and the background loop wakes the first one
right after a GC or reclaim step frees space. Which writer takes a freed
block, and when, is decided by that queue and by ``(time, seq)`` among
same-time events, so a speed-only change to how a parked writer waits
must leave every number below where it is: the event count and final
clock, the stall counter (one per write that parked), every request
latency and the NAND traffic the interleaving produced.

Both digests stand in tier-1 for the golden compare of E3/E11/A3 (~12 s;
this takes well under a second). They were recorded when the 100 us
re-check poll gave way to the wake (a physics change); a deliberate
physics change re-records them and says so.
"""

import hashlib
import json

from repro.block.factory import DeviceSpec, build_stack
from repro.flash.geometry import FlashGeometry
from repro.ftl.device import TimedConventionalSSD
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.hostio.scheduler import make_scheduler
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng

PINNED = {
    "conventional": "17d557dc14c48a7734fcb6dc863c5396f06e2952f332390a4adafe956899577e",
    "dmzoned": "2238d398acfaae3504e26ad4e0726d9f9da7e9f3399411742206bac82a0a2859",
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
    ftl = ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.07, gc_streams=4))
    ssd = TimedConventionalSSD(engine, ftl)
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
    assert stalls > 100  # the scenario is nothing if it stops stalling
    assert ssd.frame.observations("hostio.request.write.latency_us") == 60 * _WRITERS
    digest = _digest(engine, ssd, ssd.ftl.nand, foreground_gc_stalls=stalls)
    assert digest == PINNED["conventional"]


def dmzoned_open_loop(bursts: int, sink=None, on_built=None):
    """E11's always-on arm run for ``bursts`` read bursts; returns (engine, host).

    ``sink``, if given, is attached to the stack's tracer after the prefill,
    and then ``on_built``, if given, is called with the stack.
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
    if on_built is not None:
        on_built(host)
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
    host reclaim, so writes pile up out of zones behind the reclaim loop."""
    engine, host = dmzoned_open_loop(64)

    assert host.frame.observations("hostio.request.read.latency_us") == 64 * 20
    stalls = host.layer.stats.write_stalls
    assert stalls > 100  # the scenario is nothing if it stops stalling
    digest = _digest(engine, host, host.layer.device.nand, write_stalls=stalls)
    assert digest == PINNED["dmzoned"]
