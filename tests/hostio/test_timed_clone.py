"""A timed arm on a copy of a warmed core is the arm on a fresh warm-up.

E3, E11 and A3 warm each core once and time every arm on a
``replay_copy`` of it (DESIGN.md §6). That is sound only if a copy, its
tracer shared with the original, runs a timed phase exactly as a core
warmed from scratch does: the same latency series, the same flash ops,
the same stalls, the same events on the bus.
"""

import pytest

from repro.experiments.e3_read_latency import _conventional_core
from repro.experiments.e11_gc_scheduling import warm_layer
from repro.flash.state import replay_copy
from repro.ftl.device import TimedConventionalSSD
from repro.hostio.scheduler import make_scheduler
from repro.hostio.timed import TimedZonedBlockDevice
from repro.obs.events import event_to_dict
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng


class _Events:
    """Sink: every event as its trace line's dict."""

    def __init__(self):
        self.lines = []

    def on_event(self, event) -> None:
        self.lines.append(event_to_dict(event))


def _saturate(ssd: TimedConventionalSSD) -> None:
    """E3's saturation phase in small: eight closed-loop writers, 60 each."""
    engine = ssd.engine
    n = ssd.ftl.logical_pages
    rng = make_rng(1234)

    def writer():
        for _ in range(60):
            yield ssd.submit_write(int(rng.integers(0, n)))

    engine.run(until=engine.all_of([engine.process(writer()) for _ in range(8)]))


def _bursts(host: TimedZonedBlockDevice) -> None:
    """E11's timed phase at 64 read bursts: open-loop writes outrun reclaim."""
    engine = host.engine
    n = host.layer.logical_pages
    rng_w, rng_r = make_rng(0), make_rng(1)
    done = [False]

    def writer():
        while not done[0]:
            yield Timeout(engine, float(rng_w.exponential(500.0)))
            host.submit_write(int(rng_w.integers(0, n)))

    def reader():
        for _ in range(64):
            for _ in range(20):
                yield host.submit_read(int(rng_r.integers(0, n)))
            yield Timeout(engine, 4000.0)
        done[0] = True

    engine.process(writer())
    engine.run(until=engine.process(reader()))


def _conventional():
    def wrap(ftl):
        return TimedConventionalSSD(Engine(), ftl)

    def outcome(ssd):
        ssd.ftl.check_invariants()
        return ssd.ftl.nand.counters, ssd.ftl.stats.foreground_gc_stalls

    return lambda: _conventional_core(0.07), wrap, _saturate, outcome


def _dmzoned():
    def wrap(layer):
        return TimedZonedBlockDevice(
            Engine(), layer, make_scheduler("always-on"), prioritize_reads=False
        )

    def outcome(host):
        host.layer.check_invariants()
        return host.layer.device.nand.counters, host.layer.stats.write_stalls

    return lambda: warm_layer(0), wrap, _bursts, outcome


@pytest.mark.parametrize("rig", [_conventional, _dmzoned], ids=["e3-op7", "e11-dmzoned"])
def test_a_copied_core_times_like_a_fresh_one(rig):
    warm, wrap, phase, outcome = rig()
    fresh = warm()
    original = warm()
    copied = replay_copy(original)
    assert copied.tracer is original.tracer
    assert copied is not original

    runs = []
    for core in (fresh, copied):
        events = core.tracer.attach(_Events())
        stack = wrap(core)
        phase(stack)
        stack.check_invariants()
        core.tracer.detach(events)
        counters, stalls = outcome(stack)
        runs.append((dict(stack.frame.series), counters, stalls, events.lines))

    (series, counters, stalls, lines), copy_run = runs
    assert stalls > 0 and lines
    assert series == copy_run[0]
    assert counters == copy_run[1]
    assert stalls == copy_run[2]
    assert lines == copy_run[3]
    # The copy's run left its original as warmed.
    assert outcome(wrap(original))[0] == outcome(wrap(warm()))[0]
