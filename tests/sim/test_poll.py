"""``Engine.poll`` semantics, and the delay check every scheduling call shares.

The order-of-events equivalence with the generator loop it replaced is
``test_poll_oracle.py``; this file holds the edges: a delay that would put
an entry behind the clock is refused where it is passed, a poll needs a
positive interval, its value counts its blocked ticks, a poll nobody waits
on lapses the way an orphaned ``Timeout`` does, and all polls armed at once
share one interval.
"""

import pytest

from repro.sim import Poll
from repro.sim.engine import Engine, SimulationError, Timeout


def _warm_sleep(engine: Engine, delay: float):
    """``sleep`` on its pooled branch (the pool holds one recycled timeout)."""
    engine.sleep(0.0)
    engine.run()
    return engine.sleep(delay)


SCHEDULING_CALLS = {
    "Timeout": lambda engine, delay: Timeout(engine, delay),
    "sleep": lambda engine, delay: engine.sleep(delay),
    "sleep-pooled": _warm_sleep,
    "succeed": lambda engine, delay: engine.event().succeed(delay=delay),
    "fail": lambda engine, delay: engine.event().fail(ValueError("x"), delay=delay),
    "poll": lambda engine, delay: engine.poll(lambda: True, delay),
}


@pytest.mark.parametrize("delay", [float("nan"), -3.0, -0.0001, float("-inf")])
@pytest.mark.parametrize("call", sorted(SCHEDULING_CALLS))
def test_bad_delay_rejected_at_the_call(call, delay):
    """The engine used to take the NaN (``nan < 0`` is false), sort it
    arbitrarily in the heap and end ``run()`` with the clock moved back;
    a negative ``succeed`` delay surfaced only later, from ``run()``."""
    engine = Engine()
    with pytest.raises(SimulationError, match="delay|interval"):
        SCHEDULING_CALLS[call](engine, delay)
    # Nothing was queued, so the clock cannot be dragged anywhere.
    assert engine.peek() == float("inf")


def test_nan_horizon_rejected():
    engine = Engine()
    with pytest.raises(SimulationError, match="cannot run until"):
        engine.run(until=float("nan"))
    assert engine.now == 0.0


def test_rejected_succeed_leaves_the_event_pending():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        event.succeed("late", delay=-3.0)
    assert not event.triggered
    event.succeed("on time", delay=2.0)
    assert engine.run(until=event) == "on time"
    assert engine.now == 2.0


@pytest.mark.parametrize("interval", [0, 0.0, -100.0])
def test_poll_needs_a_positive_interval(interval):
    with pytest.raises(SimulationError, match="interval"):
        Engine().poll(lambda: False, interval)


def _drive(engine: Engine, driver: str) -> None:
    """Drain ``engine`` with ``run()`` or one ``step()`` at a time."""
    if driver == "run":
        engine.run()
    else:
        while engine.peek() != float("inf"):
            engine.step()


def test_poll_wakes_its_waiter_inside_the_tick_that_finds_it_clear():
    engine = Engine()
    gate = [True]
    woke = []

    def waiter():
        yield Timeout(engine, 30.0)
        if gate[0]:
            ticks = yield engine.poll(lambda: gate[0], 100.0)
            woke.append((engine.now, engine.processed_events, ticks))

    def opener():
        yield Timeout(engine, 250.0)
        gate[0] = False

    engine.process(waiter())
    engine.process(opener())
    engine.run()
    # Two bootstraps, the waiter's timeout, the blocked ticks at 130 and
    # 230, the opener's timeout and its finishing, then the tick at 330
    # that finds the gate open: the wake happens inside the eighth event,
    # not in one after it, and the poll's value counts the two blocked ticks.
    assert woke == [(330.0, 8, 2)]
    assert engine.now == 330.0


@pytest.mark.parametrize("driver", ["run", "step"])
def test_poll_value_is_its_blocked_tick_count(driver):
    engine = Engine()
    gate = [True]
    got = []
    # Gated first: its blocked tick at 100 must not carry the clear poll's
    # tick (another predicate) into its batch.
    gated = engine.poll(lambda: gate[0], 100.0)
    clear = engine.poll(lambda: False, 100.0)

    def waiter(poll):
        ticks = yield poll
        got.append((poll is gated, engine.now, ticks))

    def opener():
        yield Timeout(engine, 250.0)
        gate[0] = False

    engine.process(waiter(clear))
    engine.process(waiter(gated))
    engine.process(opener())
    _drive(engine, driver)
    assert isinstance(gated, Poll) and clear.processed and gated.processed
    # Clear at its first tick: 0. Blocked at 100 and 200, clear at 300: 2.
    assert got == [(False, 100.0, 0), (True, 300.0, 2)]


def test_a_poll_nobody_waits_on_lapses_inside_a_batch():
    """Two polls on one predicate, the second with no waiter: the first's
    blocked tick at 100 starts a batch, which must stop at the orphan so
    that it lapses at its first tick instead of re-arming."""
    engine = Engine()
    gate = [True]

    def blocked():
        return gate[0]

    waited = engine.poll(blocked, 100.0)
    orphan = engine.poll(blocked, 100.0)
    woke = []

    def waiter():
        ticks = yield waited
        woke.append((engine.now, ticks))

    def opener():
        yield Timeout(engine, 450.0)
        gate[0] = False

    engine.process(waiter())
    engine.process(opener())
    engine.run()
    assert orphan.processed and orphan.value == 0
    assert woke == [(500.0, 4)]


def test_the_lane_refuses_a_second_interval_while_armed():
    engine = Engine()
    engine.poll(lambda: False, 100.0)
    with pytest.raises(SimulationError, match="interval"):
        engine.poll(lambda: False, 50.0)
    assert engine.peek() == 100.0


def test_the_lane_adopts_a_new_interval_once_drained():
    engine = Engine()
    engine.poll(lambda: False, 100.0)
    engine.run()
    poll = engine.poll(lambda: False, 50.0)
    engine.run()
    assert poll.processed and engine.now == 150.0


def test_poll_nobody_waits_on_lapses_at_its_first_tick():
    engine = Engine()
    checks = []
    poll = engine.poll(lambda: checks.append(engine.now) or True, 100.0)
    engine.run()
    assert checks == [] and engine.now == 100.0 and poll.processed
