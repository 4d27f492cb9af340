"""``Engine.poll`` semantics, and the delay check every scheduling call shares.

The order-of-events equivalence with the generator loop it replaced is
``test_poll_oracle.py``; this file holds the edges: a delay that would put
an entry behind the clock is refused where it is passed, a poll needs a
positive interval, and a poll whose waiter was interrupted lapses the way
an orphaned ``Timeout`` does.
"""

import pytest

from repro.sim import Poll
from repro.sim.engine import Engine, Interrupt, SimulationError, Timeout


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


def test_poll_wakes_its_waiter_inside_the_tick_that_finds_it_clear():
    engine = Engine()
    gate = [True]
    checks = []
    woke = []

    def blocked():
        checks.append(engine.now)
        return gate[0]

    def waiter():
        yield Timeout(engine, 30.0)
        if blocked():
            yield engine.poll(blocked, 100.0)
        woke.append((engine.now, engine.processed_events))

    def opener():
        yield Timeout(engine, 250.0)
        gate[0] = False

    engine.process(waiter())
    engine.process(opener())
    engine.run()
    # First check inline at 30, then one per tick; clear at the 330 tick.
    assert checks == [30.0, 130.0, 230.0, 330.0]
    # Two bootstraps, two timeouts, the opener finishing, then the third
    # tick: the wake happens inside the eighth event, not in one after it.
    assert woke == [(330.0, 8)]
    assert engine.now == 330.0


def test_poll_is_an_event_with_no_value():
    engine = Engine()
    got = []

    poll = engine.poll(lambda: False, 10.0)

    def waiter():
        got.append((yield poll))

    engine.process(waiter())
    engine.run()
    assert isinstance(poll, Poll) and poll.processed
    assert got == [None] and engine.now == 10.0


@pytest.mark.parametrize("driver", ["run", "step"])
def test_interrupted_waiter_gets_interrupt_and_the_poll_lapses(driver):
    """A 100 us poll interrupted at t=250 drains at 300.0: its next tick
    is still on the heap, finds no waiter, and neither checks nor re-arms
    -- exactly what the loop's orphaned ``Timeout`` did."""
    engine = Engine()
    checks = []
    caught = []

    def blocked():
        checks.append(engine.now)
        return True  # would poll forever

    def waiter():
        try:
            yield engine.poll(blocked, 100.0)
        except Interrupt as exc:
            caught.append((engine.now, exc.cause))

    victim = engine.process(waiter())

    def interrupter():
        yield Timeout(engine, 250.0)
        victim.interrupt("shutdown")

    engine.process(interrupter())
    if driver == "run":
        engine.run()
    else:
        while engine.peek() != float("inf"):
            engine.step()
    assert caught == [(250.0, "shutdown")]
    assert checks == [100.0, 200.0]
    assert engine.now == 300.0


def test_poll_nobody_waits_on_lapses_at_its_first_tick():
    engine = Engine()
    checks = []
    poll = engine.poll(lambda: checks.append(engine.now) or True, 100.0)
    engine.run()
    assert checks == [] and engine.now == 100.0 and poll.processed
