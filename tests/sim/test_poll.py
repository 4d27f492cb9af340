"""The delay and horizon checks every scheduling call shares.

A delay that would put an entry behind the clock is refused where it is
passed, not later from ``run()``; a NaN horizon is refused before the clock
moves; and a refused ``succeed`` leaves its event pending.
"""

import pytest

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
}


@pytest.mark.parametrize("delay", [float("nan"), -3.0, -0.0001, float("-inf")])
@pytest.mark.parametrize("call", sorted(SCHEDULING_CALLS))
def test_bad_delay_rejected_at_the_call(call, delay):
    """The engine used to take the NaN (``nan < 0`` is false), sort it
    arbitrarily in the heap and end ``run()`` with the clock moved back;
    a negative ``succeed`` delay surfaced only later, from ``run()``."""
    engine = Engine()
    with pytest.raises(SimulationError, match="delay"):
        SCHEDULING_CALLS[call](engine, delay)
    # Nothing was queued, so the clock cannot be dragged anywhere.
    processed = engine.processed_events
    engine.run()
    assert engine.processed_events == processed and engine.now == 0.0


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
