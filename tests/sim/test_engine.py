"""Unit tests for the DES engine: events, timeouts, processes."""

import pytest

from repro.sim.engine import (
    AllOf,
    Engine,
    Event,
    SimulationError,
    Timeout,
)


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    eng = Engine()
    times = []

    def proc(eng):
        yield Timeout(eng, 3.0)
        times.append(eng.now)
        yield Timeout(eng, 4.5)
        times.append(eng.now)

    eng.process(proc(eng))
    eng.run()
    assert times == [3.0, 7.5]


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        Timeout(eng, -1.0)


def test_timeout_carries_value():
    eng = Engine()
    got = []

    def proc(eng):
        value = yield Timeout(eng, 1.0, value="payload")
        got.append(value)

    eng.process(proc(eng))
    eng.run()
    assert got == ["payload"]


def test_process_return_value_via_run_until():
    eng = Engine()

    def proc(eng):
        yield Timeout(eng, 2.0)
        return 99

    p = eng.process(proc(eng))
    assert eng.run(until=p) == 99


def test_events_process_in_time_order():
    eng = Engine()
    order = []

    def proc(eng, delay, tag):
        yield Timeout(eng, delay)
        order.append(tag)

    eng.process(proc(eng, 5.0, "b"))
    eng.process(proc(eng, 1.0, "a"))
    eng.process(proc(eng, 9.0, "c"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_order():
    eng = Engine()
    order = []

    def proc(eng, tag):
        yield Timeout(eng, 1.0)
        order.append(tag)

    for tag in range(10):
        eng.process(proc(eng, tag))
    eng.run()
    assert order == list(range(10))


def test_run_until_time_stops_early():
    eng = Engine()
    fired = []

    def proc(eng):
        yield Timeout(eng, 10.0)
        fired.append(True)

    eng.process(proc(eng))
    eng.run(until=5.0)
    assert not fired
    assert eng.now == 5.0
    eng.run()
    assert fired


def test_run_until_past_time_rejected():
    eng = Engine()
    eng.run(until=5.0)
    with pytest.raises(SimulationError):
        eng.run(until=1.0)


def test_process_waits_on_process():
    eng = Engine()

    def child(eng):
        yield Timeout(eng, 3.0)
        return "child-result"

    def parent(eng):
        result = yield eng.process(child(eng))
        return (eng.now, result)

    p = eng.process(parent(eng))
    assert eng.run(until=p) == (3.0, "child-result")


def test_event_succeed_resumes_waiter():
    eng = Engine()
    gate = Event(eng)
    got = []

    def waiter(eng, gate):
        value = yield gate
        got.append((eng.now, value))

    def opener(eng, gate):
        yield Timeout(eng, 7.0)
        gate.succeed("open")

    eng.process(waiter(eng, gate))
    eng.process(opener(eng, gate))
    eng.run()
    assert got == [(7.0, "open")]


def test_event_double_trigger_rejected():
    eng = Engine()
    event = Event(eng)
    event.succeed()
    with pytest.raises(SimulationError):
        event.succeed()


def test_event_fail_throws_into_waiter():
    eng = Engine()
    gate = Event(eng)
    caught = []

    def waiter(eng, gate):
        try:
            yield gate
        except ValueError as exc:
            caught.append(str(exc))

    eng.process(waiter(eng, gate))
    gate.fail(ValueError("boom"))
    eng.run()
    assert caught == ["boom"]


def test_event_fail_requires_exception_instance():
    eng = Engine()
    with pytest.raises(TypeError):
        Event(eng).fail("not an exception")


def test_failed_process_raises_from_run_until():
    eng = Engine()

    def bad(eng):
        yield Timeout(eng, 1.0)
        raise RuntimeError("process died")

    p = eng.process(bad(eng))
    with pytest.raises(RuntimeError, match="process died"):
        eng.run(until=p)


def test_yielding_non_event_is_error():
    eng = Engine()

    def bad(eng):
        yield 42

    eng.process(bad(eng))
    with pytest.raises(SimulationError, match="must yield Event"):
        eng.run()






def test_all_of_waits_for_everything():
    eng = Engine()

    def worker(eng, delay):
        yield Timeout(eng, delay)
        return delay

    def parent(eng):
        children = [eng.process(worker(eng, d)) for d in (3.0, 1.0, 2.0)]
        results = yield AllOf(eng, children)
        return (eng.now, results)

    p = eng.process(parent(eng))
    assert eng.run(until=p) == (3.0, [3.0, 1.0, 2.0])


def test_all_of_empty_fires_immediately():
    eng = Engine()

    def parent(eng):
        results = yield AllOf(eng, [])
        return results

    p = eng.process(parent(eng))
    assert eng.run(until=p) == []




def test_run_until_event_never_triggered_is_error():
    eng = Engine()
    orphan = Event(eng)
    with pytest.raises(SimulationError, match="drained"):
        eng.run(until=orphan)


def test_processed_event_count_increments():
    eng = Engine()

    def proc(eng):
        yield Timeout(eng, 1.0)

    eng.process(proc(eng))
    eng.run()
    assert eng.processed_events > 0


def test_yield_already_processed_event_resumes_immediately():
    eng = Engine()
    done = []

    def proc(eng, ready):
        value = yield ready  # was processed before we yielded it
        done.append((eng.now, value))

    ready = Event(eng)
    ready.succeed("early")
    eng.run()  # processes `ready`
    eng.process(proc(eng, ready))
    eng.run()
    assert done == [(0.0, "early")]


def test_all_of_propagates_first_failure():
    eng = Engine()

    def good(eng):
        yield Timeout(eng, 1.0)
        return "ok"

    def bad(eng):
        yield Timeout(eng, 2.0)
        raise ValueError("child died")

    def parent(eng):
        children = [eng.process(good(eng)), eng.process(bad(eng))]
        try:
            yield AllOf(eng, children)
        except ValueError as exc:
            return f"caught {exc}"

    p = eng.process(parent(eng))
    assert eng.run(until=p) == "caught child died"


def test_factory_helpers():
    eng = Engine()
    event = eng.event()
    timeout = Timeout(eng, 1.0, value="v")
    assert isinstance(event, Event)
    got = []

    def proc(eng):
        value = yield timeout
        got.append(value)

    eng.process(proc(eng))
    eng.run()
    assert got == ["v"]
