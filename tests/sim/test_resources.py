"""Unit tests for FCFS and priority resources."""

import pytest

from repro.sim.engine import Engine, SimulationError, Timeout
from repro.sim.resources import PriorityResource, Resource


def hold(eng, res, duration, log, tag, priority=0.0):
    req = yield res.request(priority)
    log.append(("start", tag, eng.now))
    yield Timeout(eng, duration)
    res.release(req)
    log.append(("end", tag, eng.now))


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Resource(Engine(), capacity=0)


def test_single_slot_serializes():
    eng = Engine()
    res = Resource(eng)
    log = []
    eng.process(hold(eng, res, 10.0, log, "a"))
    eng.process(hold(eng, res, 10.0, log, "b"))
    eng.run()
    assert log == [
        ("start", "a", 0.0),
        ("end", "a", 10.0),
        ("start", "b", 10.0),
        ("end", "b", 20.0),
    ]


def test_two_slots_run_in_parallel():
    eng = Engine()
    res = Resource(eng, capacity=2)
    log = []
    for tag in ("a", "b", "c"):
        eng.process(hold(eng, res, 10.0, log, tag))
    eng.run()
    starts = {tag: t for kind, tag, t in log if kind == "start"}
    assert starts == {"a": 0.0, "b": 0.0, "c": 10.0}


def test_fcfs_ordering():
    eng = Engine()
    res = Resource(eng)
    log = []

    def arrive(eng, delay, tag):
        yield Timeout(eng, delay)
        yield from hold(eng, res, 5.0, log, tag)

    eng.process(arrive(eng, 0.0, "first"))
    eng.process(arrive(eng, 1.0, "second"))
    eng.process(arrive(eng, 2.0, "third"))
    eng.run()
    order = [tag for kind, tag, _ in log if kind == "start"]
    assert order == ["first", "second", "third"]


def test_priority_resource_reorders_queue():
    eng = Engine()
    res = PriorityResource(eng)
    log = []

    def arrive(eng, delay, tag, prio):
        yield Timeout(eng, delay)
        yield from hold(eng, res, 5.0, log, tag, priority=prio)

    eng.process(arrive(eng, 0.0, "holder", 0.0))
    eng.process(arrive(eng, 1.0, "low-prio", 5.0))
    eng.process(arrive(eng, 2.0, "high-prio", 0.0))
    eng.run()
    order = [tag for kind, tag, _ in log if kind == "start"]
    # high-prio arrived later but overtakes low-prio in the queue.
    assert order == ["holder", "high-prio", "low-prio"]


def test_priority_is_non_preemptive():
    eng = Engine()
    res = PriorityResource(eng)
    log = []

    def arrive(eng, delay, tag, prio):
        yield Timeout(eng, delay)
        yield from hold(eng, res, 100.0, log, tag, priority=prio)

    eng.process(arrive(eng, 0.0, "long-low", 9.0))
    eng.process(arrive(eng, 1.0, "urgent", 0.0))
    eng.run()
    # The running low-priority holder finishes before urgent starts.
    assert log[0] == ("start", "long-low", 0.0)
    assert ("start", "urgent", 100.0) in log


def test_release_without_grant_rejected():
    eng = Engine()
    res = Resource(eng)
    req = res.request()
    eng.run()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)






def test_wait_accounting():
    eng = Engine()
    res = Resource(eng)
    log = []
    eng.process(hold(eng, res, 10.0, log, "a"))
    eng.process(hold(eng, res, 10.0, log, "b"))
    eng.run()
    assert res.total_grants == 2


def test_queue_length_visible():
    eng = Engine()
    res = Resource(eng)
    log = []
    for tag in range(4):
        eng.process(hold(eng, res, 10.0, log, tag))
    eng.run(until=1.0)
    assert res.queue_length == 3
    assert res.count == 1
