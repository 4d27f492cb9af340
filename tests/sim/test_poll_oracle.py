"""``Engine.poll`` against the generator loop it replaced.

One hypothesis scenario, built to tie: every time is a multiple of 25 us
and the poll interval is 100, so ticks of different waiters, the idle
poller's ticks and the refills land on the same instants and only the
sequence numbers order them. Waiters arrive, find no slot and poll; a
refiller raises the slot counter one at a time and each woken waiter
takes one back, so a refill frees exactly one waiter and *which* one is
the last-free-block race the timed devices run. An idle poller on the
same period stands in for the background collector.

Half the scenarios take the timed devices' shape, where every waiter
polls one shared predicate, so ``run`` checks it once for a whole batch
of ticks across many polls; twins (waiters arriving on the same instant)
share a batch's sequence number. Without the idle poller nothing but
ticks runs between refills, so batches also wrap the lane more than once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError, Timeout
from tests.oracle.scalar_poll import wait_while

INTERVAL = 100.0
LATTICE = 25.0


def wait_on_poll(engine, blocked, interval):
    """``wait_while``'s twin: first check inline, the rest inside the engine.

    Returns the poll's value, its blocked ticks (0 if it never polled).
    """
    if blocked():
        return (yield engine.poll(blocked, interval))
    return 0


def wait_on_loop(engine, blocked, interval):
    """``wait_while``, returning its ``blocked()`` calls that said true, less
    the inline one: the ticks a poll would count."""
    said_blocked = 0

    def counted():
        nonlocal said_blocked
        result = blocked()
        said_blocked += result
        return result

    yield from wait_while(engine, counted, interval)
    return max(said_blocked - 1, 0)


def _build(wait, arrivals, refills, idle_offset, shared):
    """The scenario on a fresh engine; returns it with its observation lists."""
    engine = Engine()
    slots = [0]
    wakes = []
    ticks = [None] * len(arrivals)
    checks = [0]

    def out_of_slots():
        checks[0] += 1
        return slots[0] <= 0

    def waiter(index, at):
        yield Timeout(engine, at * LATTICE)
        # Shared: one predicate object, as a device's bound method is
        # equal across its writers. Otherwise a closure of its own, which
        # compares unequal to every other waiter's.
        blocked = out_of_slots if shared else (lambda: out_of_slots())
        ticks[index] = yield from wait(engine, blocked, INTERVAL)
        slots[0] -= 1
        wakes.append((index, engine.now, engine.processed_events))

    def refiller():
        for at in sorted(refills):
            yield Timeout(engine, at * LATTICE - engine.now)
            slots[0] += 1

    def idle_poller():
        yield Timeout(engine, idle_offset * LATTICE)
        while len(wakes) < len(arrivals):
            yield engine.sleep(INTERVAL)

    # Built under every driver, so the event it adds is in every count.
    done = engine.all_of([engine.process(waiter(i, at)) for i, at in enumerate(arrivals)])
    engine.process(refiller())
    if idle_offset is not None:
        engine.process(idle_poller())
    return engine, done, wakes, ticks, checks


def _observe(engine, wakes, ticks):
    return wakes, ticks, engine.now, engine.processed_events


@st.composite
def scenarios(draw):
    arrivals = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    # Twins: waiters arriving on an instant another one arrives on.
    arrivals += draw(st.lists(st.sampled_from(arrivals), max_size=3))
    # At least one refill per waiter, or the run never ends.
    refills = draw(
        st.lists(st.integers(0, 80), min_size=len(arrivals), max_size=len(arrivals) + 3)
    )
    idle_offset = draw(st.none() | st.integers(0, 3))
    return arrivals, refills, idle_offset, draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_poll_matches_generator_loop(scenario):
    observed = {}
    for name, wait in (("oracle", wait_on_loop), ("poll", wait_on_poll)):
        engine, done, wakes, ticks, _ = _build(wait, *scenario)
        engine.run(until=done)
        assert sorted(w[0] for w in wakes) == list(range(len(ticks)))
        observed[name] = _observe(engine, wakes, ticks)
    assert observed["poll"] == observed["oracle"]


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_poll_is_the_same_under_every_driver(scenario):
    # step() until the queue is empty: the reference, fully drained, with
    # one predicate check per tick.
    engine, _, wakes, ticks, _ = _build(wait_on_poll, *scenario)
    while True:
        try:
            engine.step()
        except SimulationError:
            break
    stepped = _observe(engine, wakes, ticks)
    drained_at = engine.now

    engine, _, wakes, ticks, _ = _build(wait_on_poll, *scenario)
    engine.run(until=drained_at)  # a horizon exactly where step() ended
    assert _observe(engine, wakes, ticks) == stepped

    # A horizon between lattice instants cuts batches short mid-lane.
    engine, _, wakes, ticks, _ = _build(wait_on_poll, *scenario)
    engine.run(until=drained_at / 2 + LATTICE / 2)
    engine.run(until=drained_at)
    assert _observe(engine, wakes, ticks) == stepped

    engine, done, wakes, ticks, _ = _build(wait_on_poll, *scenario)
    engine.run(until=done)
    engine.run()  # drain what outlives the waiters: spare refills, the idle poller
    assert _observe(engine, wakes, ticks) == stepped


def test_run_checks_a_shared_predicate_once_per_batch():
    """Three twins on one predicate, refills at 1000, 2000 and 3000 us and
    nothing else. The generator loop asks 63 times. ``run`` asks 11: once
    inline per waiter, once for each wake, and once per batch -- the ticks
    at 100-900, B's and C's at 1000 (before A's process finishes), 1100-
    1900, C's at 2000, 2100-2900. The ticks still all count."""
    observed = {}
    for name, wait in (("oracle", wait_on_loop), ("poll", wait_on_poll)):
        engine, done, wakes, ticks, checks = _build(wait, [0, 0, 0], [40, 80, 120], None, True)
        engine.run(until=done)
        observed[name] = checks[0], _observe(engine, wakes, ticks)
    assert observed["poll"][1] == observed["oracle"][1]
    assert observed["poll"][1][1] == [9, 19, 29]
    assert (observed["oracle"][0], observed["poll"][0]) == (63, 11)
