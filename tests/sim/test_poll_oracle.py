"""``Engine.poll`` against the generator loop it replaced.

One hypothesis scenario, built to tie: every time is a multiple of 25 us
and the poll interval is 100, so ticks of different waiters, the idle
poller's ticks and the refills land on the same instants and only the
sequence numbers order them. Waiters arrive, find no slot and poll; a
refiller raises the slot counter one at a time and each woken waiter
takes one back, so a refill frees exactly one waiter and *which* one is
the last-free-block race the timed devices run. An idle poller on the
same period stands in for the background collector.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, SimulationError, Timeout
from tests.oracle.scalar_poll import wait_while

INTERVAL = 100.0
LATTICE = 25.0


def wait_on_poll(engine, blocked, interval):
    """``wait_while``'s twin: first check inline, the rest inside the engine."""
    if blocked():
        yield engine.poll(blocked, interval)


def _build(wait, arrivals, refills, idle_offset):
    """The scenario on a fresh engine; returns it with its observation lists."""
    engine = Engine()
    slots = [0]
    wakes = []
    predicate_calls = [0] * len(arrivals)

    def waiter(index, at):
        yield Timeout(engine, at * LATTICE)

        def blocked():
            predicate_calls[index] += 1
            return slots[0] <= 0

        yield from wait(engine, blocked, INTERVAL)
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
    engine.process(idle_poller())
    return engine, done, wakes, predicate_calls


def _observe(engine, wakes, predicate_calls):
    return wakes, predicate_calls, engine.now, engine.processed_events


@st.composite
def scenarios(draw):
    arrivals = draw(st.lists(st.integers(0, 40), min_size=1, max_size=6))
    # At least one refill per waiter, or the run never ends.
    refills = draw(
        st.lists(st.integers(0, 80), min_size=len(arrivals), max_size=len(arrivals) + 3)
    )
    return arrivals, refills, draw(st.integers(0, 3))


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_poll_matches_generator_loop(scenario):
    observed = {}
    for name, wait in (("oracle", wait_while), ("poll", wait_on_poll)):
        engine, done, wakes, calls = _build(wait, *scenario)
        engine.run(until=done)
        assert sorted(w[0] for w in wakes) == list(range(len(calls)))
        observed[name] = _observe(engine, wakes, calls)
    assert observed["poll"] == observed["oracle"]


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_poll_is_the_same_under_every_driver(scenario):
    # step() until the queue is empty: the reference, fully drained.
    engine, _, wakes, calls = _build(wait_on_poll, *scenario)
    while True:
        try:
            engine.step()
        except SimulationError:
            break
    stepped = _observe(engine, wakes, calls)
    drained_at = engine.now

    engine, _, wakes, calls = _build(wait_on_poll, *scenario)
    engine.run(until=drained_at)  # a horizon exactly where step() ended
    assert _observe(engine, wakes, calls) == stepped

    engine, done, wakes, calls = _build(wait_on_poll, *scenario)
    engine.run(until=done)
    engine.run()  # drain what outlives the waiters: spare refills, the idle poller
    assert _observe(engine, wakes, calls) == stepped
