"""Engine scheduling fast paths: FIFO lane, event pooling, run(until=number).

The PR added a same-time FIFO lane for zero-delay events, recycling
pools for engine-internal events and ``sleep()`` timeouts, and an
inlined numeric ``run(until=...)`` that allocates no sentinel event.
These tests pin the semantics those optimizations must preserve: exact
global (time, creation-order) processing order, unchanged
``processed_events`` accounting, and safe object reuse.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, Process, SimulationError, Timeout


class TestFifoLaneOrdering:
    def test_zero_delay_fires_before_later_heap_events(self):
        engine = Engine()
        order = []
        Timeout(engine, 0.0).callbacks.append(lambda e: order.append("zero"))
        Timeout(engine, 1.0).callbacks.append(lambda e: order.append("one"))
        engine.run()
        assert order == ["zero", "one"]

    def test_same_time_heap_and_fifo_interleave_in_creation_order(self):
        """A heap event at t=5 created early beats a zero-delay created at t=5."""
        engine = Engine()
        order = []

        def spawn_zero(_event):
            order.append("a")
            Timeout(engine, 0.0).callbacks.append(lambda e: order.append("c"))

        Timeout(engine, 5.0).callbacks.append(spawn_zero)
        Timeout(engine, 5.0).callbacks.append(lambda e: order.append("b"))
        engine.run()
        # "b" was scheduled (t=5, seq=1) before "c" existed (t=5, seq=2),
        # so the heap entry must drain before the FIFO entry.
        assert order == ["a", "b", "c"]

    @settings(max_examples=40, deadline=None)
    @given(
        delays=st.lists(
            st.sampled_from([0.0, 0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=40
        )
    )
    def test_processing_order_is_time_then_creation_order(self, delays):
        """Mixed zero/positive delays process in exact (time, seq) order."""
        engine = Engine()
        fired = []
        for index, delay in enumerate(delays):
            Timeout(engine, delay, value=index).callbacks.append(
                lambda event: fired.append(event.value)
            )
        engine.run()
        expected = [
            index
            for index, _ in sorted(enumerate(delays), key=lambda pair: (pair[1], pair[0]))
        ]
        assert fired == expected

    def test_run_until_event_pending_in_fifo(self):
        """run(until=event) must see work sitting only in the FIFO lane."""
        engine = Engine()

        def proc():
            yield engine.sleep(0.0)
            return 42

        assert engine.run(until=engine.process(proc())) == 42


class TestEventPooling:
    def test_sleep_recycles_timeout_objects(self):
        engine = Engine()
        seen = []

        def proc():
            # The generator resumes *during* each timeout's processing,
            # before the engine recycles it, so the reuse shows up one
            # yield later: the third sleep gets the first's object.
            for delay in (1.0, 2.0, 3.0):
                timeout = engine.sleep(delay)
                seen.append(timeout)
                yield timeout

        engine.process(proc())
        engine.run()
        assert engine.now == 6.0
        assert seen[2] is seen[0]  # the processed timeout was reused

    def test_sleep_matches_timeout_semantics(self):
        engine = Engine()
        values = []

        def proc():
            values.append((yield engine.sleep(1.5, value="a")))
            values.append((yield Timeout(engine, 0.5, value="b")))
            values.append((yield engine.sleep(0.0, value="c")))

        engine.process(proc())
        engine.run()
        assert values == ["a", "b", "c"]
        assert engine.now == 2.0

    def test_pooled_sleep_rejects_negative_delay(self):
        engine = Engine()

        def proc():
            yield engine.sleep(0.0)

        engine.process(proc())
        engine.run()  # puts a timeout into the pool
        try:
            engine.sleep(-1.0)
            raise AssertionError("expected SimulationError")
        except SimulationError:
            pass

    def test_plain_events_are_never_recycled(self):
        engine = Engine()
        event = engine.event()
        event.succeed("kept")
        engine.run()
        assert event.value == "kept"
        assert engine.processed_events == 1
        assert event is not engine._acquire_event()


class TestRunUntilNumber:
    def test_processed_events_accounting_unchanged(self):
        """The sentinel-free numeric horizon counts only real events."""
        engine = Engine()
        for delay in (1.0, 2.0, 3.0):
            Timeout(engine, delay)
        engine.run(until=2.5)
        assert engine.processed_events == 2
        assert engine.now == 2.5
        engine.run()
        assert engine.processed_events == 3
        assert engine.now == 3.0

    def test_horizon_exactly_on_event_time_includes_it(self):
        engine = Engine()
        Timeout(engine, 2.0)
        engine.run(until=2.0)
        assert engine.processed_events == 1
        assert engine.now == 2.0

    def test_zero_horizon_drains_zero_delay_events(self):
        engine = Engine()
        fired = []
        Timeout(engine, 0.0).callbacks.append(lambda e: fired.append(True))
        engine.run(until=0.0)
        assert fired == [True]
        assert engine.processed_events == 1

    def test_counts_match_step_by_step_run(self):
        def build():
            engine = Engine()

            def proc():
                for _ in range(10):
                    yield engine.sleep(0.0)
                    yield engine.sleep(1.0)

            engine.process(proc())
            return engine

        stepped = build()
        for horizon in range(21):
            stepped.run(until=horizon / 2)
        horizon = build()
        horizon.run(until=1e9)
        full = build()
        full.run()
        assert (
            stepped.processed_events
            == horizon.processed_events
            == full.processed_events
        )

    def test_past_horizon_rejected(self):
        engine = Engine()
        Timeout(engine, 5.0)
        engine.run()
        try:
            engine.run(until=1.0)
            raise AssertionError("expected SimulationError")
        except SimulationError:
            pass


def _op(engine, log, tag, delays, fail_after=None):
    """A replayed op's shape: sleeps, logging each wake, then a return."""
    for index, delay in enumerate(delays):
        yield engine.sleep(delay)
        log.append((tag, index, engine.now))
        if index == fail_after:
            raise ValueError(tag)
    return tag


def _timeline(inline: bool, ops, fail_after=None):
    """Two callers replaying ``ops`` one by one against a zero-delay
    bystander, each op run inline or as a child process; returns what
    each caller saw, the log and the event count."""
    engine = Engine()
    log = []

    def caller(name):
        seen = []
        for number, delays in enumerate(ops):
            body = _op(engine, log, f"{name}{number}", delays, fail_after)
            try:
                if inline:
                    seen.append((yield from engine.inline(body)))
                else:
                    seen.append((yield engine.process(body)))
            except ValueError as exc:
                seen.append(("failed", str(exc), engine.now))
        return seen

    def bystander():
        for step in range(12):
            yield engine.sleep(0.0 if step % 3 else 1.0)
            log.append(("bystander", step, engine.now))

    callers = [engine.process(caller(name)) for name in "ab"]
    engine.process(bystander())
    engine.run()
    return [c.value for c in callers], log, engine.processed_events


class TestInline:
    """``yield from engine.inline(body)`` keeps ``yield engine.process(body)``'s timeline."""

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(
            st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=1, max_size=3),
            min_size=1, max_size=4,
        )
    )
    def test_same_events_in_the_same_order(self, ops):
        assert _timeline(True, ops) == _timeline(False, ops)

    def test_a_failure_reaches_the_caller_where_a_child_delivers_it(self):
        ops = [[1.0, 0.0, 2.0], [0.5, 0.5]]
        inline = _timeline(True, ops, fail_after=1)
        assert inline == _timeline(False, ops, fail_after=1)
        assert inline[0][0][0] == ("failed", "a0", 1.0)

    def test_no_process_is_built(self, monkeypatch):
        engine = Engine()
        built = []
        init = Process.__init__

        def counted(process, *args, **kwargs):
            built.append(process)
            init(process, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counted)

        def body():
            yield engine.sleep(1.0)
            return "done"

        def caller():
            return (yield from engine.inline(body()))

        assert engine.run(until=engine.process(caller())) == "done"
        assert len(built) == 1  # the caller alone
        # The caller's bootstrap and completion; the start, sleep and done of
        # the body, as a child process's bootstrap, sleep and completion.
        assert engine.processed_events == 5

    def test_closing_a_caller_suspended_in_the_body(self):
        engine = Engine()

        def body():
            yield engine.sleep(5.0)

        def caller():
            yield from engine.inline(body())

        proc = engine.process(caller())
        engine.run(until=1.0)
        proc.generator.close()  # no "generator ignored GeneratorExit"
        with pytest.raises(StopIteration):
            next(proc.generator)
