"""FaultInjector: seeded determinism, schedules, ladders, and tallies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.flash.errors import UncorrectableReadError
from repro.obs.events import FaultEvent
from repro.obs.tracer import Tracer


def drive(injector: FaultInjector, n: int = 200) -> list:
    """A fixed operation stream; returns every hook decision in order."""
    decisions = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            decisions.append(injector.on_program(i % 8, i, 200.0))
        elif kind == 1:
            try:
                decisions.append(("read", injector.on_read(i % 8, i)))
            except UncorrectableReadError as exc:
                decisions.append(("lost", exc.latency_us))
        elif kind == 2:
            decisions.append(injector.on_erase(i % 8))
        else:
            decisions.append(("reset", injector.on_zone_reset(i % 8)))
    return decisions


class TestDeterminism:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_same_plan_same_decisions(self, seed):
        plan = FaultPlan(
            seed=seed,
            program_fail_prob=0.1,
            erase_fail_prob=0.1,
            read_error_prob=0.2,
            latency_spike_prob=0.05,
            reset_fail_prob=0.1,
            grown_bad_blocks=((30, 2), (90, 5)),
        )
        a, b = FaultInjector(plan), FaultInjector(plan)
        assert drive(a) == drive(b)
        assert a.summary() == b.summary()
        assert a.ops == b.ops

    def test_different_seeds_diverge(self):
        plans = [
            FaultPlan(seed=s, program_fail_prob=0.3, read_error_prob=0.3)
            for s in (1, 2)
        ]
        assert drive(FaultInjector(plans[0])) != drive(FaultInjector(plans[1]))


class TestSchedules:
    def test_grown_bad_block_fires_at_op_index(self):
        injector = FaultInjector(FaultPlan(grown_bad_blocks=((5, 3),)))
        # Before the scheduled op index the block erases fine.
        for i in range(4):
            assert not injector.on_erase(3)
        assert injector.ops == 4
        injector.on_program(0, 0, 200.0)  # op 5 reached
        assert injector.on_erase(3)  # the next erase of block 3 fails
        assert not injector.on_erase(3)  # and only that one (retire is the caller's)
        assert injector.summary()["grown-bad-block"] == 1

    def test_zone_offline_fires_once(self):
        injector = FaultInjector(FaultPlan(zone_offline_at=((2, 7), (2, 9))))
        assert injector.due_zone_offlines() == []  # not due at op 0
        injector.on_program(0, 0, 200.0)
        injector.on_program(0, 1, 200.0)
        assert injector.due_zone_offlines() == [7, 9]
        assert injector.due_zone_offlines() == []  # consumed

    def test_batch_ops_advance_schedule_clock(self):
        # A multi-page command ticks the clock once per page it programs.
        injector = FaultInjector(FaultPlan(zone_offline_at=((100, 1),)))
        for page in range(99):
            injector.on_program(0, page, 200.0)
        assert injector.due_zone_offlines() == []
        injector.on_program(0, 99, 200.0)
        assert injector.due_zone_offlines() == [1]


class TestLadder:
    def test_first_rung_success_costs_one_rung(self):
        plan = FaultPlan(
            read_error_prob=1.0, retry_success_prob=1.0,
            retry_ladder_us=(40.0, 90.0),
        )
        extra = FaultInjector(plan).on_read(0, 0)
        assert extra == 40.0

    def test_exhausted_ladder_raises_with_full_cost(self):
        plan = FaultPlan(
            read_error_prob=1.0, retry_success_prob=0.0,
            retry_ladder_us=(40.0, 90.0, 180.0),
        )
        injector = FaultInjector(plan)
        with pytest.raises(UncorrectableReadError) as excinfo:
            injector.on_read(0, 0)
        assert excinfo.value.latency_us == 40.0 + 90.0 + 180.0
        assert injector.summary() == {"read-uncorrectable": 1}

    def test_spike_penalty_added(self):
        plan = FaultPlan(latency_spike_prob=1.0, latency_spike_us=500.0)
        injector = FaultInjector(plan)
        fault, extra = injector.on_program(0, 0, 200.0)
        assert not fault
        assert extra == 500.0


class TestObservability:
    def test_fired_faults_publish_events(self):
        tracer = Tracer()
        seen = []
        tracer.attach(type("Sink", (), {"on_event": lambda self, e: seen.append(e)})())
        plan = FaultPlan(program_fail_prob=1.0)
        injector = FaultInjector(plan).bind(tracer)
        fault, _ = injector.on_program(3, 97, 200.0)
        assert fault
        (event,) = seen
        assert isinstance(event, FaultEvent)
        assert (event.fault, event.block, event.page) == ("program-fail", 3, 97)
        assert event.op_index == 1

    def test_summary_is_sorted_and_json_safe(self):
        plan = FaultPlan(program_fail_prob=1.0, erase_fail_prob=1.0)
        injector = FaultInjector(plan)
        injector.on_program(0, 0, 200.0)
        injector.on_erase(0)
        assert list(injector.summary()) == sorted(injector.summary())
        assert all(isinstance(v, int) for v in injector.summary().values())
