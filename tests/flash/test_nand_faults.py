"""NAND under an armed FaultInjector: burns, retirement, ladders, runs."""

import dataclasses

import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.flash.errors import (
    BadBlockError,
    ProgramFaultError,
    UncorrectableReadError,
)
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray


def make_nand(plan: FaultPlan | None = None, **kwargs) -> NandArray:
    faults = FaultInjector(plan) if plan is not None else None
    return NandArray(FlashGeometry.small(), faults=faults, **kwargs)


def nand_state(nand: NandArray) -> dict:
    return {
        "write_offsets": nand.write_offsets.tolist(),
        "counters": dataclasses.asdict(nand.counters),
        "bad": sorted(nand.wear.bad_blocks),
    }


class TestDisarmed:
    def test_disarmed_injector_is_dropped(self):
        nand = make_nand(FaultPlan())  # nothing armed
        assert nand.faults is None

    def test_armed_injector_is_kept_and_bound(self):
        nand = make_nand(FaultPlan(program_fail_prob=0.5))
        assert nand.faults is not None
        assert nand.faults.tracer is nand.tracer


class TestScalarProgramFault:
    def test_fault_burns_the_page(self):
        from repro.flash.errors import ProgramOrderError

        nand = make_nand(FaultPlan(program_fail_prob=1.0))
        with pytest.raises(ProgramFaultError):
            nand.program(0, "host")
        # The attempt consumed the page: offset advanced, data bad. The
        # burned page can never be programmed again.
        assert nand.write_offset(0) == 1
        with pytest.raises(ProgramOrderError):
            nand.program(0, "host")

    def test_burned_page_is_not_readable_data(self):
        nand = make_nand(FaultPlan(program_fail_prob=1.0), store_data=True)
        with pytest.raises(ProgramFaultError):
            nand.program(0, "host", b"payload")
        # Offset advanced over the burn but the payload was never stored.
        assert nand.read(0, "host")[0] is None


class TestEraseFault:
    def test_injected_erase_failure_retires_block(self):
        nand = make_nand(FaultPlan(erase_fail_prob=1.0))
        with pytest.raises(BadBlockError):
            nand.erase(0, "host")
        assert nand.wear.is_bad(0)
        with pytest.raises(BadBlockError):
            nand.program(0, "host")

    def test_scheduled_grown_bad_block(self):
        nand = make_nand(FaultPlan(grown_bad_blocks=((2, 5),)))
        nand.erase(5, "host")  # op 1: before the schedule point, fine
        nand.program(nand.geometry.first_page_of_block(0), "host")  # op 2 reached
        with pytest.raises(BadBlockError):
            nand.erase(5, "host")
        assert nand.wear.is_bad(5)


class TestReadFaults:
    def test_retry_ladder_latency_added(self):
        plan = FaultPlan(
            read_error_prob=1.0, retry_success_prob=1.0,
            retry_ladder_us=(40.0,),
        )
        clean = make_nand()
        clean.program(0, "host")
        _, base = clean.read(0, "host")
        faulty = make_nand(plan)
        # Programs tick the injector too; keep the plan read-only.
        faulty.program(0, "host")
        _, latency = faulty.read(0, "host")
        assert latency == pytest.approx(base + 40.0)

    def test_uncorrectable_read_raises(self):
        plan = FaultPlan(read_error_prob=1.0, retry_success_prob=0.0)
        nand = make_nand(plan)
        nand.program(0, "host")
        with pytest.raises(UncorrectableReadError):
            nand.read(0, "host")

    def test_internal_copy_sense_never_injected(self):
        plan = FaultPlan(read_error_prob=1.0, retry_success_prob=0.0)
        nand = make_nand(plan)
        nand.program(0, "host")
        # A GC/copy sense of the same page must not walk the ladder: a
        # device that loses data while relocating it corrupts mappings.
        nand.sense_for_copy(0)


class TestBatchAtomicity:
    """One program contract: a run, like a copy, is never fault-injected."""

    def test_program_run_is_never_fault_injected(self):
        nand = make_nand(FaultPlan(program_fail_prob=1.0, latency_spike_prob=1.0))
        first, latency = nand.program_run(0, 4, "host")
        assert (first, nand.write_offset(0)) == (0, 4)
        assert latency == 4 * nand.timing.program_total_us(nand.geometry.page_size)
        assert nand.faults.ops == 0 and nand.faults.summary() == {}
