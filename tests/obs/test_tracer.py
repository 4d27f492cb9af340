"""Tracer bus semantics: no-op when silent, ordered fan-out when not."""

import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.block.factory import KINDS, DeviceSpec, build_stack
from repro.experiments import e16_fleet_serving, e17_reset_pressure
from repro.experiments.e3_read_latency import (
    _conventional_core,
    _ConvRig,
    _saturation_mb_s,
    _zns_core,
    _ZnsRig,
)
from repro.fleet import FleetSpec, simulate_device
from repro.obs import events as obs_events
from repro.obs.events import FlashOpEvent, HostRequestEvent
from repro.obs.sinks import RecordingSink
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.rng import make_rng
from repro.workloads.synthetic import uniform_array
from tests.test_fingerprints import dmzoned_open_loop


class TestZeroSink:
    def test_fresh_tracer_is_disabled(self):
        assert Tracer().enabled is False

    def test_publish_with_no_sinks_is_a_no_op(self):
        tracer = Tracer()
        tracer.publish(FlashOpEvent("flash.nand", "read", 0, 0))  # must not raise

    def test_guarded_hot_path_skips_construction(self):
        # The publisher convention: nothing is built when nobody listens.
        tracer = Tracer()
        built = []

        def make_event():
            built.append(1)
            return FlashOpEvent("flash.nand", "read", 0, 0)

        if tracer.enabled:
            tracer.publish(make_event())
        assert built == []


class _GuardCountingTracer(Tracer):
    """A Tracer whose ``enabled`` reads are counted and always False.

    With the flag pinned False no publisher may construct or publish an
    event, exactly like a sink-less tracer; the count is how many
    ``if tracer.enabled`` guards the driven path executed.
    """

    __slots__ = ("guard_reads",)

    def __init__(self) -> None:
        self.guard_reads = 0
        super().__init__()

    @property
    def enabled(self) -> bool:  # type: ignore[override]
        self.guard_reads += 1
        return False

    @enabled.setter
    def enabled(self, value: bool) -> None:
        pass  # attach/detach bookkeeping is irrelevant here


def _record_event_construction(monkeypatch) -> list:
    """Stub every event class's ``__init__``; returns the list of classes built."""
    constructed = []
    for cls in vars(obs_events).values():
        if dataclasses.is_dataclass(cls) and hasattr(cls, "kind"):
            monkeypatch.setattr(
                cls, "__init__", lambda self, *a, _cls=cls, **kw: constructed.append(_cls)
            )
    return constructed


_FOUR_STREAM_SPEC = DeviceSpec(
    kind="conventional-ftl", geometry="small", ftl={"op_ratio": 0.07, "gc_streams": 4}
)


def _e3_rig_run(rig) -> Engine:
    """E3's saturation phase (8 closed-loop writers x 60) plus 50 reads."""
    _saturation_mb_s(rig, 480)
    rng = make_rng(9)
    for _ in range(50):
        rig.engine.run(until=rig.submit_read(rng))
    return rig.engine


def _latencies(device, op: str) -> tuple[int, float]:
    """Count and mean of a timed device's ``op`` latency series."""
    key = f"hostio.request.{op}.latency_us"
    return device.frame.observations(key), device.frame.mean(key)


def _conventional_timed_run() -> dict:
    rig = _ConvRig(_conventional_core(0.07))
    engine = _e3_rig_run(rig)
    ssd = rig.ssd
    return {
        "events": engine.processed_events,
        "nand": dataclasses.asdict(ssd.ftl.nand.counters),
        "reads": _latencies(ssd, "read"),
        "writes": _latencies(ssd, "write"),
    }


def _zns_timed_run() -> dict:
    rig = _ZnsRig(_zns_core())
    engine = _e3_rig_run(rig)
    timed = rig.device
    return {
        "events": engine.processed_events,
        "nand": dataclasses.asdict(timed.device.nand.counters),
        "reads": _latencies(timed, "read"),
        "writes": _latencies(timed, "write"),
        "appends": _latencies(timed, "append"),
    }


def _dmzoned_timed_run() -> dict:
    engine, host = dmzoned_open_loop(16)
    return {
        "events": engine.processed_events,
        "nand": dataclasses.asdict(host.layer.device.nand.counters),
        "reads": _latencies(host, "read"),
        "writes": _latencies(host, "write"),
    }


def _serving_spec(kind: str) -> FleetSpec:
    """One two-tenant device per serving kind, as E16/E17 build them."""
    if kind == "conventional-faulted":
        device = e16_fleet_serving.device_spec("conventional", 10.0, seed=0)
    else:
        device = e17_reset_pressure.device_spec("zns-naive", 5_000.0, 1.0, seed=0)
    return FleetSpec(
        mix=((device, 1),),
        tenants=2,
        ticks=120,
        warmup_ticks=60,
        utilization=0.9,
        lifetime_scale=0.05,
        zone_lifecycle=(kind == "zns-managed"),
    )


class TestUnobservedBusIsFree:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_a_default_built_stack_attaches_no_sink(self, kind):
        """``enabled`` is True only because somebody asked to observe: no
        layer of any stack ``build_stack`` knows attaches a sink for its
        own bookkeeping (the counters and recorders are fields)."""
        spec = DeviceSpec(kind=kind, geometry="small")
        stack = build_stack(spec, engine=Engine() if spec.timed else None)
        assert stack.tracer.sinks == ()
        assert stack.tracer.enabled is False

    @pytest.mark.parametrize(
        "run, requests",
        [
            (_conventional_timed_run, {"reads": 50, "writes": 480}),
            (_zns_timed_run, {"reads": 50, "writes": 0, "appends": 480}),
            (_dmzoned_timed_run, {"reads": 320}),
        ],
        ids=["conventional-timed", "zns-timed", "dmzoned-timed"],
    )
    def test_a_timed_run_builds_no_event_and_keeps_its_numbers(
        self, monkeypatch, run, requests
    ):
        """One pinned run per timed stack (E3's two rigs in small, E11's
        always-on arm at 16 bursts) as an experiment builds them: not one
        event of any class is constructed -- request lifecycle, flash
        service, GC, zone transition, reclaim -- and the counters and
        latency recorders read what they read with events allowed."""
        expected = run()
        for name, count in requests.items():
            assert expected[name][0] == count
        assert expected["nand"]["ops"]["program"]["host"] > 0 and expected["events"] > 5_000
        constructed = _record_event_construction(monkeypatch)
        assert run() == expected
        assert constructed == []

    @pytest.mark.parametrize("kind", ["conventional-faulted", "zns-naive", "zns-managed"])
    def test_a_fleet_device_builds_no_event_and_keeps_its_frame(self, monkeypatch, kind):
        """The serving plane books its frame as a field: warm-up and
        measured phase alike construct no event (faults firing, zone
        management charged, lifecycle manager ticking), and the frame is
        the one returned with events allowed."""
        spec = _serving_spec(kind)
        expected = simulate_device([spec], 0)[0].to_dict()
        counters = expected["counters"]
        assert counters["fleet.request.read.requests"] > 0
        assert counters["fleet.request.write.requests"] > 0
        if kind == "conventional-faulted":
            assert counters["fleet.reads_lost"] > 0
            assert counters["fleet.capacity_units_lost"] > 0
        else:
            assert counters["fleet.zone_resets"] > 0
        constructed = _record_event_construction(monkeypatch)
        assert simulate_device([spec], 0)[0].to_dict() == expected
        assert constructed == []

    def test_only_the_runtime_attaches_sinks(self):
        """``enabled`` turns True in one place: ``obs.runtime`` wiring the
        sinks an observer installed. No simulation module attaches one."""
        root = Path(repro.__file__).parent
        attaching = {
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "attach"
        }
        assert attaching == {"obs/runtime.py"}

    def test_batched_fill_pays_a_fixed_number_of_guards_and_builds_nothing(self, monkeypatch):
        """The two-phase batched fill (E1's shape) on a stack as built.

        The cost of an unobserved bus is one ``tracer.enabled`` read per
        potential event, so it is pinned as a count, not a timing: one
        per programmed chunk and copied run, two per foreground GC, three
        per collection pass. A new publish site on the batch path, or a
        per-page one where a per-run one would do, moves the number.
        """
        constructed = _record_event_construction(monkeypatch)
        tracer = _GuardCountingTracer()
        ftl = build_stack(
            DeviceSpec(
                kind="conventional-ftl",
                geometry="small",
                ftl={
                    "op_ratio": 0.07,
                    "gc_policy": "greedy",
                    "gc_low_watermark": 1,
                    "gc_high_watermark": 2,
                },
            ),
            tracer=tracer,
        )
        tracer.guard_reads = 0
        n = ftl.logical_pages
        ftl.write_pages(np.arange(n, dtype=np.int64))
        sequential_guards = tracer.guard_reads
        ftl.write_pages(uniform_array(n, n, seed=0))
        assert (n, ftl.stats.gc_runs, ftl.stats.foreground_gc_stalls) == (7656, 955, 113)
        # One program_run per 64-page block, and nothing else, while
        # there is no GC: 120 guards for 7,656 pages.
        assert sequential_guards == 120
        assert tracer.guard_reads == 5109  # 0.334 per host page over both phases
        assert constructed == []

    def test_multi_stream_gc_pays_one_guard_per_copied_run(self, monkeypatch):
        """The timed stack's shape, ``gc_streams=4``: relocation is dealt
        across four destinations and still goes down in runs, so the bus
        costs one guard per run (13,376 here), not per page (147,453)."""
        constructed = _record_event_construction(monkeypatch)
        tracer = _GuardCountingTracer()
        ftl = build_stack(_FOUR_STREAM_SPEC, tracer=tracer)
        calls = {"program_run": 0, "copy_run": 0}
        for name in calls:
            def counted(*args, _name=name, _call=getattr(ftl.nand, name)):
                calls[_name] += 1
                return _call(*args)

            monkeypatch.setattr(ftl.nand, name, counted)
        tracer.guard_reads = 0
        n = ftl.logical_pages
        ftl.write_pages(np.arange(n, dtype=np.int64))
        ftl.write_pages(uniform_array(n, n, seed=0))
        stats = ftl.stats
        copied = ftl.nand.counters.count("copy", "gc")
        assert (stats.gc_runs, stats.foreground_gc_stalls, copied) == (
            2422, 59, 147453,
        )
        assert calls == {"program_run": 241, "copy_run": 13376}
        assert tracer.guard_reads == 241 + 13376 + 2 * 59 + 3 * 2422 == 21001
        assert constructed == []

    def test_copy_events_per_run_sum_to_the_per_page_totals(self):
        """Observed, each run is one aggregate copy event; what a counting
        sink books from them is what one event per page would add up to."""
        ftl = build_stack(_FOUR_STREAM_SPEC)
        sink = ftl.tracer.attach(RecordingSink(layer="flash.nand"))
        n = ftl.logical_pages
        ftl.write_pages(np.arange(n, dtype=np.int64))
        ftl.write_pages(uniform_array(n, n, seed=0))
        copies = [e for e in sink.events if e.op == "copy"]
        page_size = ftl.geometry.page_size
        copied = ftl.nand.counters.count("copy", "gc")
        assert len(copies) == 13376 and copied == 147453
        assert sum(e.count for e in copies) == ftl.nand.counters.count("copy") == copied
        assert sum(e.nbytes for e in copies) == copied * page_size
        assert ftl.nand.counters.programmed_pages() == 2 * n + copied


class TestFanOut:
    def test_attach_enables_detach_disables(self):
        tracer = Tracer()
        sink = tracer.attach(RecordingSink())
        assert tracer.enabled is True
        tracer.detach(sink)
        assert tracer.enabled is False

    def test_detach_of_stranger_is_ignored(self):
        tracer = Tracer()
        tracer.attach(RecordingSink())
        tracer.detach(RecordingSink())  # never attached
        assert tracer.enabled is True

    def test_sinks_receive_events_in_attachment_order(self):
        tracer = Tracer()
        order = []

        class Tagged:
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, event):
                order.append(self.tag)

        tracer.attach(Tagged("a"))
        tracer.attach(Tagged("b"))
        tracer.attach(Tagged("c"))
        tracer.publish(FlashOpEvent("flash.nand", "program", 1, 2))
        assert order == ["a", "b", "c"]

    def test_every_sink_sees_every_event(self):
        tracer = Tracer()
        first = tracer.attach(RecordingSink())
        second = tracer.attach(RecordingSink())
        events = [
            FlashOpEvent("flash.nand", "read", 0, 0),
            HostRequestEvent("hostio.request", "read", "complete", request_id=1),
        ]
        for event in events:
            tracer.publish(event)
        assert first.events == events
        assert second.events == events


class TestRecordingSink:
    def test_layer_filter(self):
        tracer = Tracer()
        nand_only = tracer.attach(RecordingSink(layer="flash.nand"))
        tracer.publish(FlashOpEvent("flash.nand", "read", 0, 0))
        tracer.publish(FlashOpEvent("zns.device", "read", 0, 0))
        assert [e.layer for e in nand_only.events] == ["flash.nand"]

    def test_of_kind_and_clear(self):
        tracer = Tracer()
        sink = tracer.attach(RecordingSink())
        tracer.publish(FlashOpEvent("flash.nand", "read", 0, 0))
        tracer.publish(HostRequestEvent("hostio.request", "read", "enqueue"))
        assert len(sink.of_kind("flash-op")) == 1
        assert len(sink.of_kind("host-request")) == 1
        sink.clear()
        assert sink.events == []
