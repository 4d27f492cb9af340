"""The devices' own fields and the event stream tell the same story.

Two implementations are compared here. The NAND books every operation
in a plain field (``counters``), and the timed devices their latency
``frame``, whether or not anyone listens; an observer that attaches a
sink gets a :class:`FlashOpEvent` or :class:`HostRequestEvent` for the
same operation. A :class:`FrameSink` folds the flash ops into the frame
keys each :class:`OpCounter` entry maps to, and the ``complete`` events
carry the exact latencies. Each test records a stream, replays it and
demands equality with the fields -- on the scalar calls, on the
run/batch paths (one aggregate event must sum to the field) and around
injected faults (a faulted op is counted by neither side) -- next to a
few hand-computed counts on small fixed workloads. The command layers
above the NAND (``zns.device``, ``block.dmzoned``) keep no counter: their
replayed streams must add up to the NAND's counts, cause by cause.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.block.dmzoned import ZonedBlockConfig, ZonedBlockDevice
from repro.block.factory import DeviceSpec, build_stack
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.flash.errors import ProgramFaultError, UncorrectableReadError
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.nand import NandArray
from repro.ftl.device import ConventionalSSD
from repro.hostio.timed import TimedZonedBlockDevice
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.obs import runtime
from repro.obs.events import CAUSES
from repro.obs.frame import FrameSink, OpCounter
from repro.obs.sinks import RecordingSink
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.rng import make_rng
from repro.zns.device import TimedZNSDevice, ZNSDevice
from repro.workloads.synthetic import hot_cold_array
from tests.ftl.test_dftl_parity import cmt_pressure_dftl, tiny_geometry
from tests.test_fingerprints import dmzoned_open_loop


def _replay(events, sink):
    for event in events:
        sink.on_event(event)
    return sink


def _replayed_counters(events, layer: str) -> OpCounter:
    """One layer's op counts as a :class:`FrameSink` hears them, per cause.
    Every op of the layer's stream carries a cause, so the causes sum to
    ``.ops``."""
    count = _replay(events, FrameSink()).frame.counter
    counters = OpCounter()
    for op, by_cause in counters.ops.items():
        for cause in CAUSES:
            by_cause[cause] = count(f"{layer}.{op}.{cause}")
        assert sum(by_cause.values()) == count(f"{layer}.{op}.ops"), (layer, op)
    return counters


def _counter(**ops: dict[str, int]) -> OpCounter:
    """An :class:`OpCounter` holding ``ops[op][cause]`` ops."""
    counters = OpCounter()
    for op, by_cause in ops.items():
        counters.ops[op].update(by_cause)
    return counters


def _assert_conserved(events, nand: OpCounter) -> tuple[OpCounter, OpCounter]:
    """The ZNS command stream adds up to the NAND's counts, per cause.

    The NAND's counts are its replayed stream; a reclaim program or
    simple copy is one NAND ``reclaim`` program, a reclaim read one NAND
    ``reclaim`` read, and a zone reset's erases the NAND's ``zone-mgmt``
    erases. Returns the replayed ``zns.device`` and ``block.dmzoned``
    counts.
    """
    zns = _replayed_counters(events, "zns.device")
    assert _replayed_counters(events, "flash.nand") == nand
    relocated = zns.count("program", "reclaim") + zns.count("copy", "reclaim")
    assert relocated == nand.count("program", "reclaim")
    assert zns.count("read", "reclaim") == nand.count("read", "reclaim")
    assert zns.count("erase", "zone-mgmt") == nand.count("erase", "zone-mgmt")
    return zns, _replayed_counters(events, "block.dmzoned")


def _replayed_latencies(events, op: str) -> list[float]:
    """The exact latencies of the stream's completed ``op`` host requests."""
    return [
        event.latency_us
        for event in events
        if event.kind == "host-request"
        and event.layer == "hostio.request"
        and event.op == op
        and event.phase == "complete"
    ]


def _assert_latencies_match(events, device, ops: dict[str, int]) -> None:
    """Each op's latency series holds the replayed stream's samples, once."""
    for op, count in ops.items():
        key = f"hostio.request.{op}.latency_us"
        assert device.frame.observations(key) == count
        assert device.frame.series[key].tolist() == _replayed_latencies(events, op)


def _small_zoned(blocks_per_zone: int = 2) -> ZonedGeometry:
    return ZonedGeometry(
        flash=FlashGeometry.small(), blocks_per_zone=blocks_per_zone, max_active_zones=14
    )


class TestCounterParity:
    def test_nand_counters_match_replayed_stream(self):
        device = ConventionalSSD(FlashGeometry.small())
        recording = device.tracer.attach(RecordingSink())
        rng = random.Random(7)
        hot = device.num_blocks // 4  # overwrite-heavy: forces GC copies
        for _ in range(6 * hot):
            device.write_block(rng.randrange(hot))
        for _ in range(100):
            device.read_block(rng.randrange(hot))
        counters = device.ftl.nand.counters
        assert _replayed_counters(recording.events, "flash.nand") == counters
        # The workload is big enough to have forced GC copies, and a
        # physical copy is also a flash program: the stream's bytes are a
        # page per programmed page.
        assert counters.count("copy") > 0
        count = _replay(recording.events, FrameSink()).frame.counter
        programmed = count("flash.nand.program.bytes") + count("flash.nand.copy.bytes")
        assert programmed == counters.programmed_pages() * device.block_size

    def test_nand_fixed_workload_exact_counts(self):
        device = ConventionalSSD(FlashGeometry.small())
        for lba in range(10):
            device.write_block(lba)
        for lba in range(4):
            device.read_block(lba)
        counters = device.ftl.nand.counters
        assert counters.count("program", "host") == counters.programmed_pages() == 10
        assert counters.count("read", "host") == counters.count("read") == 4
        assert counters.count("erase") == 0

    def test_zns_command_counters_exact(self):
        geometry = ZonedGeometry.small()
        device = ZNSDevice(geometry)
        recording = device.tracer.attach(RecordingSink())
        pages = geometry.pages_per_zone
        device.write(0, npages=pages)          # fill zone 0
        device.write(1, npages=3)
        for offset in range(5):
            device.read(0, offset)
        device.simple_copy([(0, 0), (0, 1)], dst_zone_id=2)
        device.reset_zone(0)
        nand = device.nand.counters
        commands, _ = _assert_conserved(recording.events, nand)
        assert commands.count("program", "host") == nand.count("program", "host") == pages + 3
        assert commands.count("read", "host") == 5
        assert commands.count("copy", "reclaim") == nand.count("program", "reclaim") == 2
        assert commands.count("erase", "zone-mgmt") == geometry.blocks_per_zone
        # Device-internal copy senses are not host reads at any layer.
        assert nand.count("read") == 5

    def test_zns_counters_match_replayed_stream(self):
        geometry = ZonedGeometry.small()
        device = ZNSDevice(geometry)
        recording = device.tracer.attach(RecordingSink())
        device.write(0, npages=geometry.pages_per_zone)
        device.simple_copy([(0, 0)], dst_zone_id=1)
        device.reset_zone(0)
        commands, _ = _assert_conserved(recording.events, device.nand.counters)
        assert commands == _counter(
            program={"host": geometry.pages_per_zone},
            copy={"reclaim": 1},
            erase={"zone-mgmt": geometry.blocks_per_zone},
        )

    def test_dmzoned_counters_through_prefill_collect_and_timed_reclaim(self):
        """All three layers of the host stack: an untimed prefill and
        churn that collects inline, then timed traffic whose reclaim runs
        as ``reclaim_step`` quanta in the background loop."""
        engine = Engine()
        config = ZonedBlockConfig(
            op_ratio=0.18, use_simple_copy=True, gc_low_zones=6, gc_high_zones=8
        )
        stack = TimedZonedBlockDevice(engine, ZonedBlockDevice(ZNSDevice(_small_zoned()), config))
        recording = stack.tracer.attach(RecordingSink())
        layer = stack.layer
        n = layer.logical_pages
        rng = random.Random(11)
        for lba in range(n):
            layer.write(lba)
        for _ in range(n // 2):
            layer.write(rng.randrange(n))
        inline_runs = layer.stats.gc_runs
        assert inline_runs > 0  # ``collect`` ran under the prefill
        for _ in range(400):
            engine.run(until=stack.submit_write(rng.randrange(n)))
        for _ in range(40):
            engine.run(until=stack.submit_read(rng.randrange(n)))
        assert layer.stats.gc_runs > inline_runs  # and ``reclaim_step`` after it
        events = recording.events
        nand = layer.device.nand.counters
        commands, block = _assert_conserved(events, nand)
        assert block.count("program", "host") == commands.count("program", "host")
        assert block.count("program") == n + n // 2 + 400
        assert block.count("read") == 40
        assert commands.count("copy", "reclaim") == nand.count("program", "reclaim") > 0
        _assert_latencies_match(events, stack, {"read": 40, "write": 400})


class TestRunPathParity:
    """One aggregate event per run must sum to what the field booked."""

    def test_program_run_copy_run_and_scalar_reads(self):
        geometry = FlashGeometry.small()
        nand = NandArray(geometry)
        recording = nand.tracer.attach(RecordingSink())
        ppb = geometry.pages_per_block
        nand.program_run(0, ppb, "host")
        nand.program_run(1, 5, "translation-writeback")
        nand.program_run(2, 7, "recovery")
        nand.copy_run(np.arange(0, 12, 3), 3, 0, "gc")          # strided, 4 pages
        nand.copy_page(1, 3 * ppb + 4, "wear-level")
        for read in (0, 1, 2 * ppb + 6):
            nand.read(read, "host")
        nand.read(2, "translation-fetch")
        nand.erase(1, "translation-gc")
        assert [e.count for e in recording.events] == [ppb, 5, 7, 4, 1, 1, 1, 1, 1, 1]
        counters = nand.counters
        assert counters == _replayed_counters(recording.events, "flash.nand")
        assert counters == _counter(
            read={"host": 3, "translation-fetch": 1},
            program={"host": ppb, "translation-writeback": 5, "recovery": 7},
            erase={"translation-gc": 1},
            copy={"gc": 4, "wear-level": 1},
        )
        nand.check_invariants()

    def test_zns_lane_writes_appends_and_scalar_reads(self):
        geometry = ZonedGeometry.small()
        device = ZNSDevice(geometry)
        recording = device.tracer.attach(RecordingSink())
        pages = geometry.pages_per_zone
        assert len(device.write(0, pages)) == pages
        assert device.append(1, 9, build_ops=False) == (0, [])
        assert device.append(1, 4)[0] == 9
        for zone, offset in ((0, 0), (0, 5), (1, 12)):
            device.read(zone, offset)
        commands = [e for e in recording.events if e.layer == "zns.device" and e.kind == "flash-op"]
        assert [(e.op, e.count) for e in commands] == [
            ("program", pages), ("program", 9), ("program", 4),
            ("read", 1), ("read", 1), ("read", 1),
        ]
        expected = _counter(read={"host": 3}, program={"host": pages + 13})
        assert _replayed_counters(recording.events, "zns.device") == expected
        assert device.nand.counters == _replayed_counters(recording.events, "flash.nand")
        assert device.nand.counters == expected


class TestFaultedOpsAreCountedByNeitherSide:
    def test_program_faults(self):
        geometry = FlashGeometry.small()
        nand = NandArray(
            geometry, faults=FaultInjector(FaultPlan(seed=3, program_fail_prob=0.3))
        )
        recording = nand.tracer.attach(RecordingSink())
        burned = 0
        programmed = dict.fromkeys(CAUSES, 0)
        for block, cause in enumerate(("host", "host", "recovery", "translation-writeback")):
            for _ in range(geometry.pages_per_block):
                try:
                    nand.program_next(block, cause)
                    programmed[cause] += 1
                except ProgramFaultError:
                    burned += 1
        attempts = 4 * geometry.pages_per_block
        assert 0 < burned < attempts
        # A burned page is booked under no cause: each cause holds exactly
        # the programs that landed.
        assert nand.counters.ops["program"] == programmed
        assert nand.counters.count("program") == attempts - burned
        assert nand.counters == _replayed_counters(recording.events, "flash.nand")
        assert len(recording.of_kind("fault")) == burned

    def test_uncorrectable_reads(self):
        geometry = FlashGeometry.small()
        plan = FaultPlan(seed=5, read_error_prob=0.4, retry_success_prob=0.0)
        nand = NandArray(geometry, faults=FaultInjector(plan))
        recording = nand.tracer.attach(RecordingSink())
        nand.program_run(0, geometry.pages_per_block, "host")
        lost = 0
        for page in range(geometry.pages_per_block):
            try:
                nand.read(page, "host")
            except UncorrectableReadError:
                lost += 1
        assert 0 < lost < geometry.pages_per_block
        assert nand.counters.count("read", "host") == geometry.pages_per_block - lost
        assert nand.counters.count("read") == geometry.pages_per_block - lost
        assert nand.counters == _replayed_counters(recording.events, "flash.nand")


class TestLatencyParity:
    def test_timed_conventional_latencies_match_replayed_stream(self):
        engine = Engine()
        device = build_stack(DeviceSpec(kind="conventional-timed", geometry="small"), engine=engine)
        recording = device.tracer.attach(RecordingSink())
        rng = random.Random(3)
        procs = []
        written = []
        for _ in range(200):
            lpn = rng.randrange(64)
            written.append(lpn)
            procs.append(device.submit_write(lpn))
        for _ in range(50):
            procs.append(device.submit_read(rng.choice(written)))
        for proc in procs:
            engine.run(until=proc)
        _assert_latencies_match(recording.events, device, {"read": 50, "write": 200})

    def test_timed_zns_latencies_match_replayed_stream(self):
        engine = Engine()
        geometry = _small_zoned(blocks_per_zone=4)
        device = TimedZNSDevice(engine, ZNSDevice(geometry))
        recording = device.tracer.attach(RecordingSink())
        rng = random.Random(5)
        procs = [device.submit_write(0, npages=2) for _ in range(30)]
        sizes = [rng.randrange(1, 4) for _ in range(40)]
        procs += [device.submit_append(1, npages=size) for size in sizes]
        for proc in procs:
            engine.run(until=proc)
        for _ in range(25):
            engine.run(until=device.submit_read(0, rng.randrange(60)))
        _assert_latencies_match(
            recording.events, device, {"read": 25, "write": 30, "append": 40}
        )
        commands, _ = _assert_conserved(recording.events, device.device.nand.counters)
        assert commands == _counter(read={"host": 25}, program={"host": 30 * 2 + sum(sizes)})

    @pytest.mark.parametrize("traced", [False, True])
    def test_latency_fields_do_not_depend_on_being_observed(self, traced):
        engine = Engine()
        device = build_stack(DeviceSpec(kind="conventional-timed", geometry="small"), engine=engine)
        if traced:
            device.tracer.attach(RecordingSink())
        for lpn in range(20):
            engine.run(until=device.submit_write(lpn))
        for lpn in range(10):
            engine.run(until=device.submit_read(lpn))
        frame = device.frame
        assert (
            frame.observations("hostio.request.write.latency_us"),
            frame.observations("hostio.request.read.latency_us"),
        ) == (20, 10)
        assert device.ftl.nand.counters.count("program") == 20

    @pytest.mark.parametrize("kind", ["conventional-timed", "dmzoned-timed", "zns-timed"])
    def test_request_lifecycle_phases_are_complete(self, kind):
        engine = Engine()
        device = build_stack(DeviceSpec(kind=kind, geometry="small"), engine=engine)
        recording = device.tracer.attach(RecordingSink())
        if kind == "zns-timed":
            submits = [
                lambda: device.submit_write(0),
                lambda: device.submit_append(0),
                lambda: device.submit_read(0, 1),
            ]
        else:
            submits = [lambda: device.submit_write(1), lambda: device.submit_read(1)]
        for submit in submits:
            engine.run(until=submit())
        requests = recording.of_kind("host-request")
        by_id = {}
        for event in requests:
            by_id.setdefault((event.op, event.request_id), []).append(event.phase)
        assert len(by_id) == len(submits)
        for phases in by_id.values():
            assert phases == ["enqueue", "service-start", "complete"]
        for op in {op for op, _ in by_id}:
            completes = [e for e in requests if e.op == op and e.phase == "complete"]
            assert len(completes) == device.frame.observations(f"hostio.request.{op}.latency_us")


class TestCrossLayerStream:
    def test_one_sink_sees_the_whole_zns_stack(self):
        engine = Engine()
        stack = build_stack(DeviceSpec(kind="dmzoned-timed", geometry="small"), engine=engine)
        recording = stack.tracer.attach(RecordingSink())
        rng = random.Random(11)
        lbas = stack.layer.logical_pages
        for _ in range(3 * lbas):
            proc = stack.submit_write(rng.randrange(lbas))
            engine.run(until=proc)
        proc = stack.submit_read(0)
        engine.run(until=proc)
        layers = {event.layer for event in recording.events}
        assert {
            "flash.nand",
            "flash.service",
            "zns.device",
            "block.dmzoned",
            "hostio.request",
        } <= layers


class TestConservation:
    """Device numbers derived from one sink's frame must add up, per cause."""

    def test_nand_programs_are_the_dftl_wa_decomposition(self):
        """Host, data GC and translation traffic: the NAND's ops split
        exactly into the causes a demand-paged FTL names."""
        tracer = Tracer()
        sink = tracer.attach(FrameSink())
        dftl = cmt_pressure_dftl(tracer)
        rng = make_rng(3)
        n = dftl.logical_pages
        dftl.write_pages(np.arange(n, dtype=np.int64))
        for _ in range(30):
            dftl.write_pages(rng.integers(0, n, size=int(rng.integers(1, 64))))
            for lpn in rng.integers(0, n, size=8).tolist():
                dftl.read(lpn)
        count = sink.frame.counter
        host, gc = count("flash.nand.program.host"), count("flash.nand.copy.gc")
        writeback = count("flash.nand.program.translation-writeback")
        trans_gc = count("flash.nand.copy.translation-gc")
        fetch = count("flash.nand.read.translation-fetch")
        assert min(gc, writeback, trans_gc, fetch) > 0
        assert host + gc + writeback + trans_gc == (
            count("flash.nand.program.ops") + count("flash.nand.copy.ops")
        )
        assert count("flash.nand.read.host") + fetch == count("flash.nand.read.ops")
        assert count("flash.nand.read.host") == 30 * 8
        # The translation stream says the same.
        assert writeback + trans_gc == count("translation.writeback") + count("translation.gc")
        assert fetch == count("translation.miss_fetch")

    def test_conventional_copies_split_into_gc_wear_level_and_recovery(self):
        """Static wear leveling and program faults on one drive: each copy
        cause's count is the pages its own events say moved."""
        tracer = Tracer()
        sink = tracer.attach(FrameSink())
        recording = tracer.attach(RecordingSink())
        ftl = ConventionalFTL(
            dataclasses.replace(tiny_geometry(), blocks_per_plane=16),
            FTLConfig(op_ratio=0.2, wl_policy="static"),
            tracer=tracer,
            faults=FaultInjector(FaultPlan(seed=1, program_fail_prob=0.01)),
        )
        n = ftl.logical_pages
        writes = hot_cold_array(n, 12 * n, 0.1, 0.9, seed=0).tolist()
        for lpn in writes:
            ftl.write(lpn)
        count = sink.frame.counter
        gc_events = recording.of_kind("gc")
        collected = sum(e.pages_copied for e in gc_events if e.action == "collected")
        migrated = sum(e.valid_pages for e in gc_events if e.action == "wear-level")
        retired = sum(
            e.pages_moved for e in recording.of_kind("recovery") if e.action == "block-retired"
        )
        assert min(collected, migrated, retired) > 0
        assert count("flash.nand.copy.gc") == collected
        assert count("flash.nand.copy.wear-level") == migrated
        assert count("flash.nand.copy.recovery") == retired
        assert count("flash.nand.copy.ops") == collected + migrated + retired
        assert count("flash.nand.program.ops") == count("flash.nand.program.host") == len(writes)
        assert ftl.nand.counters == _replayed_counters(recording.events, "flash.nand")
        ftl.check_invariants()

    @pytest.mark.parametrize("simple_copy", [False, True])
    def test_dmzoned_reclaim_and_resets_are_the_reclaim_events(self, simple_copy):
        geometry = _small_zoned()
        device = ZNSDevice(geometry)
        sink = device.tracer.attach(FrameSink())
        recording = device.tracer.attach(RecordingSink())
        layer = ZonedBlockDevice(
            device, ZonedBlockConfig(op_ratio=0.11, use_simple_copy=simple_copy)
        )
        n = layer.logical_pages
        rng = random.Random(2)
        for lba in range(n):
            layer.write(lba)
        for _ in range(2 * n):
            layer.write(rng.randrange(n))
        count = sink.frame.counter
        reclaims = recording.of_kind("reclaim")
        copies = sum(e.copies for e in reclaims if e.action == "step")
        resets = sum(e.action == "zone-reset" for e in reclaims)
        assert copies > 0 and resets > 0
        erased = resets * geometry.blocks_per_zone
        assert count("flash.nand.erase.zone-mgmt") == count("flash.nand.erase.ops") == erased
        assert count("zns.device.erase.zone-mgmt") == erased
        # A relocation is one NAND program either way; only the host copy
        # also reads the page back over the interface.
        assert count("flash.nand.program.reclaim") == copies
        assert count("flash.nand.read.reclaim") == (0 if simple_copy else copies)
        command = "copy" if simple_copy else "program"
        assert count(f"zns.device.{command}.reclaim") == copies
        assert count("flash.nand.program.host") == count("block.dmzoned.program.host") == 3 * n
        for name in ("flash.nand", "zns.device", "block.dmzoned"):
            _replayed_counters(recording.events, name)  # every op carries a cause

    def test_timed_dmzoned_latency_histograms_count_their_requests(self):
        """E11's always-on arm (open-loop writes, read bursts): every
        completed request is one latency, one queued and one service
        observation, whatever was still in flight when the run stopped."""
        sink = runtime.install_global_sink(FrameSink())
        try:
            dmzoned_open_loop(8)
        finally:
            runtime.remove_global_sink(sink)
        frame = sink.frame
        latencies = [key for key in frame.series if key.endswith(".latency_us")]
        assert sorted(latencies) == [
            "hostio.request.read.latency_us",
            "hostio.request.write.latency_us",
        ]
        for key in latencies:
            prefix = key.removesuffix(".latency_us")
            assert frame.observations(key) == frame.counter(f"{prefix}.requests") > 0
            for phase in ("queued_us", "service_us"):
                assert frame.observations(f"{prefix}.{phase}") == frame.observations(key)
        assert frame.counter("hostio.request.read.requests") == 8 * 20
