"""Tests for the timed host stack (TimedZonedBlockDevice) and
erase-suspension / failure-propagation mechanics of the DES layers."""

import pytest

from repro.block.dmzoned import ZonedBlockConfig, ZonedBlockDevice
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.ops import FlashOp, OpKind
from repro.flash.service import FlashServiceModel
from repro.hostio.scheduler import AlwaysOnScheduler, IdleWindowScheduler
from repro.hostio.timed import RECLAIM_QUANTUM_COPIES, TimedZonedBlockDevice
from repro.obs.sinks import RecordingSink
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng
from repro.zns.device import TimedZNSDevice, ZNSDevice


def _host(engine, config=None, **options) -> TimedZonedBlockDevice:
    """A timed dm-zoned layer over a fresh small ZNS device."""
    layer = ZonedBlockDevice(ZNSDevice(ZonedGeometry.small()), config)
    return TimedZonedBlockDevice(engine, layer, **options)


class TestTimedZonedBlockDevice:
    def test_read_write_latencies_recorded(self):
        engine = Engine()
        host = _host(engine)

        def driver(engine):
            yield host.submit_write(0)
            yield host.submit_read(0)

        p = engine.process(driver(engine))
        engine.run(until=p)
        assert host.frame.observations("hostio.request.write.latency_us") == 1
        assert host.frame.observations("hostio.request.read.latency_us") == 1
        assert host.frame.mean("hostio.request.read.latency_us") > 0

    def test_background_reclaim_sustains_overwrites(self):
        engine = Engine()
        host = _host(engine, ZonedBlockConfig(op_ratio=0.11), scheduler=AlwaysOnScheduler())
        n = host.layer.logical_pages
        for lpn in range(n):
            host.layer.write(lpn)
        rng = make_rng(0)

        def writer(engine):
            for _ in range(n):
                yield host.submit_write(int(rng.integers(0, n)))

        w = engine.process(writer(engine))
        engine.run(until=w)
        assert host.layer.stats.gc_runs > 0
        host.layer.check_invariants()

    def test_idle_window_scheduler_defers_reclaim(self):
        """With no reads ever, idle-window reclaims from t=threshold on;
        the stack still makes progress (urgent path prevents deadlock)."""
        engine = Engine()
        host = _host(
            engine,
            ZonedBlockConfig(op_ratio=0.11, gc_low_zones=3, gc_high_zones=5),
            scheduler=IdleWindowScheduler(idle_threshold_us=100.0, urgent_free_zones=1),
        )
        n = host.layer.logical_pages
        for lpn in range(n):
            host.layer.write(lpn)
        rng = make_rng(1)

        def writer(engine):
            for _ in range(n // 2):
                yield host.submit_write(int(rng.integers(0, n)))

        w = engine.process(writer(engine))
        engine.run(until=w)
        assert host.frame.observations("hostio.request.write.latency_us") == n // 2

    def test_reclaim_runs_in_bounded_quanta(self):
        """Every reclaim step copies at most one quantum, the steps add up
        to every page reclaim copied, and a backlog fills whole quanta."""
        engine = Engine()
        host = _host(engine, ZonedBlockConfig(op_ratio=0.11))
        n = host.layer.logical_pages
        for lpn in range(n):
            host.layer.write(lpn)
        recording = host.tracer.attach(RecordingSink(layer="block.dmzoned"))
        rng = make_rng(2)

        def writer(engine):
            for _ in range(n // 2):
                yield host.submit_write(int(rng.integers(0, n)))

        w = engine.process(writer(engine))
        engine.run(until=w)
        copies = [e.copies for e in recording.of_kind("reclaim") if e.action == "step"]
        assert copies and max(copies) <= RECLAIM_QUANTUM_COPIES
        assert sum(copies) == host.layer.device.nand.counters.count("program", "reclaim")
        assert copies.count(RECLAIM_QUANTUM_COPIES) > 0


class TestEraseSuspension:
    def _run_read_behind_erase(self, slices):
        engine = Engine()
        geometry = FlashGeometry.small()
        svc = FlashServiceModel(
            engine, geometry, prioritize_reads=True, erase_suspend_slices=slices
        )
        same_plane = geometry.total_planes  # same plane as block 0
        erase = engine.process(svc.execute(FlashOp(OpKind.ERASE, 0, None, 0.0)))

        def late_read(engine):
            yield Timeout(engine, 10.0)  # arrive mid-erase
            latency = yield engine.process(
                svc.execute(FlashOp(OpKind.READ, same_plane, 0, 0.0))
            )
            return latency

        reader = engine.process(late_read(engine))
        read_latency = engine.run(until=reader)
        engine.run(until=erase)
        return read_latency, erase.value, svc.timing

    def test_monolithic_erase_blocks_read_fully(self):
        read_latency, _, timing = self._run_read_behind_erase(slices=1)
        assert read_latency >= timing.erase_us - 10.0

    def test_suspension_bounds_read_wait(self):
        read_latency, _, timing = self._run_read_behind_erase(slices=8)
        # Wait is at most ~one slice plus the read itself.
        assert read_latency < timing.erase_us / 8 + timing.read_total_us(4096) + 10.0

    def test_suspension_costs_the_erase(self):
        _, erase_mono, timing = self._run_read_behind_erase(slices=1)
        _, erase_sliced, _ = self._run_read_behind_erase(slices=8)
        # The sliced erase finishes later: it yielded to the read and paid
        # the resume overhead.
        assert erase_sliced > erase_mono

    def test_unpreempted_sliced_erase_pays_nothing(self):
        engine = Engine()
        svc = FlashServiceModel(engine, FlashGeometry.small(), erase_suspend_slices=4)
        p = engine.process(svc.execute(FlashOp(OpKind.ERASE, 0, None, 0.0)))
        latency = engine.run(until=p)
        assert latency == pytest.approx(svc.timing.erase_us)

    def test_invalid_slice_count_rejected(self):
        with pytest.raises(ValueError):
            FlashServiceModel(Engine(), FlashGeometry.small(), erase_suspend_slices=0)


class TestEngineFailureSemantics:
    def test_waited_failure_delivered_to_waiter(self):
        engine = Engine()

        def failing(engine):
            yield Timeout(engine, 1.0)
            raise RuntimeError("inner")

        def parent(engine):
            try:
                yield engine.process(failing(engine))
            except RuntimeError as exc:
                return f"caught {exc}"

        p = engine.process(parent(engine))
        assert engine.run(until=p) == "caught inner"

    def test_unwaited_failure_raises_from_run(self):
        engine = Engine()

        def failing(engine):
            yield Timeout(engine, 1.0)
            raise RuntimeError("orphan failure")

        engine.process(failing(engine))
        with pytest.raises(RuntimeError, match="orphan failure"):
            engine.run()

    def test_retry_pattern_survives_repeated_failures(self):
        engine = Engine()
        attempts = []

        def flaky(engine, attempt):
            yield Timeout(engine, 1.0)
            if attempt < 2:
                raise ValueError("try again")
            return "ok"

        def retrier(engine):
            for attempt in range(5):
                attempts.append(attempt)
                try:
                    result = yield engine.process(flaky(engine, attempt))
                    return result
                except ValueError:
                    continue

        p = engine.process(retrier(engine))
        assert engine.run(until=p) == "ok"
        assert attempts == [0, 1, 2]

    def test_a_replayed_op_on_a_bad_block_fails_its_request_in_place(self):
        """A locked write whose command returns an op past the last block,
        queued behind a good one: its request fails with ``check_block``'s
        IndexError when the op would have started, at the same clock and
        event count as when every op ran as a process of its own, and the
        zone lock is free again."""
        engine = Engine()
        dev = TimedZNSDevice(engine, ZNSDevice(ZonedGeometry.small()))
        ahead = dev.submit_write(0)
        block = dev.device.geometry.flash.total_blocks
        bad = [FlashOp(OpKind.PROGRAM, block, 0, 0.0)]
        lock = dev._zone_locks[0]
        failing = dev._submit("write", 0, 1, lambda: bad, lock=lock)
        with pytest.raises(IndexError, match=f"block {block} out of range"):
            engine.run(until=failing)
        assert isinstance(failing._exception, IndexError)
        # The clock and event count at which a failing op's own process
        # delivered its error.
        assert (engine.now, engine.processed_events) == (564.8828125, 14)
        assert lock.count == 0 and lock.queue_length == 0
        assert ahead.value > 0
