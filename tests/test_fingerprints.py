"""Pinned counters of what the goldens cannot see, one rig per entry.

The goldens carry rounded rows, while the paper's write-amplification,
erase and reset claims rest on exact counts. Each rig is a small
deterministic run returning a flat ``{key: value}`` dict, which
``tests/golden/fingerprints.json`` records:

- ``e16-*``, ``e17-*``: every ``fleet.*`` counter and maximum of small
  E16/E17 racks, both arms with faults armed, and a harsh ZNS rack that
  loses tenants: no golden row reports ``reads_skipped``,
  ``writes_refused``, ``reset_retries`` or the lifecycle counters.
- ``e13-caches``: a shrunken E13's cache stats, relocated pages and NAND
  op counts, which E13's rows round away.
- ``stall-*``: the two stalled-writer call sites (E3 and E11 in small).
  Which parked writer takes a freed block, and when, moves the clock,
  every latency and the NAND traffic.
- ``trace-*``: each timed stack's event stream as ``[lines, sha256]`` of
  its ``--trace`` lines, which pins an order no counter sees.
- ``des-timeline``: the engine's own timeline under both stalled-writer
  scenarios, as the processed-event count and ``[events, sha256]`` of
  every processed event's clock, in order: what an engine change must
  leave exactly as it was.
- ``lsm-*``: the LSM flush/compaction schedule on both backends, with the
  ``io_plan`` as ``[entries, sha256]``; it stands in for E5/A2/E4.

A speed-only change moves no value. A change that moves one changes
physics and must say so: ``python scripts/fingerprints.py`` re-records
the file and prints each moved key as ``rig key: old → new`` for
CHANGES.md. Checks rather than values (a scenario that stops stalling,
request counts, allocator and cache invariants) stay asserts in the rigs.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path
from unittest.mock import patch

import pytest

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore, ZoneFileBackend
from repro.block.factory import DeviceSpec, build_stack
from repro.experiments import ExperimentConfig, e13_cache
from repro.experiments.e16_fleet_serving import fleet_plan
from repro.experiments.e17_reset_pressure import mgmt_plan
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.timing import ZoneMgmtTiming
from repro.fleet import FleetSpec, rack, simulate_shard
from repro.ftl.device import TimedConventionalSSD
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.hostio.scheduler import make_scheduler
from repro.obs.events import event_to_dict
from repro.sim.engine import Engine, Event, Timeout
from repro.sim.rng import make_rng
from repro.workloads.synthetic import zipfian_stream
from repro.zns.device import TimedZNSDevice, ZNSDevice

RECORD = Path(__file__).parent / "golden" / "fingerprints.json"


def load() -> dict[str, dict]:
    """The recorded entries, rig -> {key: value}."""
    return json.loads(RECORD.read_text())


def moved(rig: str, recorded: dict, measured: dict) -> list[str]:
    """``rig key: old → new`` for each key whose value moved, vanished or is new."""

    def show(values: dict, key: str) -> str:
        return repr(values[key]) if key in values else "absent"

    return [
        f"{rig} {key}: {show(recorded, key)} → {show(measured, key)}"
        for key in sorted(recorded.keys() | measured.keys())
        if key not in recorded or key not in measured or recorded[key] != measured[key]
    ]


class JsonlDigest:
    """``[lines, sha256]`` of records written as sorted-key JSONL lines."""

    def __init__(self):
        self.lines = 0
        self._sha = hashlib.sha256()

    def add(self, record: dict) -> None:
        self.lines += 1
        self._sha.update(json.dumps(record, sort_keys=True).encode() + b"\n")

    def on_event(self, event) -> None:
        """Tracer sink hook: the event as its ``--trace`` line."""
        self.add(event_to_dict(event))

    def value(self) -> list:
        return [self.lines, self._sha.hexdigest()]


def _nand(nand) -> dict:
    return {f"nand/{op}": nand.counters.count(op) for op in ("program", "copy", "erase")}


def _timed(engine: Engine, device, nand) -> dict:
    state = {"now": engine.now, "processed_events": engine.processed_events, **_nand(nand)}
    for op in ("write", "read"):
        key = f"hostio.request.{op}.latency_us"
        state[f"{op}_latency/count"] = device.frame.observations(key)
        state[f"{op}_latency/mean"] = device.frame.mean(key)
    return state


_FLASH = (("blocks_per_plane", 8),)
_CONV = DeviceSpec(
    kind="conventional-ftl", geometry="small", flash=_FLASH, ftl=(("op_ratio", 0.18),)
)
_ZNS = DeviceSpec(
    kind="zns", geometry="small", flash=_FLASH, blocks_per_zone=2, max_active_zones=14
)
_BURSTY = dict(idle_events=2, burst_events=16, heavy_every=4, heavy_factor=2)


def _e16(device: DeviceSpec, scale: float, **overrides) -> FleetSpec:
    fields = dict(
        mix=((device.with_faults(fleet_plan(0), scale), 2),),
        tenants=4, placement="pack", ticks=60, warmup_ticks=120,
        utilization=0.9, seed=0, **_BURSTY,
    )  # fmt: skip
    fields.update(overrides)
    return FleetSpec(**fields)


def _e17(lifecycle: bool, scale: float, **overrides) -> FleetSpec:
    device = replace(_ZNS, zone_mgmt=(("reset_us", 5_000.0),))
    fields = dict(
        mix=((device.with_faults(mgmt_plan(0), scale), 2),),
        tenants=4, ticks=60, warmup_ticks=120, utilization=0.9, seed=0,
        lifetime_scale=0.05, zone_lifecycle=lifecycle,
    )  # fmt: skip
    fields.update(overrides)
    return FleetSpec(**fields)


#: name -> one rack's arms (one simulate call each, so they share a warm-up).
RACKS = {
    "e16-conventional": [_e16(_CONV, 1.0), _e16(_CONV, 50.0)],
    "e16-zns": [_e16(_ZNS, 1.0), _e16(_ZNS, 4.0)],
    "e16-zns-harsh": [_e16(_ZNS, 50.0, tenants=8, ticks=200)],
    "e17-zns-naive": [_e17(False, 1.0), _e17(False, 4.0)],
    "e17-zns-managed": [_e17(True, 1.0), _e17(True, 4.0)],
}


def fleet_rack(arms: list[FleetSpec]) -> dict:
    """Every arm's counters and maxima, as ``arm/group/key``, with each
    tenant's cache (and lifecycle manager) checked at the end of its
    measured span."""
    measure = rack._ServedDevice.measure

    def checked(device, spec, device_id):
        frame = measure(device, spec, device_id)
        for tenant in device.tenants:
            tenant.cache.check_invariants()
        for lifecycle in device.managed:
            lifecycle.check_invariants()
        return frame

    with patch.object(rack._ServedDevice, "measure", checked):
        frames = simulate_shard(arms)
    return {
        f"{arm}/{group}/{key}": value
        for arm, frame in enumerate(frames)
        for group, values in (("counters", frame.counters), ("maxima", frame.maxima))
        for key, value in values.items()
    }


_CACHE_STATS = ("gets", "hits", "insertions", "evictions", "readmissions")


def _cache(prefix: str, cache, nand) -> dict:
    """A cache's stats and its NAND's non-zero op counts, as ``nand/op.cause``."""
    return {
        **{f"{prefix}/stats/{name}": getattr(cache.stats, name) for name in _CACHE_STATS},
        **{
            f"{prefix}/nand/{op}.{cause}": count
            for op, by_cause in nand.counters.ops.items()
            for cause, count in by_cause.items()
            if count
        },
    }


def e13_caches() -> dict:
    """E13 at 30,000 requests: each cache's stats and its NAND's op counts."""
    made = []

    def keep(make):
        def kept(*args, **kwargs):
            made.append(make(*args, **kwargs))
            return made[-1]

        return kept

    with patch.multiple(
        e13_cache,
        build_stack=keep(e13_cache.build_stack),
        SetAssociativeCache=keep(e13_cache.SetAssociativeCache),
        ZoneLogCache=keep(e13_cache.ZoneLogCache),
        zipfian_stream=lambda u, n, **kw: zipfian_stream(u, 30_000, **kw),
    ):
        e13_cache.run(ExperimentConfig("E13"))
    conv, set_cache, zns, log_cache = made
    return {
        **_cache("set-assoc", set_cache, conv.ftl.nand),
        **_cache("zone-log", log_cache, zns.nand),
        "zone-log/relocated_pages": log_cache.relocated_pages,
    }


def _closed_loop(submit, ops: int, rng, n: int):
    for _ in range(ops):
        yield submit(int(rng.integers(0, n)))


def _fill_and_churn(write, n: int, seed: int) -> None:
    """Write every page once, then half as many again at random."""
    for lpn in range(n):
        write(lpn)
    churn = make_rng(seed)
    for _ in range(n // 2):
        write(int(churn.integers(0, n)))


def _saturated_ssd() -> tuple[Engine, TimedConventionalSSD]:
    """E3's op=7% saturation point in small: a full, half-churned drive."""
    engine = Engine()
    ftl = ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.07, gc_streams=4))
    ssd = TimedConventionalSSD(engine, ftl)
    _fill_and_churn(ssd.ftl.write, ssd.ftl.logical_pages, 5)
    return engine, ssd


def dmzoned_open_loop(bursts: int, sink=None, on_built=None):
    """E11's always-on arm run for ``bursts`` read bursts; returns (engine, host).

    ``sink``, if given, is attached to the stack's tracer after the prefill,
    and then ``on_built``, if given, is called with the stack.
    """
    engine = Engine()
    spec = DeviceSpec(
        kind="dmzoned-timed", geometry="small", blocks_per_zone=2, max_active_zones=14,
        zoned_block={"op_ratio": 0.18, "use_simple_copy": True,
                     "gc_low_zones": 6, "gc_high_zones": 8},
        extra={"prioritize_reads": False},
    )  # fmt: skip
    host = build_stack(spec, engine=engine, scheduler=make_scheduler("always-on"))
    n = host.layer.logical_pages
    _fill_and_churn(host.layer.write, n, 2)
    if sink is not None:
        host.tracer.attach(sink)
    if on_built is not None:
        on_built(host)
    rng_w = make_rng(0)
    rng_r = make_rng(1)
    done = [False]

    def writer(engine):
        while not done[0]:
            yield Timeout(engine, float(rng_w.exponential(500.0)))
            host.submit_write(int(rng_w.integers(0, n)))

    def reader(engine):
        for _ in range(bursts):
            for _ in range(20):
                yield host.submit_read(int(rng_r.integers(0, n)))
            yield Timeout(engine, 4000.0)
        done[0] = True

    engine.process(writer(engine))
    engine.run(until=engine.process(reader(engine)))
    return engine, host


def _stalled_writers() -> tuple[Engine, TimedConventionalSSD]:
    """Eight closed-loop writers spend most of ~2.1 simulated s stalled."""
    engine, ssd = _saturated_ssd()
    n, rng = ssd.ftl.logical_pages, make_rng(1234)
    writers = [engine.process(_closed_loop(ssd.submit_write, 60, rng, n)) for _ in range(8)]
    engine.run(until=engine.all_of(writers))
    return engine, ssd


def stall_conventional() -> dict:
    engine, ssd = _stalled_writers()
    stalls = ssd.ftl.stats.foreground_gc_stalls
    assert stalls > 100  # the scenario is nothing if it stops stalling
    assert ssd.frame.observations("hostio.request.write.latency_us") == 60 * 8
    return {**_timed(engine, ssd, ssd.ftl.nand), "foreground_gc_stalls": stalls}


def stall_dmzoned() -> dict:
    """E11's always-on arm, 64 read bursts: the open-loop writer outruns
    host reclaim, so writes pile up out of zones behind the reclaim loop."""
    engine, host = dmzoned_open_loop(64)
    assert host.frame.observations("hostio.request.read.latency_us") == 64 * 20
    stalls = host.layer.stats.write_stalls
    assert stalls > 100  # the scenario is nothing if it stops stalling
    return {**_timed(engine, host, host.layer.device.nand), "write_stalls": stalls}


def trace_conventional() -> dict:
    """Eight closed-loop writers and a reader against the saturated drive:
    writes stall, the collector runs, reads queue behind it. The
    ``service-start`` of a write comes before its flash events here, of a
    read after them."""
    engine, ssd = _saturated_ssd()
    sink = ssd.tracer.attach(JsonlDigest())
    n, rng = ssd.ftl.logical_pages, make_rng(77)
    procs = [engine.process(_closed_loop(ssd.submit_write, 40, rng, n)) for _ in range(8)]
    procs.append(engine.process(_closed_loop(ssd.submit_read, 40, rng, n)))
    engine.run(until=engine.all_of(procs))
    assert ssd.ftl.stats.foreground_gc_stalls > 0
    return {"trace": sink.value()}


def trace_dmzoned() -> dict:
    sink = JsonlDigest()
    engine, host = dmzoned_open_loop(8, sink=sink)
    assert host.frame.observations("hostio.request.read.latency_us") == 8 * 20
    return {"trace": sink.value()}


def trace_zns() -> dict:
    """Locked writes and appends fill four zones; then a reset and a
    finish hold their zones while appends, a write and reads queue
    behind the management gates."""
    engine = Engine()
    mgmt_timing = ZoneMgmtTiming(reset_us=2_000.0, finish_us=500.0, finish_per_page_us=2.0)
    dev = TimedZNSDevice(engine, ZNSDevice(ZonedGeometry.small(), mgmt_timing=mgmt_timing))
    sink = dev.tracer.attach(JsonlDigest())

    def driver():
        yield engine.all_of(
            [dev.submit_write(zone, 2) for zone in (0, 1) for _ in range(8)]
            + [dev.submit_append(zone) for zone in (2, 3) for _ in range(16)]
        )
        yield engine.all_of(
            [dev.submit_reset(0), dev.submit_finish(1)]
            + [dev.submit_append(0) for _ in range(4)]
            + [dev.submit_write(0, 1)]
            + [dev.submit_read(1, offset) for offset in range(0, 16, 2)]
        )
        yield engine.all_of(
            [dev.submit_read(zone, offset) for zone in (2, 3) for offset in range(8)]
        )

    engine.run(until=engine.process(driver()))
    return {"trace": sink.value()}


def des_timeline() -> dict:
    """The clock of every event the engine processes, in order, taken at
    the ``Event._process`` seam: ``_stalled_writers`` on E3's saturated
    drive, and E11's always-on arm for 16 read bursts."""
    clocks = array("d")
    process = Event._process

    def clocked(event):
        clocks.append(event.engine.now)
        process(event)

    def timeline(engine: Engine) -> list:
        assert len(clocks) == engine.processed_events  # the seam saw every event
        value = [len(clocks), hashlib.sha256(clocks.tobytes()).hexdigest()]
        del clocks[:]
        return value

    with patch.object(Event, "_process", clocked):
        conventional = timeline(_stalled_writers()[0])
        dmzoned = timeline(dmzoned_open_loop(16)[0])
    return {
        "conventional/processed_events": conventional[0],
        "conventional/clocks": conventional,
        "dmzoned/processed_events": dmzoned[0],
        "dmzoned/clocks": dmzoned,
    }


# Small tables and a 2,048-page device: 30k puts then reach five levels,
# device GC on the block stack and zone reclaim on the zoned one.
_LSM = LSMConfig(memtable_pages=4, level0_pages=16, level_multiplier=4, max_table_pages=4)
_LSM_FLASH = {"blocks_per_plane": 4}
_KEYS, _PUTS, _GETS, _SCANS = 24_000, 30_000, 5_000, 200


def _lsm_write(store: LSMStore, rng: random.Random) -> None:
    for i in range(_PUTS):
        if i % 50 == 49:
            store.delete(rng.randrange(_KEYS))
        else:
            store.put(rng.randrange(_KEYS), i)
        if i == _PUTS // 2:
            store.crash_and_recover()


def _lsm(store: LSMStore, nand) -> dict:
    store.check_invariants()
    counters = nand.counters
    log = getattr(store.backend, "log", None)  # the zoned backend's zone log
    plan = JsonlDigest()
    for entry in store.stats.io_plan:
        plan.add(asdict(entry))
    # The backend's page traffic is the NAND's, cause by cause.
    backend = {
        **asdict(store.backend.stats),
        "zones_reset": log.resets if log else 0,
        "free_zone_resets": log.free_resets if log else 0,
        "pages_written": counters.count("program", "host"),
        "pages_read": counters.count("read", "host"),
        "pages_relocated": counters.count("program", "reclaim"),
    }
    return {
        **{f"stats/{k}": v for k, v in vars(store.stats).items() if isinstance(v, int)},
        **{f"backend/{k}": v for k, v in backend.items()},
        **_nand(nand),
        "io_plan": plan.value(),
        "levels": store.level_sizes_pages(),
    }


def lsm_block() -> dict:
    """Puts, deletes and a crash, then gets and scans, on the aged block backend."""
    spec = DeviceSpec(
        kind="conventional-ssd", geometry="small", flash=_LSM_FLASH, ftl={"op_ratio": 0.07}
    )
    ssd = build_stack(spec)
    store = LSMStore(BlockFileBackend(ssd, trim_on_delete=False, allocation_strategy="aged"), _LSM)
    rng = random.Random(13)
    _lsm_write(store, rng)
    for _ in range(_GETS):
        store.get(rng.randrange(2 * _KEYS))
    for _ in range(_SCANS):
        lo = rng.randrange(_KEYS)
        store.scan(lo, lo + 100)
    # Every get that reached a table and every page a scan charged is a flash read.
    reads = ssd.ftl.nand.counters.count("read")
    assert reads == store.stats.table_reads + store.stats.scan_pages_read
    # What the in-place ``ExtentAllocator.free`` relies on: the free list
    # is sorted and fully coalesced after every allocate and free.
    store.backend.allocator.check_invariants()
    return {**_lsm(store, ssd.ftl.nand), "flash_reads": reads}


def lsm_zone() -> dict:
    """The same puts on the zoned backend, write-only: reads through it are
    covered by the dict-model property test in tests/apps/test_lsm.py."""
    spec = DeviceSpec(
        kind="zns", geometry="small", flash=_LSM_FLASH, blocks_per_zone=2, max_active_zones=14
    )
    device = build_stack(spec)
    store = LSMStore(ZoneFileBackend(device), _LSM)
    _lsm_write(store, random.Random(13))
    return _lsm(store, device.nand)


#: rig name -> a call returning its ``{key: value}``.
RIGS = {
    **{name: partial(fleet_rack, arms) for name, arms in RACKS.items()},
    "e13-caches": e13_caches,
    "stall-conventional": stall_conventional,
    "stall-dmzoned": stall_dmzoned,
    "trace-conventional": trace_conventional,
    "trace-dmzoned": trace_dmzoned,
    "trace-zns": trace_zns,
    "des-timeline": des_timeline,
    "lsm-block": lsm_block,
    "lsm-zone": lsm_zone,
}


@pytest.mark.parametrize("rig", list(RIGS))
def test_fingerprint(rig):
    lines = moved(rig, load().get(rig, {}), RIGS[rig]())
    assert not lines, "re-record with python scripts/fingerprints.py:\n" + "\n".join(lines)


def test_every_recorded_rig_runs():
    assert sorted(load()) == sorted(RIGS)


def test_moved_names_each_changed_key():
    recorded = {"kept": 1, "moved": 2, "vanished": 3}
    measured = {"kept": 1, "moved": 5, "new": [4, "ab"]}
    assert moved("rig", recorded, measured) == [
        "rig moved: 2 → 5",
        "rig new: absent → [4, 'ab']",
        "rig vanished: 3 → absent",
    ]


def test_the_racks_reach_every_tenant_path():
    """The rack entries are only worth something if the racks walk the
    paths no golden row reports."""
    recorded = load()
    seen = {key.rsplit("/", 1)[1] for rig in RACKS for key, value in recorded[rig].items() if value}
    for counter in (
        "reads_skipped", "objects_deleted", "append_faults", "writes_refused",
        "zones_offlined", "reset_retries", "zones_quarantined", "reads_lost",
        "devices_failed", "lifecycle.reserve_hits",
    ):  # fmt: skip
        assert f"fleet.{counter}" in seen, counter
