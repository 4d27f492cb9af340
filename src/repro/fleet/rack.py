"""Sharded rack simulation: N devices, bursty tenants, one merged frame.

Each device runs a self-contained serving simulation: its tenants (fixed
by :mod:`repro.fleet.placement`) process object create/delete events from
seeded :class:`~repro.workloads.lifetime.ObjectLifetimeWorkload` streams
at per-tick intensities from the bursty demand process, against a stack
built by :func:`repro.block.factory.build_stack`. A deterministic
single-server queue replays the flash service times, so a bursting
neighbor inflates everyone's queueing delay and a foreground GC pass
stalls the reads behind it -- the §2.4 interference, at rack scale.

Determinism is the load-bearing property: every random stream seeds from
``(fleet seed, purpose, tenant/device id)``, never from which shard runs
the device, and the per-device result is a
:class:`~repro.obs.frame.MetricsFrame`. Its counters and maxima merge
exactly and order-free, and its latency series concatenate in merge
order, so ``simulate_shard`` results merge to the serial run's counters
and maxima for any shard count, and to the same latency samples in
another order (round-robin shards interleave devices). The summary's
quantiles read only the multiset of samples, so
:func:`fleet_summary` is identical for any shard count -- the property
the fleet tests pin. The entry points are :func:`simulate_shard` (the
whole rack at one shard) and :func:`simulate_device`.

The frame is a field of the run, not a sink on the bus: the tenants and
the serving loop book every ``fleet.*`` key themselves. Each served
request's latency goes to a list local to the serving span
(:meth:`_ServedDevice.serve`), and the span books each list once, in
arrival order, with :meth:`~repro.obs.frame.MetricsFrame.extend`. A
device's reads draw their keys from one :class:`~repro.sim.rng.Draws`,
which returns what a numpy draw per read would, from words taken a chunk
at a time. The two request
publishes sit behind ``tracer.enabled`` for whoever asked to observe
(``--trace``, ``--metrics-out``, a test's sink); nobody listening, a
device builds no event. Tenant churn streams are a pure function of
``(seed, tenant, lifetime_scale)``, so every scenario of a sweep replays
one per-process buffer (:func:`_stream_buffer`) instead of regenerating.

A sweep's fault arms share each device's prefill and warm-up: the
simulate functions take the :class:`FleetSpec` of every arm (they may
differ only in device fault plans) and return one frame per arm, each
measured on its own copy of the warmed device (:func:`simulate_device`).

Each tenant is a cursor into its churn stream and one of E13's caches
(:mod:`repro.apps.cache`; E3/§2.4's cache scenario): a one-way
set-associative cache over its slice of a conventional device, which
overwrites objects in place and trims deletions, paying device GC, or a
zone log over its zones of a ZNS device, which reclaims whole zones by
reset, so deleted data ages out of the log. Zone management is not
free: under :class:`~repro.flash.timing.ZoneMgmtTiming` a reset holds its
zone for real microseconds, and under management faults it can bounce.
A zone log resets inline on the write path (the naive host) or, with
``FleetSpec.zone_lifecycle``, through a
:class:`~repro.hostio.zonelife.ZoneLifecycleManager` -- the E17
comparison. The caches count; :meth:`_ServedDevice.measure` books their
counts as ``fleet.*`` counters.
"""

from __future__ import annotations

import copy
import hashlib
from collections.abc import Iterator, Sequence
from dataclasses import replace
from functools import lru_cache
from typing import Any

import numpy as np

from repro.apps.cache import FIBONACCI, SetAssociativeCache, ZoneLogCache
from repro.block.factory import DeviceSpec, build_stack, fault_injector
from repro.flash.errors import UncorrectableReadError
from repro.flash.ops import OpKind
from repro.fleet import placement
from repro.fleet.spec import FleetSpec
from repro.ftl.ftl import GCStuckError
from repro.hostio.zonelife import ZoneLifecycleManager
from repro.obs.events import HostRequestEvent
from repro.obs.frame import MetricsFrame
from repro.obs.runtime import new_tracer
from repro.sim.rng import Draws, make_rng
from repro.workloads.lifetime import ObjectLifetimeWorkload
from repro.workloads.multitenant import demand_trace
from repro.zns.errors import ZoneOfflineError
from repro.zns.zone import ZoneState

#: Stack kinds the rack knows how to drive.
SERVING_KINDS = ("conventional-ftl", "zns")

#: Objects per workload epoch of a tenant's churn stream, and the events
#: (one create and one delete each) that makes.
_EPOCH_OBJECTS = 4096
_EPOCH_EVENTS = 2 * _EPOCH_OBJECTS

#: The tenant caches' :class:`~repro.apps.cache.CacheStats` a measured
#: span books, as ``fleet.<name>`` (deletes as ``fleet.objects_deleted``).
_BOOKED_STATS = ("deletes", "writes_refused", "zone_resets", "reset_retries",
                 "append_faults", "zones_offlined", "zones_quarantined")  # fmt: skip

#: The frame series each served request's latency (us) is sampled into.
_WRITE_LATENCY = "fleet.request.write.latency_us"
_READ_LATENCY = "fleet.request.read.latency_us"


def derive_seed(*parts: Any) -> int:
    """A stable 63-bit seed from structured parts (never ``hash()``)."""
    data = ":".join(str(part) for part in parts).encode()
    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big") >> 1


def shard_devices(num_devices: int, shards: int) -> list[list[int]]:
    """Round-robin device ids across ``shards`` (balanced, deterministic)."""
    if shards < 1:
        raise ValueError("shards must be >= 1")
    out: list[list[int]] = [[] for _ in range(shards)]
    for device_id in range(num_devices):
        out[device_id % shards].append(device_id)
    return out


def _intensity(spec: FleetSpec, tenant_id: int) -> list[int]:
    """Events/tick for one tenant; placement- and shard-independent."""
    changes: dict[int, int] = {}
    steps = spec.warmup_ticks + spec.ticks
    for event in demand_trace(
        [spec.tenant_profile(tenant_id)],
        steps,
        seed=derive_seed(spec.seed, "demand", tenant_id),
    ):
        changes[event.time] = event.zones_wanted
    level = spec.idle_events
    out = []
    for tick in range(steps):
        level = changes.get(tick, level)
        out.append(level)
    return out


def _generate_codes(seed: int, tenant_id: int, lifetime_scale: float) -> Iterator[int]:
    """One tenant's endless object churn, one int per event.

    ``obj_id`` for a create, ``~obj_id`` for a delete -- the only two
    fields a tenant reads. Every epoch is one seeded workload of
    ``_EPOCH_OBJECTS`` objects, hence ``_EPOCH_EVENTS`` events.
    """
    epoch = 0
    while True:
        workload = ObjectLifetimeWorkload(
            num_objects=_EPOCH_OBJECTS,
            owners=3,
            batch_size=4,
            lifetime_scale=lifetime_scale,
            seed=derive_seed(seed, "objects", tenant_id, epoch),
        )
        for event in workload.events():
            yield ~event.obj_id if event.kind == "delete" else event.obj_id
        epoch += 1


@lru_cache(maxsize=32)
def _stream_buffer(
    seed: int, tenant_id: int, lifetime_scale: float
) -> tuple[list[int], Iterator[int]]:
    """The codes one stream has generated so far, and what extends them.

    Every scenario of a sweep, and every copy of a warmed device, replays
    the same few tenant streams, so they are generated once per process:
    a tenant holds a cursor into the list, and the furthest reader
    extends it. The stream is a pure function of the key: eviction only
    costs a regeneration, and a consumer that outlives its entry keeps
    reading the pair it holds.
    """
    return [], _generate_codes(seed, tenant_id, lifetime_scale)


def _service_us(ops: list) -> float:
    """Queue occupancy of one host command's flash ops.

    Channel-using ops serialize on the device's host interface;
    device-internal ops (erases during reset, copyback) overlap across
    planes, so only the longest one holds the queue. Zone-management
    overhead (``OpKind.MGMT``) holds the zone and its die lane for its
    full duration, so it adds serially instead of joining the
    internal-op overlap.
    """
    channel = 0.0
    internal = 0.0
    mgmt = 0.0
    for op in ops:
        if op.kind is OpKind.MGMT:
            mgmt += op.latency_us
        elif op.uses_channel:
            channel += op.latency_us
        elif op.latency_us > internal:
            internal = op.latency_us
    return channel + internal + mgmt


class _Tenant:
    """One tenant: a cursor into its churn stream (:func:`_stream_buffer`)
    and the cache its objects live in."""

    def __init__(self, spec: FleetSpec, tenant_id: int, cache):
        self._codes, self._more = _stream_buffer(spec.seed, tenant_id, spec.lifetime_scale)
        self._next = 0
        self.cache = cache

    def _next_event(self) -> tuple[int, int]:
        """The next ``(epoch, code)``; ``code`` is ``~obj_id`` for a delete."""
        index = self._next
        codes = self._codes
        if index == len(codes):
            codes.append(next(self._more))
        self._next = index + 1
        return index // _EPOCH_EVENTS, codes[index]

    def __deepcopy__(self, memo: dict) -> "_Tenant":
        # The stream stays shared; only the cursor is the clone's own. The
        # cache copies its device through ``memo``, so the clone writes to
        # the copied stack.
        clone = _Tenant.__new__(_Tenant)
        memo[id(self)] = clone
        clone._codes = self._codes
        clone._more = self._more
        clone._next = self._next
        clone.cache = copy.deepcopy(self.cache, memo)
        return clone

    def step(self) -> float:
        """Serve the next churn event; its flash service time. An object's
        key is its number in the whole stream, ``obj_id + _EPOCH_OBJECTS * epoch``."""
        epoch, code = self._next_event()
        if code < 0:
            self.cache.delete(~code + _EPOCH_OBJECTS * epoch)
            return 0.0
        service = 0.0
        for ops in self.cache.admit(code + _EPOCH_OBJECTS * epoch, build_ops=True):
            service += _service_us(ops)
        return service

    def read(self, draw, frame: MetricsFrame) -> float | None:
        """Read a live object drawn uniformly (``draw(n)``, an index below
        ``n``); its latency, None if none."""
        cache = self.cache
        key = cache.sample(draw)
        if key is None:
            frame.add("fleet.reads_skipped")
            return None
        try:
            return cache.read(key, build_ops=True).latency_us
        except UncorrectableReadError as exc:
            frame.add("fleet.reads_lost")
            return exc.latency_us
        except ZoneOfflineError:
            frame.add("fleet.reads_lost")
            return None


def _shared_spec(specs: Sequence[FleetSpec]) -> FleetSpec:
    """The one rack ``specs`` describe, with every device's fault plan off.

    Raises ``ValueError`` unless ``specs`` is non-empty and its members
    differ only in their devices' fault plans (and scales).
    """
    if isinstance(specs, FleetSpec):
        raise TypeError("pass a sequence of FleetSpecs, not one FleetSpec")
    if not specs:
        raise ValueError("need at least one FleetSpec")
    shared = [
        replace(spec, mix=tuple((dspec.with_faults(None), count) for dspec, count in spec.mix))
        for spec in specs
    ]
    if any(spec != shared[0] for spec in shared[1:]):
        raise ValueError("fleet specs may differ only in their devices' fault plans")
    return shared[0]


def _device_spec_for(spec: FleetSpec, device_id: int) -> DeviceSpec:
    dspec = spec.device_specs()[device_id]
    if dspec.fault_plan is not None:
        # Each device faces its own fault schedule, seeded by rack
        # position so the draw never depends on which shard runs it.
        dspec = dspec.with_faults(
            replace(dspec.fault_plan, seed=derive_seed(spec.seed, "faults", device_id)),
            dspec.fault_scale,
        )
    return dspec


class _ServedDevice:
    """One device mid-run: its stack, tenants, read draws and queue.

    Built fault-free and prefilled from the rack's fault-free spec. Every
    field a measured phase reads lives here, so ``copy.deepcopy`` with
    the tracer memoized to itself (:meth:`clone`) starts another arm
    from the same state -- a replay, because every victim tie below goes
    to the lowest id (DESIGN.md §6).
    """

    def __init__(self, spec: FleetSpec, device_id: int):
        dspec = spec.device_specs()[device_id]
        if dspec.kind not in SERVING_KINDS:
            raise ValueError(
                f"fleet serving supports kinds {list(SERVING_KINDS)}, "
                f"got {dspec.kind!r}"
            )
        tenants = placement.assign(spec)[device_id]
        self.tracer = tracer = new_tracer()
        self.stack = stack = build_stack(dspec, tracer=tracer)
        self.read_draws = Draws(make_rng(derive_seed(spec.seed, "reads", device_id)))
        self.conventional = dspec.kind == "conventional-ftl"
        caches: list[Any] = []
        if self.conventional:
            if tenants:
                slice_pages = max(1, int(stack.logical_pages * spec.utilization) // len(tenants))
                for i in range(len(tenants)):
                    # One way per slot, scattered over the slice by
                    # Fibonacci hashing: creation order is sequential, and
                    # sequential overwrite would hand the FTL fully-invalid
                    # GC victims -- free GC that real object stores
                    # placing by key hash never see.
                    caches.append(SetAssociativeCache(
                        stack, ways=1, num_sets=slice_pages, base=i * slice_pages,
                        multiplier=FIBONACCI,
                    ))  # fmt: skip
                for cache in caches:
                    stack.write_pages(np.arange(cache.base, cache.base + cache.num_sets))
        elif tenants:
            zone_count = stack.zone_count
            if len(tenants) > stack.geometry.max_active_zones:
                raise ValueError(
                    f"{len(tenants)} tenants need {len(tenants)} active zones "
                    f"but device {device_id} allows {stack.geometry.max_active_zones}"
                )
            zones_per_tenant = zone_count // len(tenants)
            if zones_per_tenant < 2:
                raise ValueError(
                    f"device {device_id}: {zone_count} zones cannot give "
                    f"{len(tenants)} tenants a 2-zone log each"
                )
            fill = max(1, int(zones_per_tenant * spec.utilization))
            fill = min(fill, zones_per_tenant - 1)
            pages_per_zone = stack.geometry.pages_per_zone
            for i, tid in enumerate(tenants):
                zones = list(range(i * zones_per_tenant, (i + 1) * zones_per_tenant))
                for zone in zones[:fill]:
                    stack.append(zone, pages_per_zone, build_ops=False)
                lifecycle = None
                if spec.zone_lifecycle:
                    lifecycle = ZoneLifecycleManager(stack)
                    # Seed the reset-ahead reserve from the tenant's
                    # empty tail (resetting EMPTY zones is a no-op, so
                    # this costs nothing); the rotation shrinks by the
                    # held-out zones and cycles through the reserve.
                    hold = min(lifecycle.reserve_target, len(zones) - fill - 1)
                    if hold > 0:
                        for zone in zones[-hold:]:
                            lifecycle.note_reclaimable(zone)
                        del zones[-hold:]
                        lifecycle.tick()
                caches.append(ZoneLogCache(
                    stack, readmit_hot=False, zones=zones, head=fill, lifecycle=lifecycle
                ))  # fmt: skip
        self.tenants = [_Tenant(spec, tid, cache) for tid, cache in zip(tenants, caches)]
        self.managed = [cache.lifecycle for cache in caches if getattr(cache, "lifecycle", None)]
        self.schedules = [_intensity(spec, tid) for tid in tenants]
        self.tick_us = spec.tick_us
        self.reads_per_tick = spec.reads_per_tick
        self.busy = 0.0
        self.request_id = 0
        self.died = False

    def clone(self) -> "_ServedDevice":
        """A copy to measure another arm on; shares the tracer and the
        (read-only) demand schedules with this one."""
        shared = (self.tracer, self.schedules)
        return copy.deepcopy(self, {id(obj): obj for obj in shared})

    def serve(self, frame: MetricsFrame, ticks: range) -> None:
        """Run ``ticks``, booking into ``frame``; stops for good once the
        device dies. The span's latencies are booked once, at its end."""
        tracer = self.tracer
        draw = self.read_draws.below
        tenants = self.tenants
        managed = self.managed
        schedules = self.schedules
        tick_us = self.tick_us
        reads_per_tick = self.reads_per_tick
        busy = self.busy
        request_id = self.request_id
        died = self.died
        writes: list[float] = []
        reads: list[float] = []
        for tick in ticks:
            if died:
                break
            now = tick * tick_us
            # Background lifecycle pass before the arrival clamp: deferred
            # finishes and reset-ahead run only when the queue has drained
            # (a genuine idle window), so the tick's idle gap absorbs them
            # -- the whole point of keeping resets off the write path. Mid-
            # burst the pass stands down and the reserve carries the log.
            for lifecycle in managed:
                if busy > now:
                    break
                work = lifecycle.tick()
                if work:
                    busy += _service_us(work)
            if busy < now:
                busy = now
            for schedule, tenant in zip(schedules, tenants):
                try:
                    for _ in range(schedule[tick]):
                        service = tenant.step()
                        if service > 0.0:
                            busy += service
                            request_id += 1
                            waited = busy - now
                            writes.append(waited)
                            if tracer.enabled:
                                tracer.publish(
                                    HostRequestEvent(
                                        "fleet.request", "write", "complete",
                                        request_id=request_id, latency_us=waited,
                                    )
                                )
                except GCStuckError:
                    # Spare blocks exhausted (fault-retired mid-life): the
                    # device bricked. Conventional only -- ZNS degrades zones.
                    died = True
                    break
                for _ in range(reads_per_tick):
                    latency = tenant.read(draw, frame)
                    if latency is None:
                        continue
                    busy += latency
                    request_id += 1
                    waited = busy - now
                    reads.append(waited)
                    if tracer.enabled:
                        tracer.publish(
                            HostRequestEvent(
                                "fleet.request", "read", "complete",
                                request_id=request_id, latency_us=waited,
                            )
                        )
        frame.extend(_WRITE_LATENCY, writes)
        frame.extend(_READ_LATENCY, reads)
        self.busy = busy
        self.request_id = request_id
        self.died = died

    def measure(self, spec: FleetSpec, device_id: int) -> MetricsFrame:
        """Arm ``spec``'s faults for this device, run the measured ticks and
        return the device's frame. A device that died in warm-up reports
        the death on a clean frame."""
        stack = self.stack
        nand = stack.nand
        injector = fault_injector(_device_spec_for(spec, device_id))
        if injector is not None:
            injector.bind(self.tracer)
            nand.faults = injector
            if hasattr(stack, "faults"):
                stack.faults = injector
        frame = MetricsFrame()
        before = nand.counters.snapshot()
        stats_before = [copy.copy(tenant.cache.stats) for tenant in self.tenants]
        start = spec.warmup_ticks
        self.serve(frame, range(start, start + spec.ticks))

        for tenant, was in zip(self.tenants, stats_before):
            for name in _BOOKED_STATS:
                count = getattr(tenant.cache.stats, name) - getattr(was, name)
                if count:
                    frame.add(f"fleet.{'objects_deleted' if name == 'deletes' else name}", count)

        for op, key in (("write", _WRITE_LATENCY), ("read", _READ_LATENCY)):
            served = frame.observations(key)
            if served:
                frame.add(f"fleet.request.{op}.requests", served)
        host = nand.counters.count("program", "host") - before.count("program", "host")
        if host:
            frame.add("fleet.host_pages_written", host)
            frame.peak("fleet.device_wa_max", nand.counters.write_amplification(since=before))
        flash_pages = nand.counters.programmed_pages() - before.programmed_pages()
        frame.add("fleet.flash_pages_written", flash_pages)
        frame.add("fleet.devices")
        if self.died:
            frame.add("fleet.devices_failed")
        if self.conventional:
            frame.add("fleet.capacity_units_lost", stack.stats.blocks_retired)
            frame.add("fleet.capacity_units", stack.geometry.total_blocks)
        else:
            offline = sum(
                1 for zone in stack.report_zones() if zone.state is ZoneState.OFFLINE
            )
            quarantined = sum(
                1
                for lifecycle in self.managed
                for zone in lifecycle.quarantined_zones
                if stack.zone(zone).state is not ZoneState.OFFLINE
            )
            frame.add("fleet.capacity_units_lost", offline + quarantined)
            frame.add("fleet.capacity_units", stack.zone_count)
        for lifecycle in self.managed:
            stats = lifecycle.stats
            frame.add("fleet.lifecycle.reserve_hits", stats.reserve_hits)
            frame.add("fleet.lifecycle.reserve_misses", stats.reserve_misses)
            frame.add("fleet.lifecycle.retries", stats.retries)
            frame.add("fleet.lifecycle.resets_ahead", stats.reset_ahead)
        p99 = frame.quantile(_READ_LATENCY, 0.99)
        if p99:
            frame.peak("fleet.device_read_p99_us_max", p99)
        return frame


def simulate_device(specs: Sequence[FleetSpec], device_id: int) -> list[MetricsFrame]:
    """Serve one device's tenants under each spec; one frame per spec.

    ``specs`` are one rack that differs only in its devices' fault plans
    (anything else raises ``ValueError``); one spec takes the same path.
    Faults sleep until the measurement boundary -- the filler is
    anonymous history, and a program fault in the prefill would abort
    construction, not serving -- so up to there every spec runs the same
    device. It is built fault-free, prefilled and warmed once (the
    warm-up churns against a throwaway frame, so GC / zone-reclaim
    pressure is steady before counting starts), and each spec measures
    on its own copy of that state, with its own injector built and bound
    at the boundary. The last spec copies too: a copy costs under a
    millisecond, and the measured ticks run faster on a fresh copy than
    on the warmed original.

    Every request goes to flash as its own command -- a tenant's
    ``step`` per churn event, its ``read`` per sampled read -- so an
    armed fault injector fires between commands as a device sees them.
    """
    spec = _shared_spec(specs)
    device = _ServedDevice(spec, device_id)
    device.serve(MetricsFrame(), range(spec.warmup_ticks))
    return [device.clone().measure(arm, device_id) for arm in specs]


def simulate_shard(
    specs: Sequence[FleetSpec], shard: int = 0, shards: int = 1
) -> list[MetricsFrame]:
    """Simulate one shard's devices under each spec; per spec, the
    devices' frames merge in device order."""
    if not 0 <= shard < shards:
        raise ValueError(f"shard {shard} out of range [0, {shards})")
    spec = _shared_spec(specs)
    devices = [simulate_device(specs, d) for d in shard_devices(spec.num_devices, shards)[shard]]
    return [MetricsFrame.merge(frames[i] for frames in devices) for i in range(len(specs))]


def fleet_summary(frame: MetricsFrame) -> dict[str, Any]:
    """Headline fleet metrics from a (possibly merged) frame."""
    host = frame.counter("fleet.host_pages_written")
    flash = frame.counter("fleet.flash_pages_written")
    units = frame.counter("fleet.capacity_units")
    return {
        "fleet_wa": round(flash / host, 2) if host else 0.0,
        "read_p99_us": round(frame.quantile(_READ_LATENCY, 0.99), 1),
        "reads": frame.counter("fleet.request.read.requests"),
        "writes": frame.counter("fleet.request.write.requests"),
        "reads_lost": frame.counter("fleet.reads_lost"),
        "capacity_lost_pct": (
            round(100.0 * frame.counter("fleet.capacity_units_lost") / units, 2)
            if units
            else 0.0
        ),
        "devices_failed": frame.counter("fleet.devices_failed"),
        "max_device_wa": round(frame.maximum("fleet.device_wa_max"), 2),
        "max_device_read_p99_us": round(
            frame.maximum("fleet.device_read_p99_us_max"), 1
        ),
    }


__all__ = [
    "SERVING_KINDS",
    "derive_seed",
    "fleet_summary",
    "shard_devices",
    "simulate_device",
    "simulate_shard",
]
