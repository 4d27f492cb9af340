"""Frozen description of one fleet: devices, tenants, placement, load.

A :class:`FleetSpec` is to a rack what
:class:`~repro.block.factory.DeviceSpec` is to one stack: pure, hashable
data. Everything the simulation does -- device construction,
tenant demand, placement, per-device seeding -- derives deterministically
from the spec, which is what lets shards of one fleet run in different
processes and still merge byte-identical to a serial run
(:mod:`repro.fleet.rack`).

Tenants follow the two-state bursty demand process of
:mod:`repro.workloads.multitenant` (here: object events per tick instead
of zones), write/delete objects from
:class:`~repro.workloads.lifetime.ObjectLifetimeWorkload` streams, and
are heterogeneous: every ``heavy_every``-th tenant bursts at
``heavy_factor`` times the base intensity, the noisy neighbors the
placement policies must cope with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.block.factory import DeviceSpec
from repro.workloads.multitenant import BurstyTenant

#: Placement policies :mod:`repro.fleet.placement` implements.
PLACEMENTS = ("round-robin", "least-loaded", "pack")


@dataclass(frozen=True)
class FleetSpec:
    """A frozen, hashable description of one fleet simulation.

    Attributes
    ----------
    mix:
        Rack composition as ``(device_spec, count)`` pairs in rack order.
        Heterogeneous racks interleave naturally (expanded in pair order).
    tenants:
        Number of tenants sharing the rack.
    placement:
        Tenant-placement policy name (see :data:`PLACEMENTS`).
    ticks:
        Measured simulation ticks (after prefill and warmup).
    warmup_ticks:
        Unmeasured churn ticks between prefill and measurement, so GC /
        zone-reclaim pressure reaches steady state before the telemetry
        frame starts counting. Faults stay quiesced until measurement.
    tick_us:
        Wall-clock microseconds per tick -- the arrival spacing the
        per-device queue drains against.
    reads_per_tick:
        Reads each tenant issues per tick against its live objects.
    idle_events / burst_events:
        Object events (creates/deletes) a tenant processes per tick while
        idle / bursting.
    burst_start_prob / burst_end_prob:
        The two-state Markov demand process, as in
        :class:`~repro.workloads.multitenant.BurstyTenant`.
    heavy_every / heavy_factor:
        Every ``heavy_every``-th tenant is *heavy*: its burst intensity
        is multiplied by ``heavy_factor`` (0 disables heterogeneity).
    utilization:
        Fraction of each tenant's slice prefilled before measurement
        (GC/reclaim pressure knob).
    lifetime_scale:
        Multiplier on the object-lifetime class means, tuned so short
        objects die within a run.
    zone_lifecycle:
        When true, every ZNS tenant routes zone management through a
        per-tenant :class:`~repro.hostio.zonelife.ZoneLifecycleManager`
        (reset-ahead reserve, retry-with-backoff, quarantine) instead of
        resetting inline on the write path. Conventional devices ignore
        it. Off by default.
    seed:
        Root seed; every per-tenant and per-device stream derives from it.
    """

    mix: tuple[tuple[DeviceSpec, int], ...]
    tenants: int = 16
    placement: str = "round-robin"
    ticks: int = 100
    warmup_ticks: int = 0
    tick_us: float = 12_000.0
    reads_per_tick: int = 3
    idle_events: int = 2
    burst_events: int = 16
    burst_start_prob: float = 0.05
    burst_end_prob: float = 0.25
    heavy_every: int = 4
    heavy_factor: int = 2
    utilization: float = 0.8
    lifetime_scale: float = 0.05
    zone_lifecycle: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        mix = tuple((spec, int(count)) for spec, count in self.mix)
        if not mix or any(count < 1 for _, count in mix):
            raise ValueError("mix must name at least one device with count >= 1")
        object.__setattr__(self, "mix", mix)
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; know {list(PLACEMENTS)}"
            )
        if self.ticks < 1:
            raise ValueError("ticks must be >= 1")
        if self.warmup_ticks < 0:
            raise ValueError("warmup_ticks must be >= 0")
        if self.tick_us <= 0:
            raise ValueError("tick_us must be positive")
        if self.idle_events < 0 or self.burst_events < self.idle_events:
            raise ValueError("need 0 <= idle_events <= burst_events")
        if self.reads_per_tick < 0:
            raise ValueError("reads_per_tick must be >= 0")
        if not 0 < self.utilization < 1:
            raise ValueError("utilization must be in (0, 1)")
        if self.lifetime_scale <= 0:
            raise ValueError("lifetime_scale must be > 0")
        if self.heavy_every < 0 or self.heavy_factor < 1:
            raise ValueError("need heavy_every >= 0 and heavy_factor >= 1")

    # -- Derived views ---------------------------------------------------------

    @property
    def num_devices(self) -> int:
        return sum(count for _, count in self.mix)

    def device_specs(self) -> tuple[DeviceSpec, ...]:
        """The rack expanded to one spec per device, in rack order."""
        out: list[DeviceSpec] = []
        for spec, count in self.mix:
            out.extend([spec] * count)
        return tuple(out)

    def is_heavy(self, tenant_id: int) -> bool:
        return self.heavy_every > 0 and tenant_id % self.heavy_every == 0

    def tenant_profile(self, tenant_id: int) -> BurstyTenant:
        """The demand process of one tenant (intensity = events/tick)."""
        factor = self.heavy_factor if self.is_heavy(tenant_id) else 1
        return BurstyTenant(
            tenant_id=tenant_id,
            idle_zones=self.idle_events,
            burst_zones=self.burst_events * factor,
            burst_start_prob=self.burst_start_prob,
            burst_end_prob=self.burst_end_prob,
        )


__all__ = ["PLACEMENTS", "FleetSpec"]
