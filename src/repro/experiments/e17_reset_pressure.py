"""E17: Reset pressure -- where zone-management cost eats the ZNS tail win.

The paper's serving results (E3, E16) credit ZNS with removing device-GC
interference from the read path. But ZNS does not remove reclaim -- it
renames it: the host must reset zones, and on real hardware a reset is a
slow command that occupies the zone (and its dies) while in flight, and
under adversity it can bounce ("Eliminating the Hidden Cost of Zone
Management in ZNS SSDs" measures exactly this). A host that pays that
cost inline on the write path re-imports the tail-latency problem.

This sweep drives the :mod:`repro.fleet` rack across three arms:

- **conventional**: overwrite-in-place, device GC -- the baseline whose
  p99 the paper says ZNS beats. It has no zones, so reset pressure and
  management faults do not apply; it is measured once as the bar.
- **zns-naive**: per-tenant zone logs, resets issued inline on the write
  path, bounced resets retried inline (each bounce charging the full
  command hold).
- **zns-managed**: the same rack with
  :class:`~repro.hostio.zonelife.ZoneLifecycleManager` per tenant:
  reset-ahead from a free-zone reserve, background resets at tick
  boundaries (idle absorption), bounded retry with backoff, quarantine.

against two axes: **reset pressure** (the per-command zone hold,
``ZoneMgmtTiming.reset_us``) and **management-fault scale** (scaling
``reset_fail_prob``/``finish_timeout_prob``). The headline locates the
crossover: the lowest pressure at which the naive arm's read p99 is no
better than the conventional bar, and whether the lifecycle manager
keeps the win at (and past) that point.

The rack members, the shard point and the sweep skeleton are shared
with E16 (:mod:`repro.experiments.fleet_sweep`): a sweep point is one
shard of one (arm, pressure) rack at every management-fault scale.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec
from repro.experiments import fleet_sweep
from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec
from repro.faults import FaultPlan
from repro.fleet import FleetSpec

_ARMS = ("conventional", "zns-naive", "zns-managed")

#: Reset-command zone hold (us) ladder: free, cheap, the ~1-3 ms real
#: controllers exhibit, and a pathological firmware at the top.
_PRESSURES = (0.0, 1_000.0, 5_000.0, 20_000.0)
_MGMT_SCALES = (0.0, 1.0)


def mgmt_plan(seed: int) -> FaultPlan:
    """Zone-management adversity at scale 1 (rack.py reseeds per device).

    Only management fault classes are armed -- no media faults -- so the
    sweep isolates what zone management itself costs. A quarter of
    resets bounce at scale 1: harsh but survivable, chosen so the naive
    arm's inline retries are visible next to the pressure axis.
    """
    return FaultPlan(
        seed=seed,
        reset_fail_prob=0.25,
        finish_timeout_prob=0.1,
        finish_timeout_us=2_000.0,
    )


def device_spec(arm: str, pressure_us: float, mgmt_scale: float, seed: int) -> DeviceSpec:
    """One rack member of ``arm`` at one (pressure, fault-scale) point."""
    if arm == "conventional":
        return fleet_sweep.device_spec(conventional=True)
    spec = fleet_sweep.device_spec(
        conventional=False,
        zone_mgmt=(("reset_us", pressure_us),) if pressure_us > 0 else (),
    )
    if mgmt_scale > 0:
        spec = spec.with_faults(mgmt_plan(seed), mgmt_scale)
    return spec


def _fleet_spec(
    arm: str,
    pressure_us: float,
    mgmt_scale: float,
    devices: int,
    tenants: int,
    ticks: int,
    warmup: int,
    seed: int,
) -> FleetSpec:
    return fleet_sweep.fleet_spec(
        device_spec(arm, pressure_us, mgmt_scale, seed), devices, tenants, ticks, warmup, seed,
        # Short object lifetimes wrap the zone logs hard: reclaim (and
        # with it reset pressure) stays on for the whole measured span.
        lifetime_scale=0.05,
        zone_lifecycle=(arm == "zns-managed"),
    )  # fmt: skip


FLEET = fleet_sweep.FleetSweep(
    ("arm", "pressure_us"), "mgmt_scale", _fleet_spec,
    quick=(2, 4, 160, 120, 2), full=(4, 8, 400, 160, 4),
)  # fmt: skip


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One work unit per (arm, pressure, shard), covering every
    management-fault scale.

    The conventional arm has no zones: pressure and management faults
    cannot touch it, so it contributes a single (0, 0) scenario -- the
    bar the ZNS arms are judged against.
    """
    scales = tuple(config.param("mgmt_scales", _MGMT_SCALES))
    scenarios = [("conventional", 0.0, (0.0,))]
    for arm in ("zns-naive", "zns-managed"):
        if arm in config.param("arms", _ARMS):
            scenarios += [(arm, p, scales) for p in config.param("pressures", _PRESSURES)]
    return FLEET.points(config, scenarios)


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    out_rows = FLEET.rows(
        rows,
        {
            "zone_resets": "fleet.zone_resets",
            "reset_retries": "fleet.reset_retries",
            "reserve_hits": "fleet.lifecycle.reserve_hits",
            "reserve_misses": "fleet.lifecycle.reserve_misses",
            "zones_quarantined": "fleet.zones_quarantined",
        },
    )

    bar = next(row for row in out_rows if row["arm"] == "conventional")
    bar_p99 = bar["read_p99_us"]
    scales = sorted({row["mgmt_scale"] for row in out_rows if row["arm"] != "conventional"})
    top_scale = scales[-1] if scales else 0.0

    def ladder(arm: str, scale: float) -> list[dict]:
        return sorted(
            (r for r in out_rows if r["arm"] == arm and r["mgmt_scale"] == scale),
            key=lambda r: r["pressure_us"],
        )

    def crossover(arm: str, scale: float) -> float | None:
        """Lowest swept pressure where ``arm``'s p99 meets the bar."""
        for row in ladder(arm, scale):
            if row["read_p99_us"] >= bar_p99:
                return row["pressure_us"]
        return None

    naive_cross = crossover("zns-naive", top_scale)
    managed_cross = crossover("zns-managed", top_scale)
    naive_top = ladder("zns-naive", top_scale)
    managed_top = ladder("zns-managed", top_scale)
    return ExperimentResult(
        experiment_id="E17",
        title="Reset pressure: zone-management cost vs the ZNS tail win",
        paper_claim=(
            "ZNS beats conventional p99 by removing device GC from the "
            "read path (§2.4) -- but zone management has its own hidden "
            "cost, and a host that pays resets inline can lose the win; "
            "a resilient lifecycle layer keeps it"
        ),
        rows=out_rows,
        headline={
            "conventional_p99_us": bar_p99,
            "naive_crossover_pressure_us": naive_cross,
            "managed_crossover_pressure_us": managed_cross,
            "naive_p99_at_top_us": naive_top[-1]["read_p99_us"] if naive_top else 0.0,
            "managed_p99_at_top_us": managed_top[-1]["read_p99_us"] if managed_top else 0.0,
            "naive_loses_win": naive_cross is not None,
            "managed_keeps_win": managed_cross is None
            or (naive_cross is not None and managed_cross > naive_cross),
            "mgmt_fault_scale": top_scale,
        },
        notes=(
            "The conventional bar is measured once (no zones, so reset "
            "pressure and management faults cannot apply) under the same "
            "churn. Pressure is ZoneMgmtTiming.reset_us -- the command's "
            "zone hold, charged serially on top of erase physics. At the "
            "top management-fault scale a quarter of resets bounce; the "
            "naive arm retries inline, paying the full hold per bounce, "
            "while the managed arm serves from its reset-ahead reserve "
            "and pushes retries into tick-boundary idle windows."
        ),
    )


SWEEP = SweepSpec(points=sweep_points, point=FLEET.point, combine=combine)

__all__ = ["SWEEP", "device_spec", "mgmt_plan"]
