"""What E16 and E17 share: the rack, the shard point, the sweep skeleton.

Both sweep :mod:`repro.fleet` racks of one device shape, each scenario
at several fault scales. A sweep point is one shard of one scenario's
rack at every scale: the scales differ only from the measurement
boundary on, so the point warms each device once and measures each
scale on its own copy (:func:`repro.fleet.rack.simulate_device`), and
``combine`` merges each (scenario, scale)'s shard frames. Shards are a
config parameter, not ``--jobs``, so any ``--jobs`` value is
byte-identical by construction. Like E15, both stay out of ``run all``:
their fault arms must not perturb the default suite's byte-stable
output. Each experiment keeps its id, axes, fault plan, load shape,
headline and rows.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.block.factory import DeviceSpec
from repro.experiments.base import ExperimentConfig
from repro.fleet import FleetSpec, fleet_summary, simulate_shard
from repro.obs.frame import MetricsFrame

# Shrink the small geometry further (64 blocks / 4096 pages per device)
# so churn reaches GC/reclaim steady state within CI-sized tick counts;
# 2-block zones wrap the per-tenant logs often, which is what makes
# reset frequency a pressure axis.
_FLASH = (("blocks_per_plane", 8),)
_OP = 0.18
_UTILIZATION = 0.9

#: The rack-size parameters every point carries, in point order.
_SIZES = ("devices", "tenants", "ticks", "warmup", "shards")


def device_spec(conventional: bool, zone_mgmt: tuple = ()) -> DeviceSpec:
    """A fault-free rack member: a conventional FTL, or ZNS on the same flash."""
    if conventional:
        return DeviceSpec(
            kind="conventional-ftl", geometry="small", flash=_FLASH, ftl=(("op_ratio", _OP),)
        )
    return DeviceSpec(
        kind="zns", geometry="small", flash=_FLASH, blocks_per_zone=2, max_active_zones=14,
        zone_mgmt=zone_mgmt,
    )  # fmt: skip


def fleet_spec(device, devices, tenants, ticks, warmup, seed, **fields) -> FleetSpec:
    """A homogeneous rack of ``devices`` copies of ``device``."""
    return FleetSpec(
        mix=((device, devices),), tenants=tenants, ticks=ticks, warmup_ticks=warmup,
        utilization=_UTILIZATION, seed=seed, **fields,
    )  # fmt: skip


@dataclass(frozen=True)
class FleetSweep:
    """One fleet experiment's scenarios, each swept over a scale.

    ``axes`` name a scenario's values and ``scale`` its scale (points
    carry the scale tuple under ``scale + "s"``); ``rack(*values, scale,
    devices, tenants, ticks, warmup, seed)`` is one scenario's
    :class:`FleetSpec` at one scale. ``quick`` and ``full`` are the
    default ``_SIZES``.
    """

    axes: tuple[str, ...]
    scale: str
    rack: Callable[..., FleetSpec]
    quick: tuple[int, ...]
    full: tuple[int, ...]

    def points(self, config: ExperimentConfig, scenarios: list[tuple]) -> list[dict]:
        """One work unit per (scenario, shard); a scenario is its axis
        values followed by its scale tuple."""
        defaults = self.quick if config.quick else self.full
        sizes = {name: config.param(name, value) for name, value in zip(_SIZES, defaults)}
        shards = sizes.pop("shards")
        return [
            {
                **dict(zip(self.axes, values)), self.scale + "s": scales,
                "shard": shard, "shards": shards, **sizes, "seed": config.seed,
            }  # fmt: skip
            for *values, scales in scenarios
            for shard in range(shards)
        ]

    def point(self, *, shard, shards, devices, tenants, ticks, warmup, seed, **scenario) -> dict:
        """One shard of one scenario's rack at every scale: a frame per scale."""
        values = [scenario[axis] for axis in self.axes]
        specs = [
            self.rack(*values, scale, devices, tenants, ticks, warmup, seed)
            for scale in scenario[self.scale + "s"]
        ]
        frames = simulate_shard(specs, shard=shard, shards=shards)
        return {**scenario, "shard": shard, "frames": frames}

    def rows(self, points: list[dict], counters: dict[str, str] | None = None) -> list[dict]:
        """A result row per (scenario, scale), in point order: its axes, its
        scale, the :func:`fleet_summary` of its frames merged across
        shards, then ``counters`` (row key -> frame counter)."""
        scenarios: dict[tuple, list[MetricsFrame]] = {}
        for row in points:
            for scale, frame in zip(row[self.scale + "s"], row["frames"]):
                key = (*(row[axis] for axis in self.axes), scale)
                scenarios.setdefault(key, []).append(frame)
        out = []
        for key, frames in scenarios.items():
            merged = MetricsFrame.merge(frames)
            extra = {name: merged.counter(counter) for name, counter in (counters or {}).items()}
            out.append(
                {**dict(zip(self.axes, key)), self.scale: key[-1], **fleet_summary(merged), **extra}
            )
        return out


__all__ = ["FleetSweep", "device_spec", "fleet_spec"]
