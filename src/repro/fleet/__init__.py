"""repro.fleet: a rack of device stacks behind a tenant-placement front end.

The paper's argument is ultimately a fleet argument -- §2.4's noisy
neighbors and §5's "the interface is the product" claim only bite when
hundreds of tenants share hundreds of devices. This package scales the
single-stack simulations to that setting:

- :mod:`repro.fleet.spec` -- :class:`FleetSpec`, the frozen, hashable
  description of one fleet (device mix, tenants, placement, burstiness);
- :mod:`repro.fleet.placement` -- deterministic tenant-placement
  policies (round-robin / least-loaded / pack);
- :mod:`repro.fleet.rack` -- the per-device serving simulation and the
  shard/merge machinery. Devices shard round-robin across workers, each
  yields a :class:`~repro.obs.frame.MetricsFrame` it booked itself
  (only ``fleet.*`` keys; the device-level event stream is for whoever
  attaches a sink), and because every random stream seeds from the spec
  (never the shard), merged shard frames hold a serial run's counters,
  maxima and latency samples (in shard order) for any shard count.

Entry points: :func:`simulate_shard` for one worker's slice of the
rack (the whole rack at the default one shard), :func:`simulate_device`
for one device, :func:`fleet_summary` for headline WA / tail-latency /
capacity-loss numbers. The simulate functions take one or more specs of
one rack that differ only in device fault plans and return a frame per
spec: each device is warmed once and every spec measures from that
state.
"""

from repro.fleet.placement import assign
from repro.fleet.rack import (
    SERVING_KINDS,
    derive_seed,
    fleet_summary,
    shard_devices,
    simulate_device,
    simulate_shard,
)
from repro.fleet.spec import PLACEMENTS, FleetSpec

__all__ = [
    "PLACEMENTS",
    "SERVING_KINDS",
    "FleetSpec",
    "assign",
    "derive_seed",
    "fleet_summary",
    "shard_devices",
    "simulate_device",
    "simulate_shard",
]
