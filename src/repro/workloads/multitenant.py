"""Bursty multi-tenant demand for active zones.

Models §4.2's scenario: several kernel-bypass applications share one ZNS
SSD's active-zone budget. Each tenant alternates between *idle* and
*burst* phases (a two-state Markov process). During a burst it wants many
zones at once (a compaction, a large ingest); idle, it wants few or none.
The E8 experiment feeds this demand to the allocators in
:mod:`repro.hostio.zonealloc`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.sim.rng import Draws, make_rng


@dataclass(frozen=True)
class TenantDemandEvent:
    """One demand change: at ``time``, ``tenant`` wants ``zones_wanted``."""

    time: int
    tenant: int
    zones_wanted: int


@dataclass(frozen=True)
class BurstyTenant:
    """Parameters of one tenant's on/off demand process.

    Each step, an idle tenant starts a burst with probability
    ``burst_start_prob``; a bursting tenant returns to idle with
    probability ``burst_end_prob``. Demand is ``idle_zones`` while idle
    and ``burst_zones`` while bursting.
    """

    tenant_id: int
    idle_zones: int = 1
    burst_zones: int = 8
    burst_start_prob: float = 0.05
    burst_end_prob: float = 0.25

    def __post_init__(self) -> None:
        if self.idle_zones < 0 or self.burst_zones < self.idle_zones:
            raise ValueError("need 0 <= idle_zones <= burst_zones")
        for p in (self.burst_start_prob, self.burst_end_prob):
            if not 0 < p <= 1:
                raise ValueError("burst probabilities must be in (0, 1]")

    @property
    def mean_demand(self) -> float:
        """Long-run average zones wanted (stationary distribution)."""
        p_burst = self.burst_start_prob / (self.burst_start_prob + self.burst_end_prob)
        return p_burst * self.burst_zones + (1 - p_burst) * self.idle_zones


def demand_trace(
    tenants: list[BurstyTenant],
    steps: int,
    seed: int | np.random.Generator | None = 0,
) -> Iterator[TenantDemandEvent]:
    """Yield demand-change events for all tenants over ``steps`` ticks.

    Events are emitted only when a tenant's demand changes (plus an
    initial event per tenant at t=0), in time order. The ``rng.random()``
    per tenant and step comes from one :class:`~repro.sim.rng.Draws`; a
    generator passed in is settled when the trace ends or is closed.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    draws = Draws(make_rng(seed))
    random = draws.random
    bursting = [False] * len(tenants)
    for i, tenant in enumerate(tenants):
        yield TenantDemandEvent(0, tenant.tenant_id, tenant.idle_zones)
    try:
        for t in range(1, steps):
            for i, tenant in enumerate(tenants):
                if bursting[i]:
                    if random() < tenant.burst_end_prob:
                        bursting[i] = False
                        yield TenantDemandEvent(t, tenant.tenant_id, tenant.idle_zones)
                else:
                    if random() < tenant.burst_start_prob:
                        bursting[i] = True
                        yield TenantDemandEvent(t, tenant.tenant_id, tenant.burst_zones)
    finally:
        draws.settle()


__all__ = ["BurstyTenant", "TenantDemandEvent", "demand_trace"]
