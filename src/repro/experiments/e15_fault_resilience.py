"""E15: Fault resilience -- conventional vs ZNS under flash media faults (§2.1).

"SSDs handle media failure ... by remapping data to spare capacity"
(conventional), whereas "ZNS SSDs expose [failure handling] to the host
by decreasing the length of a zone after a reset" or taking the zone
offline outright. Same media adversity, two recovery philosophies:

- the conventional FTL hides every fault behind its mapping table --
  transient program failures are rewritten elsewhere, repeat offenders
  are retired into the spare pool, and the host never learns a thing
  (until the spares run out and the device bricks);
- the ZNS stack surfaces the damage: a failed append degrades the zone
  to READ_ONLY, grown bad blocks shrink zone capacity at the next reset,
  and scheduled media death turns whole zones OFFLINE -- visible events
  the host translation layer must absorb.

This sweep arms one seeded :class:`~repro.faults.plan.FaultPlan` on both
stacks at a ladder of fault-rate scales (0 = fault-free reference) and
measures what each philosophy costs: steady-state write amplification,
read p99 under ECC retry ladders, permanently lost capacity, and whether
the device survived the run at all (``died_at_op``: the host writes it
completed before it ran out of spare capacity). WA and read p99 are
measured over the last pass only; an arm that died before finishing it
reports both as ``None`` rather than a number over a truncated phase.

One program fault degrades a whole ZNS zone READ_ONLY, and the dm-zoned
host relocates the zone's valid pages to reclaim it. Zone-granular
relocation turns program faults into write amplification, and the extra
programs draw more faults: a feedback loop the conventional arm, which
rewrites one page per fault, does not have.

Geometry is pinned to :meth:`FlashGeometry.small` on quick *and* full
runs (full scales the overwrite volume instead) so the plan's scheduled
faults -- grown bad blocks and zone deaths at fixed op indices -- land
mid-life on every run.

E15 is deliberately *not* part of ``run all``: the default suite's
output must stay fault-free and byte-stable.
"""

from __future__ import annotations

import numpy as np

from repro.block.dmzoned import TranslationError
from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec
from repro.faults import FaultPlan
from repro.flash.errors import UncorrectableReadError
from repro.ftl.ftl import GCStuckError
from repro.workloads.synthetic import uniform_array
from repro.zns.zone import ZoneOfflineError

# Fault-tolerant deployments provision spare capacity for media failure
# on top of GC headroom (§2.1/§2.2); the tight-OP corners live in E1.
_OP = 0.18
_READS = 1500


def base_plan(seed: int) -> FaultPlan:
    """The adversity both arms face, before scaling.

    Rates are chosen to stress recovery, not to brick the (small)
    device outright at scale 1; the scale axis explores both directions.
    Scheduled faults sit past the fill phase (~7k programs) so they land
    mid-life: three grown bad blocks and two zone deaths.
    """
    return FaultPlan(
        seed=seed,
        program_fail_prob=0.002,
        erase_fail_prob=0.004,
        read_error_prob=0.02,
        latency_spike_prob=0.001,
        grown_bad_blocks=((9_000, 17), (13_000, 53), (17_000, 90)),
        zone_offline_at=((11_000, 5), (16_000, 23)),
    )


def _arm_spec(arm: str, fault_scale: float, seed: int) -> DeviceSpec:
    """One arm's stack as a spec; the fault plan arms via spec fields.

    ``fault_scale=0`` leaves ``fault_plan`` unset -- the clean reference
    arm has no fault layer at all, exactly as before the factory.
    """
    if arm == "conventional":
        spec = DeviceSpec(
            kind="conventional-ftl", geometry="small", ftl={"op_ratio": _OP}
        )
    else:
        spec = DeviceSpec(
            kind="dmzoned",
            geometry="small",
            blocks_per_zone=2,
            max_active_zones=14,
            # Early reclaim keeps a deeper free-zone buffer, the ZNS-side
            # insurance against degradation bursts stranding the pool.
            zoned_block={
                "op_ratio": _OP,
                "use_simple_copy": True,
                "gc_low_zones": 4,
                "gc_high_zones": 6,
            },
        )
    if fault_scale > 0:
        spec = spec.with_faults(base_plan(seed), fault_scale)
    return spec


def _read_p99(read_one, n: int, seed: int) -> float:
    """p99 latency over _READS uniform reads via ``read_one``."""
    latencies: list[float] = []
    for lpn in uniform_array(n, _READS, seed=seed + 17):
        try:
            latencies.append(read_one(int(lpn)))
        except UncorrectableReadError as exc:
            # ECC ladder exhausted: the data is gone, the time was spent.
            latencies.append(exc.latency_us)
        except (ZoneOfflineError, TranslationError):
            # The lba sat in a zone that died (or was unmapped by an
            # earlier loss); no media latency to account.
            pass
    p99 = float(np.percentile(latencies, 99)) if latencies else 0.0
    return round(p99, 1)


def measure_arm(arm: str, fault_scale: float, quick: bool, seed: int) -> dict:
    """WA / read-tail / capacity-loss for one stack at one fault scale."""
    stack = build_stack(_arm_spec(arm, fault_scale, seed))
    multiple = 2 if quick else 4
    if arm == "conventional":
        ftl = stack
        nand, stats = ftl.nand, ftl.stats
        n = ftl.logical_pages
        write_one = lambda lpn: ftl.write(lpn, build_ops=False)  # noqa: E731
        read_one = lambda lpn: ftl.read(lpn).latency_us  # noqa: E731
        total_blocks = ftl.geometry.total_blocks

        def capacity_lost_pct() -> float:
            return 100.0 * stats.blocks_retired / total_blocks

        def recovered() -> int:
            return stats.program_faults

    else:
        layer = stack
        device = layer.device
        nand, stats = device.nand, layer.stats
        n = layer.logical_pages
        write_one = lambda lpn: layer.write(lpn, build_ops=False)  # noqa: E731
        read_one = lambda lpn: layer.read(lpn)[1].latency_us  # noqa: E731
        zone_count = device.zone_count

        def capacity_lost_pct() -> float:
            return 100.0 * stats.zones_lost / zone_count

        def recovered() -> int:
            return stats.zones_degraded

    # The injector the factory armed (None on the clean reference arm).
    injector = nand.faults
    died = False
    writes_done = 0

    def drive(lpns: np.ndarray) -> bool:
        nonlocal died, writes_done
        for lpn in lpns:
            try:
                write_one(int(lpn))
                writes_done += 1
            except (GCStuckError, TranslationError):
                # Spare capacity (blocks or zones) exhausted: the device
                # reached end-of-life under this fault rate.
                died = True
                return False
        return True

    # Fill, churn to steady state, then measure over one more pass.
    alive = drive(np.arange(n, dtype=np.int64))
    if alive:
        alive = drive(uniform_array(n, (multiple - 1) * n, seed=seed))
    before = nand.counters.snapshot()
    if alive:
        drive(uniform_array(n, n, seed=seed + 1))
    wa = nand.counters.write_amplification(since=before)
    return {
        "arm": arm,
        "fault_scale": fault_scale,
        # Only a completed measured pass gives comparable numbers.
        "write_amplification": None if died else round(wa, 2),
        "read_p99_us": None if died else _read_p99(read_one, n, seed),
        "capacity_lost_pct": round(capacity_lost_pct(), 2),
        "recovered_faults": recovered(),
        "faults_injected": sum(injector.summary().values()) if injector else 0,
        "died": died,
        "died_at_op": writes_done if died else None,
    }


_SCALES = [0.0, 0.5, 1.0, 2.0, 4.0]


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One independent work unit per (stack, fault scale)."""
    scales = config.param("fault_scales", _SCALES)
    return [
        {"arm": arm, "fault_scale": scale, "quick": config.quick, "seed": config.seed}
        for arm in ("conventional", "zns")
        for scale in scales
    ]


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    def pick(arm: str, scale: float) -> dict:
        # Headline anchors (clean, 1x, top of ladder) fall back to the
        # nearest scale actually swept when params override the ladder.
        candidates = [r for r in rows if r["arm"] == arm]
        return min(candidates, key=lambda r: abs(r["fault_scale"] - scale))

    top = max(row["fault_scale"] for row in rows)
    conv, zns = pick("conventional", 1.0), pick("zns", 1.0)
    conv0, zns0 = pick("conventional", 0.0), pick("zns", 0.0)
    return ExperimentResult(
        experiment_id="E15",
        title="Fault resilience: conventional remapping vs ZNS zone degradation",
        paper_claim=(
            "Conventional SSDs hide media failure behind spare remapping; "
            "ZNS surfaces it as shrunken or offline zones the host absorbs "
            "(§2.1)"
        ),
        rows=rows,
        headline={
            "conv_wa_faulted": conv["write_amplification"],
            "conv_wa_clean": conv0["write_amplification"],
            "zns_wa_faulted": zns["write_amplification"],
            "zns_wa_clean": zns0["write_amplification"],
            "conv_read_p99_us": conv["read_p99_us"],
            "zns_read_p99_us": zns["read_p99_us"],
            "conv_capacity_lost_pct": conv["capacity_lost_pct"],
            "zns_capacity_lost_pct": zns["capacity_lost_pct"],
            "max_fault_scale": top,
            "conv_survived_max": not pick("conventional", top)["died"],
            "zns_survived_max": not pick("zns", top)["died"],
        },
        notes=(
            "Same seeded FaultPlan on both stacks (program/erase/read "
            "faults + 3 scheduled grown bad blocks; 2 scheduled zone "
            "deaths on the ZNS arm); geometry pinned small so scheduled "
            "faults land mid-life. Conventional capacity loss = retired "
            "blocks (invisible to the host until GC wedges); ZNS loss = "
            "offline zones (visible, host remaps around them). One "
            "program fault degrades a whole ZNS zone READ_ONLY: "
            "zone-granular relocation turns faults into WA, and the "
            "extra programs into more faults. WA and read p99 are null "
            "for an arm that died before its measured pass; died_at_op "
            "counts the host writes it completed."
        ),
    )


SWEEP = SweepSpec(points=sweep_points, point=measure_arm, combine=combine)


__all__ = ["SWEEP", "base_plan", "measure_arm"]
