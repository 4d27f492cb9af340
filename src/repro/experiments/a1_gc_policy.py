"""A1 (ablation): GC victim-selection policy under skewed traffic.

DESIGN.md calls out victim selection as a load-bearing design choice in
the conventional FTL. Greedy is optimal for uniform traffic but myopic
under skew; cost-benefit ages blocks before judging them; FIFO ignores
validity. The ablation quantifies those folk theorems on our FTL -- and
grounds the paper's §4.1 point that *every* such policy is capped by the
information barrier (compare any column to the E9 oracle).
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec
from repro.ftl.ftl import ConventionalFTL
from repro.workloads.synthetic import fill_then_churn, hot_cold_array, uniform_array


def _steady_wa(ftl: ConventionalFTL, addresses) -> float:
    before = ftl.nand.counters.snapshot()
    ftl.write_pages(addresses)
    return ftl.nand.counters.write_amplification(since=before)


def measure(policy: str, workload: str, quick: bool, seed: int) -> dict:
    ftl = build_stack(
        DeviceSpec(
            kind="conventional-ftl",
            geometry="small" if quick else "bench",
            ftl={"op_ratio": 0.07, "gc_policy": policy},
        )
    )
    n = ftl.logical_pages
    count = (3 if quick else 5) * n
    if workload == "uniform":
        warm = uniform_array(n, n, seed=seed)
        main = uniform_array(n, count, seed=seed + 1)
    else:
        warm = hot_cold_array(n, n, 0.1, 0.9, seed=seed)
        main = hot_cold_array(n, count, 0.1, 0.9, seed=seed + 1)
    fill_then_churn(ftl, warm)
    wa = _steady_wa(ftl, main)
    return {
        "policy": policy,
        "workload": workload,
        "write_amplification": round(wa, 2),
        "wear_imbalance": round(ftl.nand.wear.stats().imbalance, 3),
    }


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One independent work unit per (workload, policy) grid cell."""
    return [
        {"policy": policy, "workload": workload, "quick": config.quick, "seed": config.seed}
        for workload in config.param("workloads", ["uniform", "hot-cold"])
        for policy in config.param("policies", ["greedy", "cost-benefit", "fifo"])
    ]


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    def wa(policy, workload):
        return next(
            r["write_amplification"]
            for r in rows
            if r["policy"] == policy and r["workload"] == workload
        )

    return ExperimentResult(
        experiment_id="A1",
        title="Ablation: GC victim policy x workload skew",
        paper_claim=(
            "Even near-optimal device GC is capped without application "
            "information (§2.4 [43]) -- policies differ, none approaches "
            "the placement oracle"
        ),
        rows=rows,
        headline={
            "greedy_uniform": wa("greedy", "uniform"),
            "greedy_hotcold": wa("greedy", "hot-cold"),
            "costbenefit_hotcold": wa("cost-benefit", "hot-cold"),
            "fifo_uniform": wa("fifo", "uniform"),
        },
        notes="FIFO trades WA for perfectly even wear (see wear_imbalance).",
    )


SWEEP = SweepSpec(points=sweep_points, point=measure, combine=combine)


__all__ = ["SWEEP", "measure"]
