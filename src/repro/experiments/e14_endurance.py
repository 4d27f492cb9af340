"""E14: Endurance and the QLC-enablement argument (§1, §2.5).

"Write amplification reduces device lifetime by using excess
write-and-erase cycles" (§1); "ZNS SSDs are a crucial building block for
deploying QLC flash and realizing significant cost savings" (§2.5, a
hyperscaler quoted by the authors).

We *measure* the write amplification each interface imposes on the same
random-overwrite workload (rather than assuming one), then run the
endurance arithmetic across cell technologies at 1 DWPD. The claim's
shape: QLC (and PLC) clear a 5-year deployment bar only at ZNS-level WA.

Endurance is not only mean cycles -- it is also how evenly they are
spent. A second sweep drives the same FTL under skewed (hot/cold)
traffic with each wear-leveling policy and measures the erase-count
spread: ``none`` and ``dynamic`` leave cold blocks pinned at zero wear
while the hot region cycles, ``static`` pays migration copies to cap
the spread. The spare-pool report ties both to the grown-bad-block
margin the same spare capacity must also cover.
"""

from __future__ import annotations

import numpy as np

from repro.block.factory import DeviceSpec, build_stack
from repro.cost.lifetime import qlc_enablement_table
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.experiments.e1_wa_vs_op import measure_wa
from repro.ftl.wearlevel import WL_POLICIES, spare_report
from repro.workloads.synthetic import fill_then_churn, hot_cold_array


def _wearlevel_spec(wl_policy: str, quick: bool) -> DeviceSpec:
    return DeviceSpec(
        kind="conventional-ftl",
        geometry="small" if quick else "bench",
        ftl={"op_ratio": 0.11},
        wl_policy=wl_policy,
    )


def measure_wearlevel(wl_policy: str, quick: bool, churn: np.ndarray) -> dict:
    """Erase-spread and WA for one policy after ``churn``'s overwrites."""
    ftl = build_stack(_wearlevel_spec(wl_policy, quick))
    fill_then_churn(ftl, churn)
    report = spare_report(ftl)
    return {
        "measurement": "wear-leveling",
        **report,
        "write_amplification": round(ftl.nand.counters.write_amplification(), 3),
        "gc_runs": ftl.stats.gc_runs,
    }


@experiment("E14")
def run(config: ExperimentConfig) -> ExperimentResult:
    quick = config.quick
    seed = config.seed
    geometry = "small" if quick else "bench"
    # Conventional: measured at 28% OP (the endurance-friendly config).
    conventional = measure_wa(0.28, geometry, 2.0 if quick else 4.0, seed)
    conventional_wa = conventional["write_amplification"]
    # Zone-native stacks measure ~1.1x in E5/E13; use that figure.
    zns_wa = 1.1
    # QLC targets read-heavy capacity tiers; 0.5 DWPD is its duty profile.
    rows = qlc_enablement_table(
        conventional_wa=conventional_wa, zns_wa=zns_wa, dwpd=0.5
    )
    qlc = next(r for r in rows if r["cell"] == "QLC")
    tlc = next(r for r in rows if r["cell"] == "TLC")
    # 10% of pages take 90% of writes: the cold 90% pins its blocks at
    # zero erases unless the policy forcibly migrates them. The policy
    # does not change the exported capacity, so every arm replays one
    # churn, drawn once.
    n = build_stack(_wearlevel_spec(WL_POLICIES[0], quick)).logical_pages
    churn = hot_cold_array(n, (4 if quick else 6) * n, seed=seed)
    wl_rows = [measure_wearlevel(p, quick, churn) for p in WL_POLICIES]
    spreads = {r["wl_policy"]: r["erase_spread"] for r in wl_rows}
    rows = rows + wl_rows
    return ExperimentResult(
        experiment_id="E14",
        title="Device lifetime at 0.5 DWPD: measured WA x cell endurance",
        paper_claim=(
            "WA spends endurance (§1); ZNS is what makes low-endurance QLC "
            "deployable at scale (§2.5)"
        ),
        rows=rows,
        headline={
            "conventional_wa_measured": round(conventional_wa, 2),
            "zns_wa": zns_wa,
            "qlc_years_conventional": qlc["conventional_years"],
            "qlc_years_zns": qlc["zns_years"],
            "qlc_5y_viable_only_on_zns": (
                not qlc["conventional_5y_viable"] and qlc["zns_5y_viable"]
            ),
            "tlc_years_conventional": tlc["conventional_years"],
            "erase_spread_by_policy": spreads,
            "wl_policy_changes_spread": len(set(spreads.values())) > 1,
            "static_caps_spread": spreads["static"] <= min(
                spreads["none"], spreads["dynamic"]
            ),
        },
        notes=(
            "0.5 DWPD (the read-heavy capacity-tier profile QLC targets); "
            "conventional WA measured on the FTL at 28% OP, its most "
            "endurance-friendly config, with the OP lifetime credit "
            "granted. Lifetime = endurance / (DWPD x WA / (1+OP)) / 365. "
            "Wear-leveling rows: hot/cold (10%/90%) overwrites; the "
            "erase-count spread is the lifetime-relevant tail, since the "
            "device fails on its most-worn block."
        ),
    )


__all__ = ["run"]
