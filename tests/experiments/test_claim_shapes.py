"""The shape of each paper claim, checked against the committed goldens.

Every row is one claim about one experiment's result. Here the claims
are read from ``tests/golden/run_all.json`` and
``tests/golden/run_e15_e16_e17.json``, which store exactly the seed-0
quick results (the nightly workflow byte-compares fresh runs with
them), so no experiment runs. :func:`failed_claims` takes any result
list, e.g. another seed's or ``--full``'s ``run --json`` output.
"""

import json
from pathlib import Path

import pytest

GOLDENS = [
    Path(__file__).resolve().parents[1] / "golden" / name
    for name in ("run_all.json", "run_e15_e16_e17.json")
]
RESULTS = [result for path in GOLDENS for result in json.loads(path.read_text())]


def _column(rows, key, value):
    """``{row[key]: row[value]}`` over the rows that carry both columns."""
    return {r[key]: r[value] for r in rows if key in r and value in r}


def _e1_monotone(h, rows):
    wa = _column(rows, "op_pct", "write_amplification")
    ops = sorted(wa)
    return all(wa[a] >= wa[b] for a, b in zip(ops, ops[1:]))


def _a4_overhead_monotone(h, rows):
    overheads = [r["read_overhead"] for r in rows if isinstance(r["cmt_translation_pages"], int)]
    return len(overheads) > 1 and overheads == sorted(overheads, reverse=True)


def _e14_zns_outlives(h, rows):
    years = [(r["zns_years"], r["conventional_years"]) for r in rows if "zns_years" in r]
    return bool(years) and all(zns > conventional for zns, conventional in years)


def _e10_erase_dominates(h, rows):
    erase = _column(rows, "cell", "erase_us")
    program = _column(rows, "cell", "program_us")
    return bool(erase) and all(erase[c] > program[c] for c in erase)


def _e15_conventional_survives_1x(h, rows):
    (row,) = [r for r in rows if r["arm"] == "conventional" and r["fault_scale"] == 1.0]
    return not row["died"] and row["capacity_lost_pct"] > 0


def _e15_zns_relocation_costs_wa(h, rows):
    # At every faulted scale where both arms finish, ZNS pays more WA.
    wa = {(r["arm"], r["fault_scale"]): r["write_amplification"] for r in rows}
    both = [
        scale
        for (arm, scale), value in wa.items()
        if arm == "zns" and scale > 0 and value is not None
        and wa.get(("conventional", scale)) is not None
    ]
    return bool(both) and all(wa["zns", s] > wa["conventional", s] for s in both)


def _e15_zns_dies_first(h, rows):
    def first_death(arm):
        return min(r["fault_scale"] for r in rows if r["arm"] == arm and r["died"])

    return first_death("zns") < first_death("conventional")


def _e17_managed_under_the_bar(h, rows):
    managed = [r["read_p99_us"] for r in rows if r["arm"] == "zns-managed"]
    return bool(managed) and max(managed) < h["conventional_p99_us"]


# (experiment, claim, predicate over (headline, rows))
CLAIMS = [
    ("T1", "matches the published counts", lambda h, rows: h["exact_match"] is True),
    ("T1", "23% simplified", lambda h, rows: 22.0 <= h["simplified_pct"] <= 24.0),
    ("T1", "59% affected", lambda h, rows: 58.0 <= h["affected_pct"] <= 61.0),
    ("T1", "18% orthogonal", lambda h, rows: 17.0 <= h["orthogonal_pct"] <= 19.0),
    ("E1", "WA improves monotonically with OP", _e1_monotone),
    (
        "E1", "double-digit WA at 0% OP",
        lambda h, rows: _column(rows, "op_pct", "write_amplification")[0.0] > 10.0,
    ),
    (
        "E1", "low single digits at 25% OP",
        lambda h, rows: 2.0 <= _column(rows, "op_pct", "write_amplification")[25.0] <= 3.5,
    ),
    ("E1", "improvement factor", lambda h, rows: h["improvement_factor"] > 4.0),
    ("E2", "~1 GB/TB conventional", lambda h, rows: h["conventional_gb_per_tb"] == 1.0),
    ("E2", "~256 KB/TB ZNS", lambda h, rows: h["zns_kb_per_tb"] == 256.0),
    ("E2", "4096x reduction", lambda h, rows: h["reduction_factor"] == 4096),
    ("E3", "throughput vs 28% OP", lambda h, rows: h["throughput_factor_vs_28pct_op"] > 1.5),
    ("E3", "throughput vs 7% OP", lambda h, rows: h["throughput_factor_vs_7pct_op"] > 4.0),
    (
        "E3", "read latency falls vs 7% OP",
        lambda h, rows: h["read_latency_reduction_vs_7pct_op"] > 40.0,
    ),
    ("E4", "p99 read tail", lambda h, rows: h["p99_tail_factor"] > 2.0),
    ("E4", "p99.9 read tail", lambda h, rows: h["p999_tail_factor"] > 1.5),
    ("E4", "write throughput", lambda h, rows: h["write_throughput_factor"] > 1.5),
    ("E5", "ZNS adds nothing below the app", lambda h, rows: h["zns_device_wa"] < 1.2),
    (
        "E5", "conventional stack pays a tax on top",
        lambda h, rows: h["conventional_device_wa"] > h["zns_device_wa"],
    ),
    ("E5", "reduction factor", lambda h, rows: h["reduction_factor"] > 1.1),
    ("E6", "DIMM premium exceeds 2x", lambda h, rows: h["premium_exceeds_2x"] is True),
    ("E6", "small-DIMM premium", lambda h, rows: h["small_dimm_premium"] > 2.0),
    ("E6", "ZNS saving vs 28% OP", lambda h, rows: h["zns_saving_vs_28pct_op"] > 0.1),
    ("E7", "writes gain nothing from producers", lambda h, rows: h["write_mode_scaling"] < 1.3),
    ("E7", "appends scale out", lambda h, rows: h["append_speedup_at_max_writers"] > 3.0),
    (
        "E8", "dynamic beats static budgets",
        lambda h, rows: h["dynamic_satisfaction"] > h["static_satisfaction"],
    ),
    ("E8", "multiplexing gain", lambda h, rows: h["multiplexing_gain"] > 1.2),
    (
        "E9", "hint ladder is ordered",
        lambda h, rows: h["oracle_wa"] <= h["owner_hint_wa"] <= h["blind_wa"],
    ),
    ("E9", "knowledge strictly helps", lambda h, rows: h["oracle_wa"] < h["blind_wa"]),
    ("E10", "erase ~6x program for TLC", lambda h, rows: h["within_5x_to_7x"] is True),
    ("E10", "erase dearer than program per cell", _e10_erase_dominates),
    ("E11", "host scheduling cuts read tails", lambda h, rows: h["tail_reduction_factor"] > 1.3),
    ("E12", "comparable throughput", lambda h, rows: h["throughput_vs_conventional"] > 0.7),
    ("E12", "simple copy stays off PCIe", lambda h, rows: h["simple_copy_pcie_pages"] == 0),
    ("E12", "host copy crosses PCIe", lambda h, rows: h["host_copy_pcie_pages"] > 0),
    ("E13", "conventional cache WA", lambda h, rows: h["conventional_wa"] > 2.0),
    ("E13", "ZNS cache WA", lambda h, rows: h["zns_wa"] < 1.3),
    ("E13", "erase reduction", lambda h, rows: h["erase_reduction"] > 1.5),
    ("E14", "ZNS extends lifetime for every cell type", _e14_zns_outlives),
    (
        "E14", "QLC clears 5 years only at ZNS-level WA",
        lambda h, rows: h["qlc_5y_viable_only_on_zns"] is True,
    ),
    ("E15", "conventional hides 1x faults and survives", _e15_conventional_survives_1x),
    (
        "E15", "ZNS surfaces faults as lost zones",
        lambda h, rows: all(
            r["capacity_lost_pct"] > 0 for r in rows if r["arm"] == "zns" and r["fault_scale"] > 0
        ),
    ),
    ("E15", "zone-granular relocation costs ZNS more WA", _e15_zns_relocation_costs_wa),
    ("E15", "the WA feedback loop kills ZNS first", _e15_zns_dies_first),
    (
        "E15", "both die at 2x and 4x",
        lambda h, rows: all(r["died"] for r in rows if r["fault_scale"] >= 2.0),
    ),
    ("E16", "ZNS worst tail beats conventional", lambda h, rows: h["zns_win_survives"] is True),
    (
        "E16", "the win survives the hard scenario",
        lambda h, rows: h["zns_p99_hard_us"] < h["conv_p99_hard_us"],
    ),
    (
        "E16", "fleet WA 1.0 on ZNS, above it on conventional",
        lambda h, rows: h["zns_wa_worst"] == 1.0 < h["conv_wa_worst"],
    ),
    ("E17", "naive inline resets lose the win", lambda h, rows: h["naive_loses_win"] is True),
    (
        "E17", "naive loses it by 5 ms per reset",
        lambda h, rows: h["naive_crossover_pressure_us"] <= 5_000.0,
    ),
    (
        "E17", "naive goes worse than conventional at the top",
        lambda h, rows: h["naive_p99_at_top_us"] > h["conventional_p99_us"],
    ),
    ("E17", "the lifecycle layer keeps the win", lambda h, rows: h["managed_keeps_win"] is True),
    ("E17", "managed p99 stays under the bar everywhere", _e17_managed_under_the_bar),
    (
        "A1", "cost-benefit beats greedy under skew",
        lambda h, rows: h["costbenefit_hotcold"] < h["greedy_hotcold"],
    ),
    (
        "A1", "greedy at least as good as FIFO when uniform",
        lambda h, rows: h["greedy_uniform"] <= h["fifo_uniform"],
    ),
    ("A2", "narrow zones reclaim no worse", lambda h, rows: h["narrowest_wa"] <= h["widest_wa"]),
    ("A2", "relocation stays small at every width", lambda h, rows: h["widest_wa"] < 1.5),
    ("A3", "suspension cuts the tail", lambda h, rows: h["tail_reduction_factor"] > 1.5),
    (
        "A3", "finer slicing helps the extreme tail",
        lambda h, rows: rows[-1]["p999_read_us"] < rows[0]["p999_read_us"],
    ),
    (
        "A4", "a starved CMT costs flash reads per host op",
        lambda h, rows: h["tiny_cache_read_overhead"] > 1.5,
    ),
    ("A4", "overhead vanishes as the CMT grows", _a4_overhead_monotone),
    (
        "A5", "conventional checkpoint surcharge at scale",
        lambda h, rows: h["datacenter_conventional_pct_at_1k"] > 50.0,
    ),
    ("A5", "ZNS checkpoint surcharge at scale", lambda h, rows: h["datacenter_zns_pct_at_1k"] < 10),
]


def failed_claims(results: list[dict]) -> list[tuple[str, str]]:
    """``(experiment, claim)`` for every claim ``results`` break, in table order.

    ``results`` are result dicts as ``zns-repro run --json`` writes them;
    claims about experiments absent from them are not checked. A
    predicate that raises (a missing column, say) counts as failed.
    """
    by_id = {result["experiment_id"]: result for result in results}
    failed = []
    for experiment, claim, predicate in CLAIMS:
        if experiment not in by_id:
            continue
        result = by_id[experiment]
        try:
            held = predicate(result["headline"], result["rows"])
        except Exception:
            held = False
        if not held:
            failed.append((experiment, claim))
    return failed


def test_every_golden_experiment_has_a_claim():
    assert {experiment for experiment, _, _ in CLAIMS} == {r["experiment_id"] for r in RESULTS}


@pytest.mark.parametrize(
    ("experiment", "claim"),
    [pytest.param(e, claim, id=f"{e}: {claim}") for e, claim, _ in CLAIMS],
)
def test_claim_shape(experiment, claim):
    assert (experiment, claim) not in failed_claims(RESULTS)


def test_failed_claims_names_a_broken_claim_and_skips_absent_ones():
    (e2,) = [r for r in RESULTS if r["experiment_id"] == "E2"]
    broken = {**e2, "headline": {**e2["headline"], "reduction_factor": 2}}
    assert failed_claims([broken]) == [("E2", "4096x reduction")]
    assert failed_claims([{**e2, "headline": {}}]) == [
        ("E2", "~1 GB/TB conventional"),
        ("E2", "~256 KB/TB ZNS"),
        ("E2", "4096x reduction"),
    ]
    assert failed_claims([]) == []
