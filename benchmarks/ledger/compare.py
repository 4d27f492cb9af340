#!/usr/bin/env python3
"""Compare two ledgers written by ``run.py --out``: ``compare.py A.json B.json``.

For every (workload, end-to-end metric): both medians, how much worse B is
as a share of A's median (the base of every ratio printed here is A), the
bound from ``BENCHMARK.json``, and a verdict:

- ``unresolved`` -- either side's run-to-run spread (distance between the
  first and third quartile of its samples, as a share of their median) is
  wider than the bound, so the pair can show neither a regression nor its
  absence;
- ``worse`` -- B's median is worse than A's by more than the bound;
- ``within`` -- otherwise.

Exact simulated counts and result digests must be identical: a difference
means the change altered physics, whatever the clocks say. Exit code 1 on
any ``worse``, any failed op, or any count or digest that differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

import spec


def spread(samples: list[float]) -> float:
    """Interquartile distance as a share of the median; 0 for a single sample."""
    if len(samples) < 2:
        return 0.0
    first, _, third = statistics.quantiles(samples, n=4)
    return (third - first) / statistics.median(samples)


def verdict(
    a: dict[str, Any], b: dict[str, Any], better: str, bound: float
) -> tuple[float, float, str]:
    """(B worse than A as a share of A's median, wider spread, verdict)."""
    worse_by = (b["median"] - a["median"]) / a["median"]
    if better == "higher":
        worse_by = -worse_by
    wider = max(spread(a["samples"]), spread(b["samples"]))
    if wider > bound:
        return worse_by, wider, "unresolved"
    return worse_by, wider, "worse" if worse_by > bound else "within"


def is_exact(name: str, row: dict[str, Any]) -> bool:
    """Simulated counts repeat exactly; profiler call counts are host-side and may not."""
    return row["unit"] == "count" and not name.endswith(".calls")


def compare(a: dict[str, Any], b: dict[str, Any], declared: dict[str, Any]) -> int:
    bad = 0
    tally = {"within": 0, "worse": 0, "unresolved": 0}
    print(f"A: {a['fingerprint']['git_commit'][:12]} seed {a['seed']}   "
          f"B: {b['fingerprint']['git_commit'][:12]} seed {b['seed']}")
    for name, left in a["workloads"].items():
        if name not in b["workloads"]:
            continue
        right = b["workloads"][name]
        print(f"== {name}: ops failed A {left['ops_failed']}/{left['ops_attempted']}, "
              f"B {right['ops_failed']}/{right['ops_attempted']} ==")
        bad += left["ops_failed"] + right["ops_failed"]
        for metric in declared["end_to_end"]:
            row_a, row_b = left["end_to_end"][metric["name"]], right["end_to_end"][metric["name"]]
            worse_by, wider, word = verdict(row_a, row_b, metric["better"], metric["bound"])
            tally[word] += 1
            print(
                f"  {metric['name']:<12} A {row_a['median']:>10.4f}  B {row_b['median']:>10.4f} "
                f"{metric['unit']:<3} B worse by {worse_by:+7.2%} of A  spread {wider:6.2%}  "
                f"bound {metric['bound']:.0%}  {word}"
            )
        for metric, row_a in left["per_layer"].items():
            row_b = right["per_layer"][metric]
            if is_exact(metric, row_a):
                if row_a["value"] != row_b["value"]:
                    bad += 1
                    print(f"  COUNT DIFFERS {metric}: A {row_a['value']}  B {row_b['value']}")
            elif row_a["value"] or row_b["value"]:
                base = row_a["value"]
                change = (row_b["value"] - base) / base if base else 0.0
                print(
                    f"  {metric:<28} A {row_a['value']:>12.6g}  B {row_b['value']:>12.6g} "
                    f"{row_a['unit']:<6} B-A {change:+7.2%} of A"
                )
        for key in left["digests"].keys() | right["digests"].keys():
            if left["digests"].get(key) != right["digests"].get(key):
                bad += 1
                print(f"  DIGEST DIFFERS {key}")
    bad += tally["worse"]
    print(f"== {tally['within']} within, {tally['worse']} worse, {tally['unresolved']} unresolved; "
          f"{'DISAGREE' if bad else 'agree'} ==")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    ledgers = [json.loads(Path(path).read_text()) for path in argv]
    return compare(*ledgers, spec.load_declarations())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
