"""Print each headline's spread over several runs: ``median [min, max]``.

Give it the ``zns-repro run ... --json`` output of one run per seed:

    for k in 0 1 2 3 4; do
        zns-repro run all --seed $k --jobs 2 --json --no-cache > all_s$k.json
    done
    python scripts/claim_spread.py all_s*.json

Every numeric headline of every experiment gets one line; a boolean
headline prints how many runs held it. Nested and text headlines are
skipped. EXPERIMENTS.md's spread is pasted from this output.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def spread(runs: list[list[dict]]) -> list[str]:
    """One line per headline, experiments and keys in first-seen order."""
    values: dict[str, dict[str, list]] = {}
    for results in runs:
        for result in results:
            keys = values.setdefault(result["experiment_id"], {})
            for key, value in result["headline"].items():
                keys.setdefault(key, []).append(value)
    lines = []
    for experiment, keys in values.items():
        for key, seen in keys.items():
            if all(isinstance(v, bool) for v in seen):
                lines.append(f"{experiment} {key}: true in {sum(seen)} of {len(seen)}")
            elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seen):
                median = statistics.median(seen)
                lines.append(f"{experiment} {key}: {median:g} [{min(seen):g}, {max(seen):g}]")
    return lines


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    runs = [json.loads(Path(path).read_text()) for path in paths]
    print("\n".join(spread(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
