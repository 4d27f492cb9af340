"""Re-record ``tests/golden/fingerprints.json`` from the rigs in ``tests/test_fingerprints.py``.

    python scripts/fingerprints.py

Runs every rig (a few seconds), prints each ``(rig, key)`` whose value
moved, vanished or is new as ``rig key: old → new`` -- the lines
``test_fingerprint`` fails with -- and rewrites the file. On an unchanged
simulator it prints nothing and leaves the file byte-identical. A moved
value is a physics change: list the printed lines in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from tests.test_fingerprints import RECORD, RIGS, load, moved  # noqa: E402


def main() -> int:
    old = load() if RECORD.exists() else {}
    new = {rig: run() for rig, run in RIGS.items()}
    for rig in sorted(old.keys() | new.keys()):
        for line in moved(rig, old.get(rig, {}), new.get(rig, {})):
            print(line)
    RECORD.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
