"""Correctness checks: every violation is a failed op, never a crash.

Three references, none of them the code under measurement:

- ``tests/golden/run_all.json`` -- at seed 0 a default-params result must
  equal its entry and a params-subset result's rows must each appear
  verbatim in it, so a physics change that regenerates the golden carries
  the benchmark with it. At other seeds only the rows' shape is compared.
- result digests -- the same config gives the same bytes on every pass and
  for every ``jobs`` value.
- a plain dict -- what ``lsm_readmix`` must read back.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from spec import ROOT

GOLDEN_PATH = ROOT / "tests" / "golden" / "run_all.json"


def load_golden() -> dict[str, dict]:
    """Golden entries by experiment id."""
    return {entry["experiment_id"]: entry for entry in json.loads(GOLDEN_PATH.read_text())}


def _canonical(payload: dict) -> str:
    """``ExperimentResult.to_dict()`` minus telemetry, as deterministic JSON."""
    body = {key: value for key, value in payload.items() if key != "metrics"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def result_digest(payload: dict) -> str:
    """sha256 of ``ExperimentResult.to_dict()`` minus ``metrics``."""
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def check_result(payload: dict, params: dict, seed: int, golden: dict[str, dict]) -> str | None:
    """Why ``payload`` is wrong against the golden, or None.

    Experiments without a golden entry (E16, E17) rely on the digest rules.
    """
    entry = golden.get(payload["experiment_id"])
    if entry is None:
        return None
    body = json.loads(_canonical(payload))  # JSON types, as the golden stores them
    if seed != 0:
        shapes = {frozenset(row) for row in entry["rows"]}
        odd = sum(frozenset(row) not in shapes for row in body["rows"])
        return f"{odd} row(s) with columns the golden has not" if odd else None
    if not params:
        return None if body == entry else "result differs from its golden entry"
    missing = sum(row not in entry["rows"] for row in body["rows"])
    if missing or not body["rows"]:
        return f"{missing} of {len(body['rows'])} row(s) not in the golden entry"
    return None


def check_records(
    records: list, params_by_id: dict[str, dict], seed: int
) -> tuple[dict[str, str | None], dict[str, str]]:
    """One op per executed config: (failure reason or None, result digest) by id."""
    golden = load_golden()
    ops: dict[str, str | None] = {}
    digests: dict[str, str] = {}
    for record in records:
        experiment_id = record.config.experiment_id
        payload = record.result.to_dict()
        digests[experiment_id] = result_digest(payload)
        if not record.ok:
            ops[experiment_id] = f"execution failed: {record.result.notes}"
        else:
            ops[experiment_id] = check_result(
                payload, params_by_id[experiment_id], seed, golden
            )
    return ops, digests


def digest_mismatches(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    """Ids present in both whose digests differ."""
    return sorted(key for key in reference.keys() & other.keys() if reference[key] != other[key])


class DictModel:
    """What an LSM store must return, kept in a plain dict.

    One op per checked ``get``/``scan``; a wrong answer or a raised
    exception is a failed op, and the first one is kept for the report.
    """

    def __init__(self) -> None:
        self.data: dict[int, int] = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def put(self, key: int, value: int) -> None:
        self.data[key] = value

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what

    def check_get(self, key: int, got: Any) -> None:
        self.attempted += 1
        want = self.data.get(key)
        if got != want:
            self.fail(f"get({key}) returned {got!r}, model has {want!r}")

    def check_scan(self, lo: int, hi: int, got: Any) -> None:
        self.attempted += 1
        data = self.data
        want = [(key, data[key]) for key in range(lo, hi + 1) if key in data]
        if got != want:
            self.fail(f"scan({lo}, {hi}) returned {len(got)} pairs, model has {len(want)}")
