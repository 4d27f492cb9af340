"""Measure once: the per-process memo two experiments share a device run through.

E2's DFTL rows are three of A4's quick-size runs, and E14's conventional
WA is E1's 28%-OP point, so ``measurement`` lets whichever experiment
comes first compute them. These tests pin the fact that sharing relies
on, the memo's contract, and that no run order changes an answer.
"""

import json
from pathlib import Path

import pytest

from repro.exec import execute
from repro.experiments import ExperimentConfig
from repro.experiments.a4_dramless import measure_cmt_budget
from repro.experiments.base import measurement
from repro.experiments.e1_wa_vs_op import measure_wa
from repro.experiments.e2_dram import _DFTL_COLUMNS
from repro.obs import runtime

GOLDEN = Path(__file__).resolve().parents[1] / "golden" / "run_all.json"
RESULTS = {r["experiment_id"]: r for r in json.loads(GOLDEN.read_text())}
SHARED = ("E2", "A4", "E14", "E1")


@pytest.fixture(autouse=True)
def cold_memo(monkeypatch):
    """Every test starts with empty memos and metrics collection off."""
    monkeypatch.delenv(runtime.METRICS_ENV, raising=False)
    runtime._reset_for_tests()
    measure_cmt_budget.cache_clear()
    measure_wa.cache_clear()
    yield
    runtime._reset_for_tests()


def test_e2_rows_are_a4_rows_at_the_same_budgets():
    a4 = {row["cmt_kib"]: row for row in RESULTS["A4"]["rows"]}
    e2 = [row for row in RESULTS["E2"]["rows"] if row.get("model") == "dftl-measured"]
    assert len(e2) == 3
    for row in e2:
        assert {k: a4[row["cmt_kib"]][k] for k in _DFTL_COLUMNS} == {
            k: row[k] for k in _DFTL_COLUMNS
        }


class TestMemo:
    @staticmethod
    def counted():
        calls = []

        @measurement
        def measure(size: int, geometry: str = "small", seed: int = 0) -> dict:
            calls.append((size, geometry, seed))
            return {"size": size, "geometry": geometry, "seed": seed}

        return measure, calls

    def test_callers_get_equal_but_distinct_rows(self):
        measure, calls = self.counted()
        first = measure(4)
        first["size"] = -1
        second, third = measure(4), measure(4)
        assert second == third == {"size": 4, "geometry": "small", "seed": 0}
        assert second is not third
        assert len(calls) == 1

    def test_positional_and_keyword_calls_share_an_entry(self):
        measure, calls = self.counted()
        measure(4, "small")
        measure(size=4)
        measure(4, seed=0, geometry="small")
        assert calls == [(4, "small", 0)]
        measure(4, "bench")
        assert len(calls) == 2

    def test_metrics_collection_bypasses_the_memo(self, monkeypatch):
        measure, calls = self.counted()
        measure(4)
        monkeypatch.setenv(runtime.METRICS_ENV, "1")
        measure(4)
        measure(4)
        assert len(calls) == 3

    def test_a4_after_e2_carries_its_own_metrics(self, monkeypatch):
        monkeypatch.setenv(runtime.METRICS_ENV, "1")
        after_e2 = execute([ExperimentConfig("E2"), ExperimentConfig("A4")])[1].result
        alone = execute([ExperimentConfig("A4")])[0].result
        assert alone.metrics["counters"]["flash.nand.program.ops"] > 0
        assert after_e2.metrics == alone.metrics


@pytest.mark.parametrize(
    ("order", "jobs"),
    [
        pytest.param(SHARED, 1, id="serial"),
        pytest.param(SHARED[::-1], 1, id="serial-reversed"),
        pytest.param(SHARED, 2, id="jobs2"),
    ],
)
def test_shared_measurements_keep_golden_bodies(order, jobs):
    records = execute([ExperimentConfig(e) for e in order], jobs=jobs)
    for record in records:
        body = json.loads(json.dumps(record.result.to_dict()))
        assert body == RESULTS[body["experiment_id"]], body["experiment_id"]
