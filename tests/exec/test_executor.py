"""Tests for the serial/pooled executor: ordering, identity, cache reuse."""

import io

import pytest

from repro.exec import (
    ExecutionRecord,
    NullReporter,
    ProgressReporter,
    ResultCache,
    execute,
)
from repro.experiments.base import ExperimentConfig

# Experiments chosen for speed: T1/E2/E6/E10 are pure-computation tables
# (~milliseconds); E9 is the cheapest sweep-style experiment.
FAST_IDS = ["T1", "E2", "E6", "E10"]


class TestSerial:
    def test_records_in_input_order(self):
        configs = [ExperimentConfig(i) for i in FAST_IDS]
        records = execute(configs, jobs=1)
        assert [r.config.experiment_id for r in records] == FAST_IDS
        assert all(isinstance(r, ExecutionRecord) for r in records)
        assert all(not r.cached for r in records)
        assert all(r.result.experiment_id == r.config.experiment_id for r in records)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            execute([ExperimentConfig("E2")], jobs=0)

    def test_execute_wrapper(self):
        records = execute([ExperimentConfig("E2")])
        assert records[0].result.headline["reduction_factor"] == 4096


class TestCacheIntegration:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path, version="pinned")
        configs = [ExperimentConfig(i) for i in FAST_IDS]
        first = execute(configs, jobs=1, cache=cache)
        second = execute(configs, cache=ResultCache(tmp_path, version="pinned"))
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        assert [r.result for r in first] == [r.result for r in second]

    def test_cache_disabled_recomputes(self):
        records = execute([ExperimentConfig("E2")], jobs=1, cache=None)
        assert not records[0].cached

    def test_partial_cache_mixes(self, tmp_path):
        cache = ResultCache(tmp_path, version="pinned")
        execute([ExperimentConfig("E2")], jobs=1, cache=cache)
        records = execute(
            [ExperimentConfig("E2"), ExperimentConfig("E6")], jobs=1, cache=cache
        )
        assert records[0].cached
        assert not records[1].cached


class TestPooled:
    def test_parallel_matches_serial(self):
        configs = [ExperimentConfig(i) for i in FAST_IDS]
        serial = execute(configs, jobs=1)
        pooled = execute(configs, jobs=2)
        assert [r.result for r in serial] == [r.result for r in pooled]

    def test_sweep_fan_out_matches_serial(self):
        # E9 publishes a SWEEP, so its points are separate units of work,
        # combined in the parent -- jobs>1 runs them in workers, and the
        # results must be bit-identical to the inline run.
        config = ExperimentConfig("E9")
        serial = execute([config], jobs=1)
        pooled = execute([config], jobs=4)
        assert serial[0].result == pooled[0].result

    def test_pooled_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path, version="pinned")
        configs = [ExperimentConfig(i) for i in FAST_IDS]
        execute(configs, jobs=2, cache=cache)
        again = execute(configs, jobs=2, cache=ResultCache(tmp_path, version="pinned"))
        assert all(r.cached for r in again)


class TestProgressReporting:
    def test_reporter_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        execute([ExperimentConfig("E2")], jobs=1, reporter=reporter)
        out = stream.getvalue()
        assert "E2" in out
        assert "start" in out
        assert "done in" in out
        assert "1 experiment(s)" in out

    def test_cached_marked_in_report(self, tmp_path):
        cache = ResultCache(tmp_path, version="pinned")
        execute([ExperimentConfig("E2")], jobs=1, cache=cache)
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        execute([ExperimentConfig("E2")], jobs=1, cache=cache, reporter=reporter)
        assert "cached" in stream.getvalue()

    def test_null_reporter_is_silent(self, capsys):
        execute([ExperimentConfig("E2")], jobs=1, reporter=NullReporter())
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
