"""Tests for the zns-repro command-line interface.

The autouse ``_isolated_cache_dir`` fixture (tests/conftest.py) points the
result cache at a per-test directory, so cache state never leaks between
tests or into the developer's real ``~/.cache/zns-repro``.
"""

import json

import pytest

from repro.exec import ResultCache
from repro.experiments.base import ExperimentConfig, ExperimentResult
from repro.experiments.cli import _DESCRIPTIONS, main
from repro.experiments.runner import DEFAULT_IDS, MODULES

# Pure-computation experiments that finish in milliseconds.
FAST_IDS = ["T1", "E2", "E6", "E10"]


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in MODULES:
            assert key in out

    def test_descriptions_cover_registry(self):
        assert set(_DESCRIPTIONS) == set(MODULES)


class TestRun:
    def test_run_fast_experiment(self, capsys):
        assert main(["run", "T1"]) == 0
        out = capsys.readouterr().out
        assert "T1:" in out
        assert "finished in" in out

    def test_run_lowercase_id(self, capsys):
        assert main(["run", "e2"]) == 0
        assert "E2:" in capsys.readouterr().out

    def test_seed_flag_accepted(self, capsys):
        assert main(["run", "E10", "--seed", "7"]) == 0
        assert "6.25" in capsys.readouterr().out

    def test_comma_separated_ids_with_jobs(self, capsys):
        assert main(["run", ",".join(FAST_IDS), "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        for key in FAST_IDS:
            assert f"== {key}:" in out

    def test_unknown_experiment_errors(self, capsys):
        assert main(["run", "E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "Traceback" not in err

    def test_unknown_id_in_list_errors(self, capsys):
        assert main(["run", "T1,E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_bad_jobs_value_errors(self, capsys):
        assert main(["run", "E2", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_out_to_unwritable_path_errors(self, capsys):
        assert main(["run", "E2", "--out", "/nonexistent-dir/r.json"]) == 2
        err = capsys.readouterr().err
        assert "cannot write" in err
        assert "Traceback" not in err

    def test_cache_dir_naming_a_file_errors(self, tmp_path, capsys):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        assert main(["run", "E2", "--cache-dir", str(blocker)]) == 2
        err = capsys.readouterr().err
        assert "cache or output path unusable" in err
        assert "Traceback" not in err


class TestCacheFlags:
    def test_second_invocation_cached(self, capsys):
        assert main(["run", "E2"]) == 0
        assert "finished in" in capsys.readouterr().out
        assert main(["run", "E2"]) == 0
        assert "[E2 cached]" in capsys.readouterr().out

    def test_no_cache_always_recomputes(self, capsys):
        assert main(["run", "E2", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["run", "E2", "--no-cache"]) == 0
        assert "cached" not in capsys.readouterr().out

    def test_cache_dir_flag_used(self, tmp_path, capsys):
        cache_dir = tmp_path / "explicit"
        assert main(["run", "E2", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert list(cache_dir.glob("*.json"))
        assert main(["run", "E2", "--cache-dir", str(cache_dir)]) == 0
        assert "[E2 cached]" in capsys.readouterr().out

    def test_full_and_quick_cached_separately(self, capsys):
        assert main(["run", "E2"]) == 0
        capsys.readouterr()
        assert main(["run", "E2", "--full"]) == 0
        assert "finished in" in capsys.readouterr().out


class TestJsonOutput:
    def test_json_parses_and_round_trips(self, capsys):
        assert main(["run", "E2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert isinstance(payload, list) and len(payload) == 1
        result = ExperimentResult.from_dict(payload[0])
        assert result.experiment_id == "E2"
        assert result.to_dict() == payload[0]

    def test_json_multiple_in_order(self, capsys):
        assert main(["run", "T1,E2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["experiment_id"] for entry in payload] == ["T1", "E2"]

    def test_out_writes_file(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        assert main(["run", "E2", "--out", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload[0]["experiment_id"] == "E2"
        # Progress and the file notice go to stderr; stdout keeps tables.
        captured = capsys.readouterr()
        assert str(out_file) in captured.err


class TestRunAll:
    def test_run_all_jobs_from_warm_cache(self, _isolated_cache_dir, capsys):
        # Pre-warm the per-test cache with fabricated results for every
        # experiment so `run all --jobs 2` exercises id expansion, the
        # pooled executor, and cache serving without paying for the slow
        # DES experiments.
        cache = ResultCache(_isolated_cache_dir)
        for key in DEFAULT_IDS:
            cache.put(
                ExperimentConfig(key),
                ExperimentResult(experiment_id=key, title="warm", paper_claim=""),
            )
        assert main(["run", "all", "--jobs", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["experiment_id"] for entry in payload] == list(DEFAULT_IDS)


class TestTelemetry:
    def test_trace_writes_merged_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["run", "E14", "--trace", str(trace)]) == 0
        lines = [json.loads(l) for l in trace.read_text().splitlines()]
        assert lines, "trace file is empty"
        assert {"flash-op", "gc"} <= {entry["event"] for entry in lines}
        # Part files are merged and removed.
        assert list(tmp_path.glob("*.part")) == []
        assert str(trace) in capsys.readouterr().err

    def test_metrics_out_writes_summaries(self, tmp_path, capsys):
        metrics_file = tmp_path / "metrics.json"
        assert main(["run", "E14", "--metrics-out", str(metrics_file)]) == 0
        metrics = json.loads(metrics_file.read_text())
        assert metrics["E14"]["counters"]["flash.nand.program.ops"] > 0

    def test_metrics_out_is_the_same_at_any_jobs(self, tmp_path):
        """Sweep points run in workers under --jobs 2; each returns its
        frame and the parent merges them in point order, so the file is
        byte-identical to the serial one. E1 is the sweep here (E17's
        series carry the point-order merge in CI); E11 warms one layer
        for its three schedulers, so it is one unit at any --jobs and
        its series must come out the same."""
        written = []
        for jobs in ("1", "2"):
            path = tmp_path / f"metrics-{jobs}.json"
            argv = ["run", "E1,E11", "--jobs", jobs, "--no-cache", "--metrics-out", str(path)]
            assert main(argv) == 0
            written.append(path.read_bytes())
        assert written[0] == written[1]
        metrics = json.loads(written[0])
        assert metrics["E1"]["counters"]["flash.nand.program.ops"] > 0
        assert len(metrics["E11"]["series"]["hostio.request.read.queued_us"]) > 0

    def test_fleet_metrics_are_the_same_at_any_jobs(self, monkeypatch):
        """An E17 point covers every management-fault scale of one rack
        shard and warms each device once for all of them; the merged
        metrics (what ``--metrics-out`` writes) are still the same bytes
        at any ``--jobs``."""
        from repro.exec import execute
        from repro.obs import runtime

        monkeypatch.setenv(runtime.METRICS_ENV, "1")
        config = ExperimentConfig(
            "E17",
            params={"pressures": [5_000.0], "devices": 2, "tenants": 2, "ticks": 30, "warmup": 20},
        )
        written = []
        for jobs in (1, 2):
            (record,) = execute([config], jobs=jobs)
            assert record.ok
            written.append(json.dumps(record.result.metrics, sort_keys=True))
        assert written[0] == written[1]
        counters = json.loads(written[0])["counters"]
        assert counters["fleet.request.read.requests"] > 0

    def test_trace_env_restored_after_run(self, tmp_path, monkeypatch):
        import os

        from repro.obs.runtime import TRACE_ENV

        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert main(["run", "E14", "--trace", str(tmp_path / "t.jsonl")]) == 0
        assert TRACE_ENV not in os.environ

    def test_untraced_results_carry_no_metrics(self, capsys):
        assert main(["run", "E14", "--json", "--no-cache"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "metrics" not in payload[0]


class TestFormats:
    def test_markdown_format(self, capsys):
        assert main(["run", "T1", "--format", "markdown"]) == 0
        assert "|" in capsys.readouterr().out

    def test_csv_format(self, capsys):
        assert main(["run", "T1", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "," in out.splitlines()[0]
