"""The executor under failing and crashing units of work.

A unit that raises yields a structured ErrorResult for itself only: the
rest of the sweep completes and the run reports the loss instead of
dying. A worker that dies breaks the pool; every unit whose output had
not yet arrived is lost as ``WorkerDied``, and the call still returns.

The fault modes are injected through ``tests.exec.faulty_experiments``,
registered under a synthetic id via monkeypatch; pool workers inherit
both (fork) plus the fault-mode env var.
"""

import json

import pytest

from repro.exec import ErrorResult, ResultCache, execute
from repro.experiments import runner
from repro.experiments.base import ExperimentConfig, SweepSpec
from repro.experiments.cli import main
from tests.exec import faulty_experiments as faulty

FAULTY_ID = "E99"
EXPECTED_GOOD_SLOTS = [s for s in range(faulty.POINTS) if s != faulty.BAD_SLOT]


@pytest.fixture
def registered(monkeypatch):
    monkeypatch.setitem(runner.MODULES, FAULTY_ID, faulty)
    monkeypatch.delenv(faulty.MODE_ENV, raising=False)
    return ExperimentConfig(FAULTY_ID)


@pytest.fixture
def registered_whole(monkeypatch):
    monkeypatch.setitem(runner.MODULES, FAULTY_ID, faulty.WHOLE)
    monkeypatch.delenv(faulty.MODE_ENV, raising=False)
    return ExperimentConfig(FAULTY_ID)


def _set_mode(monkeypatch, mode):
    monkeypatch.setenv(faulty.MODE_ENV, mode)


class TestErrorResult:
    def test_from_exception_captures_traceback(self):
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            err = ErrorResult.from_exception(exc, experiment_id="E1")
        assert err.error_type == "RuntimeError"
        assert "boom" in err.message
        assert "RuntimeError: boom" in err.traceback

    def test_json_round_trip(self):
        err = ErrorResult("E1", "ValueError", "bad", "tb", "abcd", 3)
        assert ErrorResult.from_dict(json.loads(json.dumps(err.to_dict()))) == err


def _assert_costs_only_bad_slot(record, config):
    assert record.error is None  # combine still produced a result
    assert not record.ok
    errors = record.result.metrics["errors"]
    assert len(errors) == 1
    assert errors[0]["error_type"] == "ValueError"
    assert errors[0]["point_index"] == faulty.BAD_SLOT
    assert "injected unit failure" in errors[0]["traceback"]
    assert errors[0]["config_hash"] == config.content_hash()[:16]
    # The three surviving points combined normally.
    assert [row["slot"] for row in record.result.rows] == EXPECTED_GOOD_SLOTS


class TestSweepPointFailure:
    def test_raising_point_costs_only_itself(self, registered, monkeypatch):
        _set_mode(monkeypatch, "raise")
        (record,) = execute([registered], jobs=2)
        _assert_costs_only_bad_slot(record, registered)

    def test_serial_raising_point_costs_only_itself(self, registered, monkeypatch):
        _set_mode(monkeypatch, "raise")
        (record,) = execute([registered], jobs=1)
        _assert_costs_only_bad_slot(record, registered)

    def test_serial_whole_run_failure_is_structured(self, registered_whole, monkeypatch):
        _set_mode(monkeypatch, "raise")
        (record,) = execute([registered_whole], jobs=1)
        assert record.error is not None
        assert record.error.error_type == "ValueError"
        assert "FAILED" in record.result.title
        assert record.result.metrics["errors"][0]["error_type"] == "ValueError"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raising_points_fails_the_experiment(self, registered, monkeypatch, jobs):
        def points(config):
            raise ValueError("bad sweep parameters")

        sweep = SweepSpec(points=points, point=faulty.SWEEP.point, combine=faulty.SWEEP.combine)
        monkeypatch.setattr(faulty, "SWEEP", sweep)
        (record,) = execute([registered], jobs=jobs)
        assert record.error is not None
        assert record.error.error_type == "ValueError"
        assert "bad sweep parameters" in record.error.traceback

    def test_failures_never_cached(self, registered, monkeypatch, tmp_path):
        _set_mode(monkeypatch, "raise")
        cache = ResultCache(tmp_path, version="pinned")
        execute([registered], jobs=2, cache=cache)
        monkeypatch.delenv(faulty.MODE_ENV)
        (record,) = execute([registered], jobs=2, cache=cache)
        assert not record.cached and record.ok

    def test_healthy_sweep_unaffected(self, registered):
        (record,) = execute([registered], jobs=2)
        assert record.ok
        assert record.result.headline == {"total": 14, "rows": 4}


class TestWorkerDeath:
    def test_killed_worker_yields_error_and_sweep_completes(
        self, registered, monkeypatch
    ):
        _set_mode(monkeypatch, "kill")
        (record,) = execute([registered], jobs=2)
        assert record.error is None and not record.ok
        errors = record.result.metrics["errors"]
        assert {e["error_type"] for e in errors} == {"WorkerDied"}
        lost = [e["point_index"] for e in errors]
        assert faulty.BAD_SLOT in lost
        # Outputs arrive in slot order: the points that arrived before the
        # pool broke are combined, every later one is lost with it.
        kept = [row["slot"] for row in record.result.rows]
        assert kept == list(range(min(lost)))
        assert kept + lost == list(range(faulty.POINTS))

    def test_whole_experiment_killed_worker(self, registered_whole, monkeypatch):
        _set_mode(monkeypatch, "kill")
        bad, after = execute([registered_whole, ExperimentConfig("E2")], jobs=2)
        assert bad.error is not None
        assert bad.error.error_type == "WorkerDied"
        # E2's output comes after the broken unit's, so it never arrives.
        assert after.error is not None
        assert after.error.error_type == "WorkerDied"


class TestRunConfig:
    """``run_config`` is ``execute`` at ``jobs=1``: same result, and a
    failure raises instead of coming back as a record."""

    def test_healthy_sweep_matches_execute(self, registered):
        (record,) = execute([registered])
        assert runner.run_config(registered).to_dict() == record.result.to_dict()

    def test_partial_sweep_raises_naming_the_point(self, registered, monkeypatch):
        _set_mode(monkeypatch, "raise")
        with pytest.raises(RuntimeError) as info:
            runner.run_config(registered)
        message = str(info.value)
        assert message.startswith(
            f"{FAULTY_ID} point {faulty.BAD_SLOT}: ValueError: injected unit failure\n"
        )
        assert "Traceback" in message

    def test_failed_whole_run_raises(self, registered_whole, monkeypatch):
        _set_mode(monkeypatch, "raise")
        with pytest.raises(RuntimeError, match=f"^{FAULTY_ID}: ValueError: injected"):
            runner.run_config(registered_whole)


def _cli(capsys, jobs):
    code = main(["run", FAULTY_ID, "--jobs", str(jobs), "--no-cache", "--json"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out), captured.err


@pytest.mark.parametrize("jobs", [1, 2])
class TestExitCodes:
    """The CLI's exit codes: 0 clean, 1 failed or partial."""

    def test_clean_run_exits_0(self, registered, capsys, jobs):
        code, payload, err = _cli(capsys, jobs)
        assert code == 0
        assert payload[0]["headline"] == {"total": 14, "rows": 4}
        assert "FAIL" not in err and "PARTIAL" not in err

    def test_raising_point_is_partial(self, registered, monkeypatch, capsys, jobs):
        _set_mode(monkeypatch, "raise")
        code, payload, err = _cli(capsys, jobs)
        assert code == 1
        assert f"PARTIAL {FAULTY_ID}: 1 sweep point(s) failed" in err
        assert [row["slot"] for row in payload[0]["rows"]] == EXPECTED_GOOD_SLOTS

    def test_raising_experiment_fails(self, registered_whole, monkeypatch, capsys, jobs):
        _set_mode(monkeypatch, "raise")
        code, payload, err = _cli(capsys, jobs)
        assert code == 1
        assert f"FAILED {FAULTY_ID}: ValueError" in err
        assert payload == []


def test_killed_worker_exits_1(registered, monkeypatch, capsys):
    # Only a pool has a worker to kill: inline, the unit is this process.
    _set_mode(monkeypatch, "kill")
    code, _, err = _cli(capsys, 2)
    assert code == 1
    assert "WorkerDied" in err
