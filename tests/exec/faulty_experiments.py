"""Registry-shaped experiment modules that misbehave on command.

Tests monkeypatch these into ``repro.experiments.runner.MODULES`` under a
synthetic id. Pool workers are forked on Linux, so the patched registry
and the fault-mode environment variables propagate into workers without
any pickling of the modules themselves.
"""

from __future__ import annotations

import os
import signal

from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec

#: How the designated bad unit misbehaves: "" (healthy), "raise", or
#: "kill" (SIGKILL its own worker process).
MODE_ENV = "REPRO_TEST_FAULT_MODE"

POINTS = 4
BAD_SLOT = 2


def _misbehave() -> None:
    mode = os.environ.get(MODE_ENV, "")
    if mode == "raise":
        raise ValueError("injected unit failure")
    if mode == "kill":
        os.kill(os.getpid(), signal.SIGKILL)


def _points(config: ExperimentConfig) -> list[dict]:
    return [{"slot": slot} for slot in range(POINTS)]


def _point(slot: int) -> dict:
    if slot == BAD_SLOT:
        _misbehave()
    return {"slot": slot, "value": slot * slot}


def _combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    return ExperimentResult(
        experiment_id=config.experiment_id,
        title="sweep under fault injection",
        paper_claim="",
        rows=rows,
        headline={"total": sum(row["value"] for row in rows), "rows": len(rows)},
    )


SWEEP = SweepSpec(points=_points, point=_point, combine=_combine)


class _WholeModule:
    """A registry entry without a SWEEP: the whole run misbehaves."""

    @staticmethod
    def run(config: ExperimentConfig) -> ExperimentResult:
        _misbehave()
        return ExperimentResult(
            experiment_id=config.experiment_id,
            title="whole-experiment unit",
            paper_claim="",
            headline={"ok": 1},
        )


WHOLE = _WholeModule()
