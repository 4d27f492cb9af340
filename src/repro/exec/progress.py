"""Structured progress reporting for experiment execution.

One line per experiment start and finish (with duration and cache
provenance) plus a wall-clock summary, written to a stream of the
caller's choice -- the CLI points it at stderr so ``--json`` output on
stdout stays machine-parseable.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, TextIO

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.errors import ErrorResult
    from repro.exec.pool import ExecutionRecord
    from repro.experiments.base import ExperimentConfig


class ProgressReporter:
    """Per-experiment start/finish lines and a final summary."""

    def __init__(self, stream: TextIO | None = None, enabled: bool = True):
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled

    def _emit(self, line: str) -> None:
        if self.enabled:
            print(line, file=self.stream, flush=True)

    def started(self, config: "ExperimentConfig", index: int, total: int) -> None:
        mode = "full" if config.full else "quick"
        self._emit(
            f"[{index + 1:>2}/{total}] {config.experiment_id:<4} start "
            f"({mode}, seed={config.seed})"
        )

    def failed(
        self, config: "ExperimentConfig", error: "ErrorResult", index: int, total: int
    ) -> None:
        self._emit(f"[{index + 1:>2}/{total}] FAIL {error.describe()}")

    def unit_finished(
        self, config: "ExperimentConfig", index: int, total: int, done_units: int, total_units: int
    ) -> None:
        """One sweep point (e.g. one fleet shard) of one experiment landed.

        The executor collects points in slot order, so ``done_units``
        runs 1..``total_units`` once per experiment.
        """
        self._emit(
            f"[{index + 1:>2}/{total}] {config.experiment_id:<4} "
            f"point {done_units}/{total_units}"
        )

    def finished(self, record: "ExecutionRecord", index: int, total: int) -> None:
        provenance = " (cached)" if record.cached else ""
        self._emit(
            f"[{index + 1:>2}/{total}] {record.config.experiment_id:<4} done "
            f"in {record.duration_s:.2f}s{provenance}"
        )

    def summary(self, records: list["ExecutionRecord"], wall_s: float) -> None:
        cached = sum(1 for r in records if r.cached)
        computed = len(records) - cached
        failed = sum(1 for r in records if not r.ok)
        tail = f", {failed} FAILED" if failed else ""
        self._emit(
            f"== {len(records)} experiment(s) in {wall_s:.1f}s wall-clock: "
            f"{computed} computed, {cached} from cache{tail} =="
        )


class NullReporter(ProgressReporter):
    """A reporter that swallows everything (library callers, tests)."""

    def __init__(self) -> None:
        super().__init__(stream=None, enabled=False)


__all__ = ["NullReporter", "ProgressReporter"]
