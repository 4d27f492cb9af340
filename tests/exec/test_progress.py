"""Tests for per-unit progress accounting: exactly-once, monotone, bounded.

The executor collects each sweep's points in slot order, so every
(experiment, slot) is reported once and the count runs 1..total.
"""

import io

from repro.exec import NullReporter, ProgressReporter, execute
from repro.experiments.base import ExperimentConfig


class RecordingReporter(NullReporter):
    """Captures unit_finished calls; swallows everything else."""

    def __init__(self) -> None:
        super().__init__()
        self.units: list[tuple[str, int, int, int]] = []

    def unit_finished(self, config, index, total, done_units, total_units):
        self.units.append((config.experiment_id, index, done_units, total_units))


class TestUnitAccounting:
    def test_pooled_sweep_reports_each_point_exactly_once(self):
        # E9 is the cheapest sweep; jobs>1 fans its points out as units.
        reporter = RecordingReporter()
        execute([ExperimentConfig("E9")], jobs=2, reporter=reporter)
        assert reporter.units, "pooled sweep must report per-unit progress"
        assert {experiment_id for experiment_id, _, _, _ in reporter.units} == {"E9"}
        totals = {total for _, _, _, total in reporter.units}
        assert len(totals) == 1
        (total,) = totals
        done = [done for _, _, done, _ in reporter.units]
        # Exactly-once: every count 1..total appears once, in order.
        assert done == list(range(1, total + 1))

    def test_multiple_sweeps_account_independently(self):
        reporter = RecordingReporter()
        configs = [ExperimentConfig("E9"), ExperimentConfig("E9", seed=1)]
        execute(configs, jobs=2, reporter=reporter)
        for config_index in (0, 1):
            done = sorted(
                done
                for _, index, done, _ in reporter.units
                if index == config_index
            )
            totals = {
                total
                for _, index, _, total in reporter.units
                if index == config_index
            }
            (total,) = totals
            # Each config's counter runs 1..total with no repeats, even
            # though both configs' units interleave in one pool.
            assert done == list(range(1, total + 1))


class TestReporterLines:
    def test_unit_finished_line_format(self):
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream)
        reporter.unit_finished(ExperimentConfig("E16"), 0, 3, 2, 24)
        line = stream.getvalue()
        assert "E16" in line
        assert "point 2/24" in line
        assert line.startswith("[ 1/3]")

    def test_null_reporter_swallows_unit_lines(self, capsys):
        NullReporter().unit_finished(ExperimentConfig("E9"), 0, 1, 1, 4)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ""
