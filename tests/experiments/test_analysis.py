"""Tests for the analysis renderers and terminal charts."""

import pytest

from repro.analysis import ascii_bars, ascii_series, to_csv, to_markdown
from repro.experiments.base import ExperimentResult


def sample_result():
    return ExperimentResult(
        experiment_id="EX",
        title="demo",
        paper_claim="claims things",
        rows=[
            {"stack": "conv", "wa": 5.0},
            {"stack": "zns", "wa": 1.1},
        ],
        headline={"factor": 4.545},
        notes="a note",
    )


class TestMarkdown:
    def test_contains_table_and_headline(self):
        md = to_markdown(sample_result())
        assert "| stack | wa |" in md
        assert "| conv | 5 |" in md
        assert "**Measured:**" in md
        assert "factor = 4.545" in md
        assert "*Notes:* a note" in md

    def test_header_suppressible(self):
        md = to_markdown(sample_result(), include_header=False)
        assert "### EX" not in md
        assert "| stack | wa |" in md

    def test_empty_rows(self):
        result = ExperimentResult("X", "t", "c")
        assert "| " not in to_markdown(result, include_header=False)


class TestCsv:
    def test_round_trips_rows(self):
        import csv
        import io

        text = to_csv(sample_result())
        rows = list(csv.DictReader(io.StringIO(text)))
        assert rows[0]["stack"] == "conv"
        assert float(rows[1]["wa"]) == pytest.approx(1.1)

    def test_empty_rows_empty_output(self):
        assert to_csv(ExperimentResult("X", "t", "c")) == ""


class TestCharts:
    def test_series_shape(self):
        chart = ascii_series([0, 7, 11, 25], [19.0, 8.3, 5.4, 2.7],
                             width=30, height=8, x_label="op%", y_label="WA")
        lines = chart.splitlines()
        assert len(lines) == 8 + 3  # grid + header + axis + footer
        assert chart.count("*") >= 3  # points may share a cell
        assert "op%" in chart and "WA" in chart

    def test_series_validation(self):
        with pytest.raises(ValueError):
            ascii_series([1], [1])
        with pytest.raises(ValueError):
            ascii_series([1, 2], [1])
        with pytest.raises(ValueError):
            ascii_series([1, 2], [1, 2], width=2)

    def test_series_flat_line(self):
        chart = ascii_series([0, 1, 2], [5.0, 5.0, 5.0])
        assert "*" in chart  # constant series must not divide by zero

    def test_bars_scale_to_peak(self):
        chart = ascii_bars(["conv", "zns"], [5.0, 1.0], width=10, unit="x")
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 2
        assert "5x" in lines[0]

    def test_bars_validation(self):
        with pytest.raises(ValueError):
            ascii_bars([], [])
        with pytest.raises(ValueError):
            ascii_bars(["a"], [-1.0])
        with pytest.raises(ValueError):
            ascii_bars(["a", "b"], [1.0])

    def test_zero_bar_has_no_hash(self):
        chart = ascii_bars(["a", "b"], [0.0, 2.0])
        assert chart.splitlines()[0].count("#") == 0


class TestCliFormats:
    def test_markdown_format(self, capsys):
        from repro.experiments.cli import main

        assert main(["run", "E2", "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert "| capacity_tb |" in out

    def test_csv_format(self, capsys):
        from repro.experiments.cli import main

        assert main(["run", "E2", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("capacity_tb,")


class TestFigures:
    def test_figures_render_for_supported_ids(self):
        from repro.experiments import ExperimentConfig, run_config
        from repro.experiments.figures import FIGURES, render_figure

        result = run_config(ExperimentConfig("E14"))
        chart = render_figure(result)
        assert "QLC" in chart
        assert set(FIGURES) == {"E1", "E7", "E9", "E14", "E15"}

    def test_unsupported_id_raises(self):
        from repro.experiments.base import ExperimentResult
        from repro.experiments.figures import render_figure

        with pytest.raises(KeyError, match="no figure"):
            render_figure(ExperimentResult("T1", "t", "c"))

    def test_chart_cli_subcommand(self, capsys):
        from repro.experiments.cli import main

        assert main(["chart", "E14"]) == 0
        out = capsys.readouterr().out
        assert "QLC" in out

    def test_chart_cli_unknown_figure(self, capsys):
        from repro.experiments.cli import main

        assert main(["chart", "E2"]) == 2
        assert "no figure" in capsys.readouterr().err
