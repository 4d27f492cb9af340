"""Terminal figures for experiments whose story is a curve or comparison.

``zns-repro chart <ID>`` renders the E-series results as ASCII charts:
the E1 WA-vs-OP curve, the E7 scaling comparison, the E9 knowledge
ladder, and the E14 lifetime bars. Each figure function takes a completed
:class:`~repro.experiments.base.ExperimentResult` (so charting never
re-runs the experiment) and returns a string.
"""

from __future__ import annotations

from repro.analysis.charts import ascii_bars, ascii_series
from repro.experiments.base import ExperimentResult


def chart_e1(result: ExperimentResult) -> str:
    """The WA-vs-overprovisioning curve."""
    xs = [row["op_pct"] for row in result.rows]
    ys = [row["write_amplification"] for row in result.rows]
    return ascii_series(xs, ys, x_label="overprovisioning %", y_label="write amplification")


def chart_e7(result: ExperimentResult) -> str:
    """Throughput vs producer count, write mode vs append."""
    labels = [f"{row['writers']}w/{row['mode']}" for row in result.rows]
    values = [row["krecords_per_s"] for row in result.rows]
    return ascii_bars(labels, values, unit=" krec/s")


def chart_e9(result: ExperimentResult) -> str:
    """The placement-knowledge ladder."""
    labels = [row["placement"] for row in result.rows]
    values = [row["write_amplification"] for row in result.rows]
    return ascii_bars(labels, values, unit="x WA")


def chart_e14(result: ExperimentResult) -> str:
    """Lifetime per cell type, conventional vs ZNS."""
    labels, values = [], []
    # E14 also carries wear-leveling rows; the lifetime chart plots only
    # the cell-endurance table.
    for row in (r for r in result.rows if "cell" in r):
        labels.append(f"{row['cell']}/conv")
        values.append(row["conventional_years"])
        labels.append(f"{row['cell']}/zns")
        values.append(row["zns_years"])
    return ascii_bars(labels, values, unit="y")


def chart_e15(result: ExperimentResult) -> str:
    """WA per stack along the fault-rate ladder; dead devices read 'DEAD'."""
    labels, values = [], []
    for row in result.rows:
        tag = "conv" if row["arm"] == "conventional" else "zns"
        suffix = " DEAD" if row["died"] else ""
        labels.append(f"{tag}@{row['fault_scale']:g}x{suffix}")
        values.append(row["write_amplification"] or 0.0)  # None: died
    return ascii_bars(labels, values, unit="x WA")


#: Experiments with a figure renderer.
FIGURES = {
    "E1": chart_e1,
    "E7": chart_e7,
    "E9": chart_e9,
    "E14": chart_e14,
    "E15": chart_e15,
}


def render_figure(result: ExperimentResult) -> str:
    """Dispatch on experiment id; raises KeyError if no figure exists."""
    try:
        renderer = FIGURES[result.experiment_id]
    except KeyError:
        raise KeyError(
            f"no figure for {result.experiment_id}; have {sorted(FIGURES)}"
        ) from None
    return renderer(result)


__all__ = ["FIGURES", "render_figure"]
