"""The §3 literature survey: corpus, taxonomy, and Table 1.

The paper manually classified 104 SSD papers from five years of FAST,
OSDI, SOSP, and MSST into four categories of ZNS impact. The paper
publishes only the aggregate counts; :mod:`repro.survey.corpus`
reconstructs a per-paper record set whose aggregation reproduces Table 1
exactly, seeding it with the papers the text actually names and cites
(marked ``cited=True``) and filling the remainder with synthesized
records (marked ``cited=False``) -- see DESIGN.md §3.
"""

from repro.survey.corpus import PaperRecord, build_corpus
from repro.survey.taxonomy import CATEGORY_DESCRIPTIONS, Category
from repro.survey.table1 import (
    PAPER_TABLE1,
    VENUE_TOTALS,
    aggregate,
    render_table1,
    summary_percentages,
)

__all__ = [
    "CATEGORY_DESCRIPTIONS",
    "Category",
    "PAPER_TABLE1",
    "PaperRecord",
    "VENUE_TOTALS",
    "aggregate",
    "build_corpus",
    "render_table1",
    "summary_percentages",
]
