"""Tests for the survey corpus and Table 1 aggregation."""

import pytest

from repro.survey.corpus import TABLE1_COUNTS, PaperRecord, build_corpus
from repro.survey.table1 import (
    PAPER_TABLE1,
    VENUE_TOTALS,
    aggregate,
    matches_paper,
    render_table1,
    summary_percentages,
)
from repro.survey.taxonomy import (
    CATEGORY_DESCRIPTIONS,
    TOPIC_CATEGORIES,
    Category,
)


class TestTaxonomy:
    def test_four_categories(self):
        assert len(Category) == 4
        assert {c.value for c in Category} == {"Simpl", "Appr", "Res", "Orth"}

    def test_all_categories_described(self):
        assert set(CATEGORY_DESCRIPTIONS) == set(Category)

    def test_classify_known_topics(self):
        assert TOPIC_CATEGORIES["gc-interference"] is Category.SIMPLIFIED
        assert TOPIC_CATEGORIES["flash-cache"] is Category.APPROACH
        assert TOPIC_CATEGORIES["reliability-study"] is Category.RESULTS
        assert TOPIC_CATEGORIES["flash-security"] is Category.ORTHOGONAL


class TestCorpus:
    def test_size_is_104(self):
        assert len(build_corpus()) == 104

    def test_topics_consistent_with_categories(self):
        for record in build_corpus():
            assert TOPIC_CATEGORIES[record.topic] is record.category

    def test_years_in_survey_window(self):
        assert all(2016 <= r.year <= 2020 for r in build_corpus())

    def test_venues_are_surveyed_ones(self):
        assert {r.venue for r in build_corpus()} == {"FAST", "OSDI", "SOSP", "MSST"}

    def test_cited_records_present(self):
        cited = [r for r in build_corpus() if r.cited]
        titles = " ".join(r.title for r in cited)
        assert "FEMU" in titles
        assert "LinnOS" in titles
        assert "CacheLib" in titles
        assert len(cited) >= 15

    def test_titles_unique(self):
        titles = [r.title for r in build_corpus()]
        assert len(titles) == len(set(titles))


class TestTable1:
    def test_aggregation_matches_published_table(self):
        assert matches_paper()
        assert aggregate() == PAPER_TABLE1

    def test_headline_percentages(self):
        pct = summary_percentages()
        assert pct["simplified_pct"] == pytest.approx(23.0, abs=0.5)
        assert pct["affected_pct"] == pytest.approx(59.6, abs=0.5)
        assert pct["orthogonal_pct"] == pytest.approx(17.3, abs=0.5)

    def test_venue_totals_sum_to_465(self):
        assert sum(VENUE_TOTALS.values()) == 465

    def test_render_contains_totals_row(self):
        text = render_table1()
        assert "Total" in text
        assert "465" in text
        assert "24" in text and "17" in text and "45" in text and "18" in text

    def test_aggregate_rejects_foreign_venues(self):
        foreign = [PaperRecord("X", "NSDI", 2020, "flash-cache", Category.APPROACH)]
        with pytest.raises(ValueError):
            aggregate(foreign)

    def test_counts_consistency(self):
        # TABLE1_COUNTS is the same data PAPER_TABLE1 holds, keyed by enum.
        for venue, counts in TABLE1_COUNTS.items():
            for category, count in counts.items():
                assert PAPER_TABLE1[venue][category.value] == count
