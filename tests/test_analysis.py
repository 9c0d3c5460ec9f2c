"""Tests for the analysis utilities: windows, tables, records."""

import numpy as np
import pytest

from repro.analysis.results import ExperimentLog, ExperimentRecord
from repro.analysis.tables import render_table
from repro.analysis.windows import (
    burstiness_ratio,
    peak_to_median,
    summarize_windows,
)


class TestWindows:
    def test_summary_fields(self):
        counts = np.array([10, 20, 30, 40, 100])
        summary = summarize_windows(counts, window_ns=100_000)
        assert summary.n_windows == 5
        assert summary.total_events == 200
        assert summary.median == 30
        assert summary.maximum == 100
        assert summary.budget_at_peak_ns == pytest.approx(1_000)
        assert summary.budget_at_median_ns == pytest.approx(100_000 / 30)

    def test_empty_and_invalid(self):
        with pytest.raises(ValueError):
            summarize_windows(np.array([]), 100)
        with pytest.raises(ValueError):
            summarize_windows(np.array([1]), 0)

    def test_zero_peak_budget_is_infinite(self):
        summary = summarize_windows(np.array([0, 0]), 100)
        assert summary.budget_at_peak_ns == float("inf")

    def test_peak_to_median(self):
        assert peak_to_median(np.array([1, 2, 10])) == 5.0
        assert peak_to_median(np.array([0, 0, 5])) == float("inf")

    def test_burstiness_poisson_reference(self):
        rng = np.random.default_rng(1)
        poisson = rng.poisson(100, size=10_000)
        assert burstiness_ratio(poisson) == pytest.approx(1.0, abs=0.1)
        assert burstiness_ratio(np.zeros(10)) == 0.0
        clumped = np.concatenate([np.zeros(9_000), np.full(1_000, 1_000)])
        assert burstiness_ratio(clumped) > 100


class TestTables:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])
        assert "long-name" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            render_table([], [])
        with pytest.raises(ValueError):
            render_table(["a"], [["x", "y"]])

    def test_empty_rows_ok(self):
        text = render_table(["a", "b"], [])
        assert "a" in text and "b" in text


class TestExperimentRecords:
    def test_within_band_logic(self):
        record = ExperimentRecord("E", "m", paper_value=100, measured_value=109,
                                  rel_band=0.10)
        assert record.within_band
        assert record.ratio == pytest.approx(1.09)
        out = ExperimentRecord("E", "m", 100, 120, rel_band=0.10)
        assert not out.within_band

    def test_zero_paper_value(self):
        exact = ExperimentRecord("E", "m", 0, 0.0, rel_band=0.01)
        assert exact.within_band
        assert exact.ratio == 1.0
        off = ExperimentRecord("E", "m", 0, 0.5, rel_band=0.01)
        assert not off.within_band
        assert off.ratio == float("inf")

    def test_log_accumulates_and_renders(self):
        log = ExperimentLog()
        log.add("E1", "good", 10, 10.5, rel_band=0.10)
        log.add("E1", "bad", 10, 20, rel_band=0.10)
        assert not log.all_within_band
        assert [r.metric for r in log.failures()] == ["bad"]
        text = log.render("title")
        assert "OUT-OF-BAND" in text and "ok" in text and "title" in text
