"""Analysis utilities: windowed statistics, tables, experiment records.

Latency distributions and sample summaries are not here: the one
histogram is :class:`repro.telemetry.hdr.LogLinearHistogram` and the one
sample summary is :func:`repro.timing.latency.summarize`.
"""

from repro.analysis.windows import (
    WindowSummary,
    burstiness_ratio,
    peak_to_median,
    summarize_windows,
)
from repro.analysis.tables import render_table
from repro.analysis.results import ExperimentLog, ExperimentRecord

__all__ = [
    "ExperimentLog",
    "ExperimentRecord",
    "WindowSummary",
    "burstiness_ratio",
    "peak_to_median",
    "render_table",
    "summarize_windows",
]
