"""The per-simulation telemetry session.

``Simulator(seed, telemetry=True)`` attaches one of these as
``sim.telemetry``; it owns trace creation/sampling, the completed-trace
store, the metrics registry, and the windowed time-series recorder. When
telemetry is off, ``sim.telemetry`` is ``None`` and no instrumentation
point does any work beyond one ``is not None`` check.

Instrumentation points call :meth:`TelemetrySession.count`,
:meth:`gauge_set`, and :meth:`gauge_add` rather than touching the
registry directly: each helper updates the named instrument *and* the
windowed series in one call, which is what makes the report CLI's
sum-check possible — per-window counts sum exactly to the counter,
because both are fed by the same call. When a kernel profiler is
attached the helpers also self-time, so the profiler can report the
wall-clock cost of observability itself.
"""

from __future__ import annotations

from heapq import heappush, heapreplace

from repro.telemetry.context import Trace, TraceContext, iter_spans
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.timeseries import (
    DEFAULT_MAX_WINDOWS,
    FIG2C_WINDOW_NS,
    WindowedRecorder,
)


class TelemetrySession:
    """Trace + metrics + time-series state for one simulation run.

    ``sample_interval`` traces every Nth feed frame (1 = all);
    ``max_traces`` caps the completed-trace store so an unbounded run
    cannot exhaust memory — the cap counts *finished* traces, and
    arrivals past it increment ``telemetry.traces_dropped`` (exactly
    once each) instead of being stored. ``window_ns``/``max_windows``
    size the windowed recorder (Fig. 2(c) preset by default; the
    recorder coalesces itself wider on long runs). ``max_exemplars``
    bounds the keep-the-N-slowest trace reservoir behind
    :meth:`tail_exemplars`.
    """

    def __init__(
        self,
        sample_interval: int = 1,
        max_traces: int = 100_000,
        window_ns: int = FIG2C_WINDOW_NS,
        max_windows: int = DEFAULT_MAX_WINDOWS,
        max_exemplars: int = 16,
    ):
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self.sample_interval = int(sample_interval)
        self.max_traces = int(max_traces)
        self.max_exemplars = int(max_exemplars)
        self.metrics = MetricsRegistry()
        self.series = WindowedRecorder(window_ns=window_ns, max_windows=max_windows)
        self.traces: list[Trace] = []
        self._started = 0
        # Keep-the-N-slowest exemplar reservoir: a min-heap of
        # (rtt_ns, -finish_seq, trace) so the fastest kept trace is at
        # the root and evictions are deterministic — a new trace only
        # displaces the root when *strictly* slower, so on rtt ties the
        # earliest-finished trace is retained.
        self._slowest: list[tuple[int, int, Trace]] = []
        self._finish_seq = 0
        # Per-(where, kind) span histograms, cached so the hot path
        # builds each instrument name exactly once per hop identity.
        self._span_hists: dict[tuple[str, str], Histogram] = {}
        # Set by Simulator.attach_profiler(); when present, recording
        # helpers self-time so observability's own cost is attributed.
        self.profiler = None

    # -- instruments + series, updated together ----------------------------

    def count(self, name: str, now: int, amount: int = 1) -> None:
        """Count ``amount`` events on counter ``name`` at time ``now``.

        The counter and the windowed series advance together, so the
        series' per-window values always sum to the counter's total.
        """
        profiler = self.profiler
        if profiler is None:
            self.metrics.counter(name).inc(amount)
            self.series.record_count(name, now, amount)
            return
        begin = profiler.clock()
        self.metrics.counter(name).inc(amount)
        self.series.record_count(name, now, amount)
        profiler.record_telemetry(profiler.clock() - begin)

    def gauge_set(self, name: str, now: int, value: int) -> None:
        """Set gauge ``name`` to ``value`` and sample it into the series."""
        profiler = self.profiler
        if profiler is None:
            self.metrics.gauge(name).set(value)
            self.series.record_sample(name, now, value)
            return
        begin = profiler.clock()
        self.metrics.gauge(name).set(value)
        self.series.record_sample(name, now, value)
        profiler.record_telemetry(profiler.clock() - begin)

    def gauge_add(self, name: str, now: int, delta: int = 1) -> None:
        """Move gauge ``name`` by ``delta`` and sample the new level."""
        profiler = self.profiler
        if profiler is None:
            gauge = self.metrics.gauge(name)
            gauge.add(delta)
            self.series.record_sample(name, now, gauge.value)
            return
        begin = profiler.clock()
        gauge = self.metrics.gauge(name)
        gauge.add(delta)
        self.series.record_sample(name, now, gauge.value)
        profiler.record_telemetry(profiler.clock() - begin)

    # -- traces -------------------------------------------------------------

    # lint: hot-ok(no-alloc-on-hot-path) — pooling is a ROADMAP item
    def start_trace(self, where: str, kind: str, now: int) -> TraceContext | None:
        """Create a context for a new feed frame, honoring sampling."""
        profiler = self.profiler
        begin = profiler.clock() if profiler is not None else 0
        self._started += 1
        if (self._started - 1) % self.sample_interval:
            context = None
        else:
            context = TraceContext(now)
            context.record(where, kind, now)
        if profiler is not None:
            profiler.record_telemetry(profiler.clock() - begin)
        return context

    def finish_trace(self, context: TraceContext, end_ns: int) -> Trace | None:
        """Complete ``context``; stores and returns the frozen trace.

        The ``max_traces`` cap is checked *before* the trace is built:
        a dropped arrival costs one counter increment (counted exactly
        once, in ``telemetry.traces_dropped``) and no
        :meth:`TraceContext.finish` work, and returns ``None``.
        """
        profiler = self.profiler
        begin = profiler.clock() if profiler is not None else 0
        trace: Trace | None
        if context.done:
            trace = None  # already finished (e.g. batched order frames)
        elif len(self.traces) >= self.max_traces:
            context.done = True
            self.metrics.counter("telemetry.traces_dropped").inc()
            trace = None
        else:
            trace = context.finish(end_ns)
            self.traces.append(trace)
            self._observe_tail(trace)
        if profiler is not None:
            profiler.record_telemetry(profiler.clock() - begin)
        return trace

    # The span-histogram name f-string runs once per hop identity
    # (cache miss on the tuple-keyed dict), not per trace.
    # lint: hot-ok(no-string-build-on-hot-path)
    def _observe_tail(self, trace: Trace) -> None:
        """Feed one finished trace into the tail observatory.

        Updates the slowest-trace exemplar heap and the per-(where,
        kind) span histograms, one sample per :func:`iter_spans` span.
        """
        self._finish_seq += 1
        rtt = trace.end_ns - trace.begin_ns
        slowest = self._slowest
        if len(slowest) < self.max_exemplars:
            heappush(slowest, (rtt, -self._finish_seq, trace))
        elif rtt > slowest[0][0]:
            heapreplace(slowest, (rtt, -self._finish_seq, trace))
        span_hists = self._span_hists
        for where, kind, _start_ns, duration_ns in iter_spans(trace):
            key = (where, kind)
            hist = span_hists.get(key)
            if hist is None:
                hist = self.metrics.histogram(f"span.{where}.{kind}_ns")
                span_hists[key] = hist
            hist.record(duration_ns)

    def tail_exemplars(self) -> list[Trace]:
        """The slowest finished traces, slowest first.

        Bounded by ``max_exemplars``; deterministic ordering — ties on
        rtt list the earliest-finished trace first.
        """
        ordered = sorted(self._slowest, key=lambda entry: (-entry[0], -entry[1]))
        return [trace for _, _, trace in ordered]

    def span_histograms(self) -> dict[tuple[str, str], Histogram]:
        """Per-(where, kind) span latency histograms, a snapshot copy."""
        return dict(self._span_hists)

    def to_dict(self) -> dict:
        return {
            "traces": [trace.to_dict() for trace in self.traces],
            "metrics": self.metrics.to_dict(),
            "series": self.series.to_dict(),
        }
