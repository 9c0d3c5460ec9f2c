"""The unified run report behind ``python -m repro report``.

One invocation builds a system from a :class:`~repro.core.config.
SystemSpec`, runs it with telemetry and the kernel profiler attached,
and assembles everything the other observability pieces produce into a
single self-contained report:

* round-trip statistics and the per-hop decomposition (§4.1);
* instrument summaries — counters, gauge high-watermarks, histograms;
* the Fig. 2-style windowed event series with busiest-window callouts;
* the §4.3 merge-bottleneck analysis, including the merge-backlog
  gauge's high-watermark;
* the kernel profile, with telemetry self-overhead split out;
* an internal consistency check: every count series' per-window values
  must sum exactly to the matching counter (they are fed by the same
  :meth:`~repro.telemetry.session.TelemetrySession.count` call, so a
  mismatch means the recording layer itself is broken).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SystemSpec
from repro.core.merge import MergeAnalysis, analyze_merge
from repro.sim.kernel import MILLISECOND, format_ns
from repro.telemetry import (
    HopDecomposition,
    ProfileReport,
    decompose,
    render_decomposition,
    render_profile,
)


@dataclass(frozen=True)
class SumCheck:
    """Did every count series sum exactly to its counter?"""

    checked: int
    mismatches: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "mismatches": list(self.mismatches),
        }


@dataclass(frozen=True)
class RunReport:
    """Everything one instrumented run produced, ready to render."""

    spec: SystemSpec
    events_executed: int
    roundtrip: dict | None
    decomposition: HopDecomposition | None
    metrics: dict
    series: dict
    busiest_windows: tuple[dict, ...]
    merge: MergeAnalysis
    profile: ProfileReport
    sum_check: SumCheck
    trace_count: int = 0
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        deco = None
        if self.decomposition is not None:
            deco = {
                "trace_count": self.decomposition.trace_count,
                "mean_rtt_ns": self.decomposition.mean_rtt_ns,
                "network_share": self.decomposition.network_share,
                "max_residual_ns": self.decomposition.max_residual_ns,
                "hops": [
                    {
                        "where": row.where,
                        "kind": row.kind,
                        "mean_ns": row.mean_ns,
                        "share": row.share,
                    }
                    for row in self.decomposition.rows
                ],
            }
        return {
            "spec": self.spec.to_dict(),
            "events_executed": self.events_executed,
            "roundtrip": self.roundtrip,
            "decomposition": deco,
            "metrics": self.metrics,
            "series": self.series,
            "busiest_windows": list(self.busiest_windows),
            "merge": {
                "n_feeds": self.merge.n_feeds,
                "offered_frames": self.merge.offered_frames,
                "delivered_frames": self.merge.delivered_frames,
                "dropped_frames": self.merge.dropped_frames,
                "loss_rate": self.merge.loss_rate,
                "mean_queue_delay_ns": self.merge.mean_queue_delay_ns,
                "max_queue_delay_ns": self.merge.max_queue_delay_ns,
                "utilization": self.merge.utilization,
                "backlog_high_watermark_bytes": (
                    self.merge.backlog_high_watermark_bytes
                ),
            },
            "profile": self.profile.to_dict(),
            "sum_check": self.sum_check.to_dict(),
            "trace_count": self.trace_count,
            "notes": list(self.notes),
        }


def _check_sums(recorder, counters: dict) -> SumCheck:
    """Verify per-window counts sum to the matching counters exactly."""
    checked = 0
    mismatches: list[str] = []
    for name in recorder.series_names:
        if recorder.kind(name) != "count":
            continue
        checked += 1
        window_sum = sum(recorder.counts_array(name))
        total = recorder.total(name)
        counter = counters.get(name)
        if window_sum != total:
            mismatches.append(
                f"{name}: windows sum to {window_sum}, series total {total}"
            )
        elif counter != total:
            mismatches.append(
                f"{name}: series total {total}, counter {counter}"
            )
    return SumCheck(checked=checked, mismatches=tuple(mismatches))


def build_report(
    spec: SystemSpec | None = None,
    merge_feeds: int = 12,
    **overrides,
) -> RunReport:
    """Run ``spec`` (telemetry + profiler on) and assemble the report.

    Keyword overrides are applied to the spec as in
    :func:`~repro.core.api.build_system`; telemetry is always forced on
    (:func:`~repro.core.run.telemetry_spec`, which rejects designs that
    pin it off).
    ``merge_feeds`` sizes the companion §4.3 merge-bottleneck run.
    """
    from repro.core.run import execute_spec, roundtrip_summary, telemetry_spec

    spec = telemetry_spec(spec, **overrides)
    executed = execute_spec(spec, profile=True)
    system = executed.system
    sim = system.sim
    profiler = executed.profiler

    telemetry = sim.telemetry
    notes: list[str] = []

    roundtrip = roundtrip_summary(system)
    if roundtrip is None:
        notes.append("no round trips completed; try a longer run_ns")

    decomposition = None
    if telemetry.traces:
        decomposition = decompose(telemetry.traces)
    else:
        notes.append("no completed traces; hop decomposition omitted")

    recorder = telemetry.series
    metrics = telemetry.metrics.to_dict()
    busiest = []
    for name in recorder.series_names:
        if recorder.kind(name) != "count":
            continue
        peak = recorder.busiest(name)
        if peak is None or peak.value == 0:
            continue
        busiest.append(
            {
                "series": name,
                "window_start_ns": peak.start_ns,
                "window_ns": recorder.window_ns,
                "events": peak.value,
                "total": recorder.total(name),
            }
        )
    busiest.sort(key=lambda row: (-row["events"], row["series"]))

    sum_check = _check_sums(recorder, metrics["counters"])

    # The §4.3 companion run: merge bursty feeds through a MergeUnit and
    # report how deep the backlog got (the merge.merge.backlog_bytes
    # gauge high-watermark).
    merge = analyze_merge(
        n_feeds=merge_feeds,
        events_per_feed_per_s=60_000.0,
        duration_ns=10 * MILLISECOND,
        seed=spec.seed,
        telemetry=True,
    )

    return RunReport(
        spec=spec,
        events_executed=sim.events_executed,
        roundtrip=roundtrip,
        decomposition=decomposition,
        metrics=metrics,
        series=recorder.to_dict(),
        busiest_windows=tuple(busiest),
        merge=merge,
        profile=profiler.report(),
        sum_check=sum_check,
        trace_count=len(telemetry.traces),
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class TailReport:
    """Where the tail lives: round-trip tail + per-hop attribution.

    Built from sim-time-derived data only (no profiler, no wall clock),
    so two runs of the same spec render byte-identical reports — the
    property the determinism test pins.
    """

    spec: SystemSpec
    trace_count: int
    roundtrip: dict | None
    span_tails: tuple[dict, ...]
    exemplars: tuple[dict, ...]
    dominant_hop: str | None
    dominant_hop_duration_ns: int = 0
    dominant_hop_share: float = 0.0
    lifecycle: dict = field(default_factory=dict)
    notes: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec.to_dict(),
            "trace_count": self.trace_count,
            "roundtrip": self.roundtrip,
            "span_tails": list(self.span_tails),
            "exemplars": list(self.exemplars),
            "dominant_hop": self.dominant_hop,
            "dominant_hop_duration_ns": self.dominant_hop_duration_ns,
            "dominant_hop_share": self.dominant_hop_share,
            "notes": list(self.notes),
        }
        # Present only for lifecycle-enabled runs, so reports for plain
        # specs serialize exactly as they did before the chaos tier.
        if self.lifecycle:
            out["lifecycle"] = self.lifecycle
        return out


def build_tail_report(spec: SystemSpec | None = None, **overrides) -> TailReport:
    """Run ``spec`` (telemetry on, profiler **off**) and attribute the tail.

    The dominant hop is computed over the slowest kept exemplar traces
    whose rtt reaches the round-trip p99.9: their span durations are
    summed per (where, kind) and the largest total wins — "which hop
    owns the p99.9 round trip".
    """
    from repro.core.run import execute_spec, telemetry_spec

    spec = telemetry_spec(spec, **overrides)
    executed = execute_spec(spec)
    telemetry = executed.system.sim.telemetry
    notes: list[str] = []

    from repro.telemetry.hdr import LogLinearHistogram

    roundtrip = None
    rtt_hist = LogLinearHistogram()
    for trace in telemetry.traces:
        rtt_hist.record(trace.rtt_ns)
    if rtt_hist.count:
        roundtrip = {
            "count": rtt_hist.count,
            "p50_ns": rtt_hist.percentile(0.50),
            "p99_ns": rtt_hist.percentile(0.99),
            "p999_ns": rtt_hist.percentile(0.999),
            "max_ns": rtt_hist.max,
        }
    else:
        notes.append("no completed traces; tail attribution unavailable")

    span_tails = []
    for (where, kind), hist in sorted(telemetry.span_histograms().items()):
        span_tails.append(
            {
                "where": where,
                "kind": kind,
                "count": hist.count,
                "p50_ns": int(hist.percentile(0.50)),
                "p99_ns": int(hist.percentile(0.99)),
                "p999_ns": int(hist.percentile(0.999)),
                "max_ns": hist.max,
            }
        )
    span_tails.sort(key=lambda row: (-row["p999_ns"], row["where"], row["kind"]))

    exemplar_traces = telemetry.tail_exemplars()
    exemplars = []
    for trace in exemplar_traces:
        spans = trace.spans()
        ranked = sorted(
            enumerate(spans), key=lambda pair: (-pair[1].duration_ns, pair[0])
        )
        # Identified by begin time, not trace_id: ids come from a
        # process-global counter and would differ between two identical
        # runs, breaking the report's byte-determinism.
        exemplars.append(
            {
                "begin_ns": trace.begin_ns,
                "rtt_ns": trace.rtt_ns,
                "top_hops": [
                    {
                        "where": span.where,
                        "kind": span.kind,
                        "duration_ns": span.duration_ns,
                    }
                    for _, span in ranked[:3]
                ],
            }
        )

    dominant_hop = None
    dominant_duration = 0
    dominant_share = 0.0
    if roundtrip is not None and exemplar_traces:
        threshold = roundtrip["p999_ns"]
        tail_traces = [
            trace for trace in exemplar_traces if trace.rtt_ns >= threshold
        ] or [exemplar_traces[0]]
        by_hop: dict[tuple[str, str], int] = {}
        tail_total = 0
        for trace in tail_traces:
            for span in trace.spans():
                key = (span.where, span.kind)
                by_hop[key] = by_hop.get(key, 0) + span.duration_ns
                tail_total += span.duration_ns
        (where, kind), duration = max(
            by_hop.items(), key=lambda item: (item[1], item[0])
        )
        dominant_hop = f"{where} [{kind}]"
        dominant_duration = duration
        dominant_share = duration / tail_total if tail_total else 0.0

    controller = getattr(executed.system.sim, "chaos", None)
    lifecycle = controller.summary().get("lifecycle", {}) if controller else {}

    return TailReport(
        spec=spec,
        trace_count=len(telemetry.traces),
        roundtrip=roundtrip,
        span_tails=tuple(span_tails),
        exemplars=tuple(exemplars),
        dominant_hop=dominant_hop,
        dominant_hop_duration_ns=dominant_duration,
        dominant_hop_share=dominant_share,
        lifecycle=lifecycle,
        notes=tuple(notes),
    )


def render_tail_report(report: TailReport, top_hops: int = 10) -> str:
    """Human-readable text rendering of a :class:`TailReport`."""
    spec = report.spec
    lines = [
        f"tail report: {spec.design} seed={spec.seed} "
        f"({format_ns(spec.run_ns)} simulated, {report.trace_count} traces)",
        "=" * 72,
    ]
    if report.roundtrip is not None:
        rt = report.roundtrip
        lines.append(
            f"round trip: p50 {format_ns(int(rt['p50_ns']))}, "
            f"p99 {format_ns(int(rt['p99_ns']))}, "
            f"p99.9 {format_ns(int(rt['p999_ns']))}, "
            f"max {format_ns(int(rt['max_ns']))} (n={rt['count']})"
        )
    if report.span_tails:
        lines.append("")
        lines.append("per-hop span tails (slowest p99.9 first):")
        lines.append(
            f"  {'hop':<36} {'count':>7} {'p50':>10} {'p99':>10} "
            f"{'p99.9':>10} {'max':>10}"
        )
        for row in report.span_tails[:top_hops]:
            hop = f"{row['where']} [{row['kind']}]"
            lines.append(
                f"  {hop:<36} {row['count']:>7} "
                f"{format_ns(row['p50_ns']):>10} {format_ns(row['p99_ns']):>10} "
                f"{format_ns(row['p999_ns']):>10} {format_ns(row['max_ns']):>10}"
            )
    if report.exemplars:
        lines.append("")
        lines.append(f"slowest traces ({len(report.exemplars)} exemplars kept):")
        for exemplar in report.exemplars[:5]:
            hops = ", ".join(
                f"{hop['where']} [{hop['kind']}] {format_ns(hop['duration_ns'])}"
                for hop in exemplar["top_hops"]
            )
            lines.append(
                f"  trace @{format_ns(exemplar['begin_ns'])}: rtt "
                f"{format_ns(exemplar['rtt_ns'])} — {hops}"
            )
    if report.dominant_hop is not None:
        lines.append("")
        lines.append(
            f"dominant hop at p99.9: {report.dominant_hop} "
            f"({format_ns(report.dominant_hop_duration_ns)}, "
            f"{report.dominant_hop_share:.1%} of the slowest round trips)"
        )
    if report.lifecycle:
        lines.append("")
        lines.append("firm lifecycle:")
        for name, machine in report.lifecycle["machines"].items():
            ready = machine["ready_after_ns"]
            ready_text = format_ns(ready) if ready is not None else "never"
            lines.append(
                f"  {name}: {machine['state']} (ready at {ready_text}, "
                f"{len(machine['transitions'])} transitions)"
            )
        lines.append(
            f"  recovery to READY: {format_ns(report.lifecycle['recovery_ns'])} "
            f"across {report.lifecycle['degraded_windows']} degraded window(s)"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def render_report(report: RunReport, top_series: int = 8) -> str:
    """Human-readable multi-section text rendering of ``report``."""
    spec = report.spec
    lines = [
        f"run report: {spec.design} seed={spec.seed} "
        f"({format_ns(spec.run_ns)} simulated, "
        f"{report.events_executed:,} events)",
        "=" * 72,
    ]

    if report.roundtrip is not None:
        rt = report.roundtrip
        lines.append(
            f"round trip: median {format_ns(int(rt['median_ns']))}, "
            f"p99 {format_ns(int(rt['p99_ns']))} (n={rt['count']})"
        )
    if report.decomposition is not None:
        lines.append("")
        lines.append(
            render_decomposition(report.decomposition, title="hop decomposition")
        )

    lines.append("")
    lines.append(f"busiest windows ({format_ns(report.series['window_ns'])} wide):")
    header = f"  {'series':<40} {'window start':>14} {'events':>8} {'total':>10}"
    lines.append(header)
    for row in report.busiest_windows[:top_series]:
        lines.append(
            f"  {row['series']:<40} {format_ns(row['window_start_ns']):>14} "
            f"{row['events']:>8} {row['total']:>10}"
        )
    if not report.busiest_windows:
        lines.append("  (no windowed count series recorded)")

    gauges = report.metrics.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("queue high-watermarks:")
        ranked = sorted(
            gauges.items(), key=lambda item: -item[1]["high_watermark"]
        )
        for name, values in ranked[:top_series]:
            lines.append(f"  {name:<48} {values['high_watermark']:>10}")

    merge = report.merge
    lines.append("")
    lines.append(
        f"merge bottleneck (§4.3, {merge.n_feeds} bursty feeds): "
        f"loss {merge.loss_rate:.2%}, max queue delay "
        f"{format_ns(merge.max_queue_delay_ns)}, backlog high-watermark "
        f"{merge.backlog_high_watermark_bytes} bytes"
    )

    lines.append("")
    lines.append(render_profile(report.profile))

    lines.append("")
    check = report.sum_check
    verdict = "OK" if check.ok else "MISMATCH"
    lines.append(
        f"window-sum check: {check.checked} count series sum exactly to "
        f"their counters [{verdict}]"
    )
    for mismatch in check.mismatches:
        lines.append(f"  !! {mismatch}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
