"""Telemetry: tracing + metrics, exactly accounted and zero-cost when off."""

import pytest

from repro.core import build_system
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.telemetry import (
    NETWORK_KINDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TelemetrySession,
    TraceContext,
    TraceEvent,
    decompose,
    read_traces_jsonl,
    render_decomposition,
    write_traces_jsonl,
)
from repro.telemetry.chrometrace import build_chrome_trace
from repro.telemetry.context import iter_spans


@pytest.fixture(scope="module")
def traced_design1():
    system = build_system(design="design1", seed=7, telemetry=True)
    system.run(20_000_000)
    return system


# -- tracing ---------------------------------------------------------------


def test_spans_sum_to_measured_roundtrip(traced_design1):
    """The headline invariant: per-hop spans decompose the measured RTT
    with zero residual — nothing double-counted, nothing missing."""
    telemetry = traced_design1.sim.telemetry
    assert telemetry.traces, "no round trips completed"
    samples = set(traced_design1.roundtrip_samples())
    for trace in telemetry.traces:
        spans = trace.spans()
        assert sum(s.duration_ns for s in spans) == trace.rtt_ns
        assert trace.rtt_ns in samples
        # Every span is attributed to a real place with a real kind.
        for span in spans:
            assert span.duration_ns >= 0
            assert span.where
            assert span.kind


def test_trace_covers_the_whole_chain(traced_design1):
    """exchange -> switches -> nic -> normalizer -> strategy -> gateway
    -> exchange: every stage of §2's loop appears in the trace."""
    trace = traced_design1.sim.telemetry.traces[0]
    kinds = [s.kind for s in trace.spans()]
    for expected in ("exchange", "wire", "switch", "nic",
                     "normalizer", "strategy", "gateway"):
        assert expected in kinds, f"missing {expected} in {kinds}"
    # The decision chain appears in causal order.
    order = [kinds.index(k) for k in ("exchange", "normalizer", "strategy",
                                      "gateway")]
    assert order == sorted(order)


def test_decomposition_network_share(traced_design1):
    """§4.1: with 500 ns commodity switches, the network is roughly half
    the end-to-end time on Design 1."""
    deco = decompose(traced_design1.sim.telemetry.traces)
    assert deco.max_residual_ns == 0
    assert 0.35 <= deco.network_share <= 0.6
    rendered = render_decomposition(deco, title="t")
    assert "network share" in rendered
    # Shares sum to ~1 over the dominant path.
    assert abs(sum(r.share for r in deco.rows) - 1.0) < 1e-6
    assert NETWORK_KINDS >= {"wire", "switch"}


def test_jsonl_roundtrip(tmp_path, traced_design1):
    traces = traced_design1.sim.telemetry.traces
    path = write_traces_jsonl(traces, tmp_path / "traces.jsonl")
    reloaded = read_traces_jsonl(path)
    assert len(reloaded) == len(traces)
    for a, b in zip(traces, reloaded):
        assert a.to_dict() == b.to_dict()
        assert [s.duration_ns for s in a.spans()] == [
            s.duration_ns for s in b.spans()
        ]


def test_design3_and_design4_also_decompose():
    for design, device_kind in (("design3", "l1s"), ("design4", "fpga")):
        system = build_system(design=design, seed=7, telemetry=True)
        system.run(10_000_000)
        deco = decompose(system.sim.telemetry.traces)
        assert deco.max_residual_ns == 0
        assert any(r.kind == device_kind for r in deco.rows), design


def test_fork_matches_copy_on_fork_reference():
    """12 hops with two 8-way fan-outs: forks share history yet every
    leaf finishes with the events a copy-the-list-on-fork context would
    have — siblings independent after divergence, parent unaffected."""
    root = TraceContext(0)
    frontier = [(root, [])]  # (context, the events a copied list would hold)
    for hop in range(12):
        if hop in (4, 8):
            frontier = [
                (context.fork(), list(reference))
                for context, reference in frontier
                for _ in range(8)
            ]
        for branch, (context, reference) in enumerate(frontier):
            where = f"switch.h{hop}.b{branch}"
            context.record(where, "switch", 100 * hop + branch)
            reference.append(TraceEvent(where, "switch", 100 * hop + branch))
    assert len(frontier) == 64
    for context, reference in frontier:
        trace = context.finish(2_000)
        assert trace.events == tuple(reference)  # oldest first
        assert len(trace.events) == 12
        assert sum(span.duration_ns for span in trace.spans()) == 2_000
    assert len({context.trace_id for context, _ in frontier}) == 64
    # The original stopped at the first fan-out; its forks never wrote to it.
    assert [e.t for e in root.finish(2_000).events] == [0, 100, 200, 300]


@pytest.mark.parametrize("end_ns", [500, 700], ids=["exact", "remainder"])
def test_every_span_consumer_applies_the_one_rule(end_ns):
    """iter_spans is the span rule; Trace.spans(), the tail observatory's
    per-hop histograms and the Chrome "X" slices must all agree with it,
    with and without a trailing ``delivery [wire]`` remainder."""
    session = TelemetrySession()
    context = session.start_trace("a", "exchange", 100)
    context.record("b", "wire", 300)
    context.record("c", "switch", 500)
    trace = session.finish_trace(context, end_ns)

    rule = list(iter_spans(trace))
    assert sum(duration for *_, duration in rule) == trace.rtt_ns
    assert (rule[-1][:2] == ("delivery", "wire")) == (end_ns != 500)
    assert [(s.where, s.kind, s.duration_ns) for s in trace.spans()] == [
        (where, kind, duration) for where, kind, _, duration in rule
    ]
    hists = session.span_histograms()
    assert sorted(hists) == sorted((where, kind) for where, kind, *_ in rule)
    for where, kind, _, duration in rule:
        assert hists[(where, kind)].count == 1
        assert hists[(where, kind)].total == duration
    slices = [
        (event["name"], event["cat"], event["ts"] * 1_000, event["dur"] * 1_000)
        for event in build_chrome_trace(session)["traceEvents"]
        if event["ph"] == "X"
    ]
    assert slices == [
        (f"{where} [{kind}]", kind, pytest.approx(start), pytest.approx(duration))
        for where, kind, start, duration in rule
    ]


# -- disabled path ---------------------------------------------------------


def test_disabled_by_default_no_traces_no_metrics():
    system = build_system(design="design1", seed=7)
    system.run(5_000_000)
    assert system.sim.telemetry is None


def test_dark_run_carries_no_per_hop_state():
    """With telemetry off nothing records where a packet went: every
    delivered packet has ``trace is None`` and no other per-hop field."""
    system = build_system(design="design1", seed=7)
    delivered = []
    for nic in system.of(Nic):
        inner = nic._handler
        if inner is not None:
            nic.bind(lambda p, inner=inner: (delivered.append(p), inner(p)))
    system.run(5_000_000)
    assert len(delivered) > 100
    assert all(type(p) is Packet and p.trace is None for p in delivered)
    assert "trace" in Packet.__slots__
    assert not any("trail" in slot or "stamp" in slot for slot in Packet.__slots__)
    assert not hasattr(delivered[0], "__dict__")


def test_telemetry_does_not_perturb_the_simulation(traced_design1):
    """Observation must not change the experiment: identical seeds give
    identical round trips with telemetry on and off."""
    plain = build_system(design="design1", seed=7)
    plain.run(20_000_000)
    assert plain.roundtrip_samples() == traced_design1.roundtrip_samples()


# -- metrics ---------------------------------------------------------------


def test_counter_and_histogram_basics():
    c = Counter("x")
    c.inc()
    c.inc(4)
    assert c.value == 5

    h = Histogram("lat")
    for v in range(1, 101):
        h.observe(v)
    s = h.summary()
    assert s.count == 100
    assert s.min == 1 and s.max == 100
    assert abs(s.mean - 50.5) < 1e-9
    assert 49 <= s.p50 <= 52
    assert 89 <= s.p90 <= 92
    assert 98 <= s.p99 <= 100


def test_registry_creates_on_first_use():
    reg = MetricsRegistry()
    reg.counter("a").inc()
    reg.counter("a").inc()
    reg.histogram("b").observe(7)
    assert reg.counters["a"].value == 2
    snap = reg.to_dict()
    assert snap["counters"]["a"] == 2
    assert snap["histograms"]["b"]["count"] == 1


def test_session_sampling_and_cap():
    session = TelemetrySession(sample_interval=2)
    t0 = session.start_trace("here", "exchange", now=0)
    t1 = session.start_trace("here", "exchange", now=0)
    t2 = session.start_trace("here", "exchange", now=0)
    assert t0 is not None and t2 is not None
    assert t1 is None  # sampled out

    small = TelemetrySession(max_traces=1)
    a = small.start_trace("x", "exchange", now=0)
    b = small.start_trace("x", "exchange", now=0)
    small.finish_trace(a, 10)
    small.finish_trace(b, 10)
    assert len(small.traces) == 1
    assert small.metrics.counters["telemetry.traces_dropped"].value == 1


def test_system_metrics_populated(traced_design1):
    metrics = traced_design1.sim.telemetry.metrics
    histos = metrics.histograms
    assert any(name.endswith(".roundtrip_ns") for name in histos)
    rtt = next(h for n, h in histos.items() if n.endswith(".roundtrip_ns"))
    assert rtt.summary().count == len(traced_design1.roundtrip_samples())


def test_gauge_high_watermark_ratchets():
    g = Gauge("q.depth")
    g.set(5)
    g.add(3)
    g.set(2)
    g.add(-2)
    assert g.value == 0
    assert g.high_watermark == 8  # never moves back down
    assert g.to_dict() == {
        "type": "gauge", "name": "q.depth", "value": 0, "high_watermark": 8,
    }
    reg = MetricsRegistry()
    assert reg.gauge("a.b") is reg.gauge("a.b")
    reg.gauge("a.b").set(4)
    assert reg.to_dict()["gauges"]["a.b"] == {"value": 4, "high_watermark": 4}


def test_session_helpers_update_instrument_and_series_together():
    session = TelemetrySession(window_ns=100)
    session.count("x.events", now=50, amount=2)
    session.count("x.events", now=150)
    session.gauge_set("x.depth", now=50, value=7)
    session.gauge_add("x.depth", now=150, delta=-4)
    assert session.metrics.counters["x.events"].value == 3
    assert session.series.counts_array("x.events") == [2, 1]
    gauge = session.metrics.gauges["x.depth"]
    assert (gauge.value, gauge.high_watermark) == (3, 7)
    # The series sampled the level at both updates, keeping per-window max.
    assert session.series.counts_array("x.depth") == [7, 3]
    assert "series" in session.to_dict()


def test_system_gauges_populated(traced_design1):
    gauges = traced_design1.sim.telemetry.metrics.gauges
    assert any(name.endswith(".queue_bytes") for name in gauges)
    assert any(name.endswith(".rx_inflight") for name in gauges)
    assert any(g.high_watermark > 0 for g in gauges.values())


# -- the max_traces boundary (regression) ----------------------------------


def test_finish_trace_at_the_cap_drops_without_finishing():
    """Regression: the cap must be checked *before* context.finish —
    the dropped arrival is counted exactly once, its context is marked
    done, and the store never exceeds max_traces."""
    session = TelemetrySession(max_traces=2)
    contexts = [session.start_trace("x", "exchange", now=t) for t in range(4)]
    results = [session.finish_trace(c, 100 + i) for i, c in enumerate(contexts)]

    assert results[0] is not None and results[1] is not None
    assert results[2] is None and results[3] is None
    assert len(session.traces) == 2
    dropped = session.metrics.counters["telemetry.traces_dropped"]
    assert dropped.value == 2  # exactly once per dropped trace

    # The dropped contexts were closed without being finished...
    assert contexts[2].done and contexts[3].done
    # ...so re-finishing one is a no-op: no double count, no late store.
    assert session.finish_trace(contexts[2], 999) is None
    assert dropped.value == 2
    assert len(session.traces) == 2
