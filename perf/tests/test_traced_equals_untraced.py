"""Tracing observes, never steers: traced and untraced digests are equal."""

import pytest
from harness import run_once
from layers import component_counts, install_entry_points, traced_metrics
from tracer import LAYERS, SpanTracer
from workloads import WORKLOADS

RUN_NS = 5_000_000


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_digest_equality_on_a_5ms_run(workload):
    inputs = workload.generate_inputs(RUN_NS)
    untraced = run_once(workload, 3, RUN_NS, inputs)
    with SpanTracer() as tracer:
        install_entry_points(tracer)
        traced = run_once(
            workload, 3, RUN_NS, inputs,
            before_run=lambda system: tracer.attach(system.sim),
            after_run=tracer.unpatch_all,
        )
    assert traced["digest"] == untraced["digest"]
    counts = component_counts(untraced["system"])
    assert component_counts(traced["system"]) == counts
    assert counts["sim.events"] > 0 and counts["exchange.feed_msgs"] > 0

    m = traced_metrics(tracer, counts, traced["wall_ns"])
    shares = sum(m[f"{layer}.self_share"] for layer in LAYERS)
    # Named layers + unattributed = the traced wall, by construction.
    assert shares + m["trace.unattributed_share"] == pytest.approx(1.0, abs=1e-9)
    assert 0 <= m["trace.unattributed_share"] <= 0.10
    assert (m["telemetry.self_share"] > 0) == (workload.name == "leafspine_observed")
    if workload.name == "tick_to_trade":
        assert m["workload.self_share"] == 0
    # One dispatch span per executed event.
    dispatched = sum(row["calls"] for row in tracer.table()
                     if row["entry"].startswith("dispatch:"))
    assert dispatched == counts["sim.events"]
