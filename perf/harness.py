"""Child-process side of the benchmark: one workload, one fresh interpreter.

Three entry points, each run by ``run.py`` in its own subprocess and each
printing one JSON object as its last stdout line:

* :func:`setup_probe` — fresh interpreter -> a built system ready to run;
* :func:`untraced_run` — pre-check, then R timed repeats (the end-to-end
  numbers and the exact ``.stats`` counts);
* :func:`traced_run` — one untraced and one traced repeat of the same
  seed (the per-layer numbers and the tracing overhead).

The simulator is driven only through public functions and attributes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR.parent / "src"))

from workloads import BY_NAME, REFERENCE_SECONDS, Workload, guard_failures  # noqa: E402

_clock = time.perf_counter_ns


def scaled_run_ns(workload: Workload, seconds: float) -> int:
    return max(1, int(workload.run_ns * seconds / REFERENCE_SECONDS))


def median_iqr(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; quartiles collapse to the median below 2 samples."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


# -- one run ------------------------------------------------------------------


def build(workload: Workload, seed: int, run_ns: int, inputs):
    """``(spec, system, build_ns)`` — a system ready for ``system.run``."""
    from repro.core import build_system

    spec = workload.make_spec(seed, run_ns)
    begin = _clock()
    system = build_system(spec)
    workload.configure(system, inputs)
    return spec, system, _clock() - begin


def run_once(
    workload: Workload, seed: int, run_ns: int, inputs, before_run=None, after_run=None
):
    """Build fresh, time only ``system.run``; GC collected before, on during.

    ``before_run(system)`` runs after the build and ``after_run()`` right
    after the timed window, before the result is summarized.
    """
    from repro.core.run import ExecutedRun, summarize_run

    spec, system, _ = build(workload, seed, run_ns, inputs)
    if before_run is not None:
        before_run(system)
    gc.collect()
    begin = _clock()
    system.run(run_ns)
    wall_ns = _clock() - begin
    if after_run is not None:
        after_run()
    begin = _clock()
    result = summarize_run(ExecutedRun(spec, system, None, wall_ns))
    summarize_ns = _clock() - begin
    return {
        "system": system,
        "digest": hashlib.sha256(
            json.dumps(result.to_dict(deterministic=True), sort_keys=True).encode()
        ).hexdigest(),
        "wall_ns": wall_ns,
        "summarize_ns": summarize_ns,
    }


def telemetry_counter_total(system) -> int:
    telemetry = system.sim.telemetry
    if telemetry is None:
        return 0
    return sum(telemetry.metrics.to_dict()["counters"].values())


def import_and_generate(workload: Workload, run_ns: int):
    """``(inputs, import_s, input_gen_s)`` from a fresh interpreter."""
    begin = _clock()
    import repro  # noqa: F401
    import repro.core  # noqa: F401

    import_ns = _clock() - begin
    begin = _clock()
    inputs = workload.generate_inputs(run_ns)
    return inputs, import_ns / 1e9, (_clock() - begin) / 1e9


# -- pre-check ------------------------------------------------------------------


def precheck(workload: Workload, seed: int, run_ns: int, inputs) -> dict:
    """Correctness pre-check and warm-up on a 1/10-length run, made twice.

    The two runs' deterministic serializations must be byte-identical.
    The first carries a trace hook sampling dead heap entries (evidence
    that ``sim.cancel`` is exercised), so the comparison also shows that
    observing a run does not change it.
    """
    short_ns = max(1, run_ns // 10)
    dead_peak = 0

    def sample_heap(system):
        sim = system.sim

        def hook(when, callback):
            nonlocal dead_peak
            dead_peak = max(dead_peak, sim.pending_raw - sim.pending)

        sim.add_trace_hook(hook)

    first = run_once(workload, seed, short_ns, inputs, before_run=sample_heap)
    second = run_once(workload, seed, short_ns, inputs)
    if first["digest"] != second["digest"]:
        raise RuntimeError(f"{workload.name}: two runs of one spec differ")
    if workload.dark_twin is not None:
        twin = run_once(BY_NAME[workload.dark_twin], seed, short_ns, inputs)
        if twin["system"].roundtrip_samples() != first["system"].roundtrip_samples():
            raise RuntimeError(
                f"{workload.name}: simulated round trips differ from "
                f"{workload.dark_twin}'s"
            )
    return {"sim.pending_dead": dead_peak}


# -- entry points -----------------------------------------------------------------


def setup_probe(name: str, seed: int, seconds: float) -> dict:
    workload = BY_NAME[name]
    run_ns = scaled_run_ns(workload, seconds)
    inputs, import_s, input_gen_s = import_and_generate(workload, run_ns)
    _, _, build_ns = build(workload, seed, run_ns, inputs)
    return {"import_s": import_s, "input_gen_s": input_gen_s, "build_s": build_ns / 1e9}


def simulated_metrics(histogram, orders_sent: int) -> dict:
    """Simulated outputs of a run (or of several, pooled in ``histogram``).

    An order without a round-trip sample at the exchange edge when the
    run ends — still in flight, rejected or dropped — counts as failed.
    """
    samples = histogram.count
    return {
        "rtt_samples": samples,
        "rtt_p50_ns": histogram.percentile(0.50) if samples else 0,
        "rtt_p99_ns": histogram.percentile(0.99) if samples else 0,
        "order_fail_share": (
            (orders_sent - samples) / orders_sent if orders_sent else 1.0
        ),
    }


def roundtrip_histogram(system):
    from repro.telemetry.hdr import LogLinearHistogram

    histogram = LogLinearHistogram()
    histogram.record_many(system.roundtrip_samples())
    return histogram


def untraced_run(name: str, seed: int, seconds: float, repeats: int) -> dict:
    from layers import component_counts, pool_counts
    from repro.telemetry.hdr import LogLinearHistogram

    workload = BY_NAME[name]
    run_ns = scaled_run_ns(workload, seconds)
    inputs, _, _ = import_and_generate(workload, run_ns)
    checked = precheck(workload, seed, run_ns, inputs)

    pooled = LogLinearHistogram()
    per_run_counts, walls, rates, ns_per_event, digests = [], [], [], [], []
    telemetry_counters = 0
    for repeat in range(repeats):
        run = run_once(workload, seed + repeat, run_ns, inputs)
        pooled.merge(roundtrip_histogram(run["system"]))
        counts = component_counts(run["system"])
        per_run_counts.append(counts)
        telemetry_counters += telemetry_counter_total(run["system"])
        walls.append(run["wall_ns"])
        rates.append(counts["exchange.feed_msgs"] * 1e9 / run["wall_ns"])
        ns_per_event.append(run["wall_ns"] / counts["sim.events"])
        digests.append(run["digest"])
        del run  # the finished system must not count toward the next repeat's RSS
    m = pool_counts(per_run_counts)
    rate, rate_q1, rate_q3 = median_iqr(rates)
    m.update(checked)
    m.update(simulated_metrics(pooled, m["firm.orders_sent"]))
    m.update({
        "repeats": repeats,
        "run_ns": run_ns,
        "feed_msgs_per_host_s": rate,
        "feed_msgs_per_host_s.q1": rate_q1,
        "feed_msgs_per_host_s.q3": rate_q3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "orders_refused": (
            m["exchange.order_entry_rejects"] + m["firm.gateway_rejects"]
            + m["net.reliable_failures"]
        ),
        "run_wall_s": statistics.median(walls) / 1e9,
        "sim.host_ns_per_event": statistics.median(ns_per_event),
        "telemetry.counters": telemetry_counters,
        "digests": digests,
    })
    # events/msg x ns/event should reproduce 1e9 / (msgs/s) within rounding.
    m["accounting_residual"] = (
        m["sim.events_per_feed_msg"] * m["sim.host_ns_per_event"] * rate / 1e9 - 1.0
    )
    m["guard_failures"] = guard_failures(name, m)
    return m


def traced_run(name: str, seed: int, seconds: float) -> dict:
    from isolated import isolated_metrics
    from layers import component_counts, install_entry_points, pool_counts, traced_metrics
    from tracer import SpanTracer

    workload = BY_NAME[name]
    run_ns = scaled_run_ns(workload, seconds)
    inputs, _, _ = import_and_generate(workload, run_ns)
    run_once(workload, seed, max(1, run_ns // 10), inputs)  # warm-up

    m = {"telemetry.on_off_wall_ratio": 0.0, "telemetry.profiler_share": 0.0}
    if workload.dark_twin is not None:
        m.update(telemetry_reconciliation(workload, seed, run_ns, inputs))
    reference = run_once(workload, seed, run_ns, inputs)
    counts = component_counts(reference["system"])

    with SpanTracer() as tracer:
        install_entry_points(tracer)
        # Patched from before the build (handlers are wrapped where they
        # are registered) until the timed window closes.
        traced = run_once(
            workload, seed, run_ns, inputs,
            before_run=lambda system: tracer.attach(system.sim),
            after_run=tracer.unpatch_all,
        )
    if traced["digest"] != reference["digest"]:
        raise RuntimeError(f"{name}: the traced run's results differ from the untraced")
    if component_counts(traced["system"]) != counts:
        raise RuntimeError(f"{name}: tracing changed component counts")
    tracer.write_chrome_trace(PERF_DIR / "out" / f"{name}.seed{seed}.trace.json")

    m.update(pool_counts([counts]))
    m.update(traced_metrics(tracer, counts, traced["wall_ns"]))
    m.update(isolated_metrics())
    m.update(simulated_metrics(
        roundtrip_histogram(reference["system"]), counts["firm.orders_sent"]
    ))
    m.update({
        "run_ns": run_ns,
        "sim.host_ns_per_event": reference["wall_ns"] / counts["sim.events"],
        "core.summarize_s": reference["summarize_ns"] / 1e9,
        "trace.overhead_ratio": traced["wall_ns"] / reference["wall_ns"],
        "traced_wall_s": traced["wall_ns"] / 1e9,
        "layer_self_ns": tracer.layer_self_ns(),
        "entry_points": tracer.table(),
    })
    return m


def telemetry_reconciliation(workload: Workload, seed: int, run_ns: int, inputs) -> dict:
    """Three views of what telemetry costs, from one harness (ROADMAP (d)).

    An interleaved dark/lit pair gives the on/off wall ratio; a lit run
    under the stock ``KernelProfiler`` gives the share the session
    self-reports through ``record_telemetry``. The traced run adds the
    third view, ``telemetry.self_share``.
    """
    from repro.telemetry.profile import KernelProfiler

    dark_workload = BY_NAME[workload.dark_twin]
    dark = run_once(dark_workload, seed, run_ns, inputs)["wall_ns"]
    lit = run_once(workload, seed, run_ns, inputs)["wall_ns"]
    profiler = KernelProfiler()
    run_once(
        workload, seed, run_ns, inputs,
        before_run=lambda system: system.sim.attach_profiler(profiler),
    )
    return {
        "telemetry.on_off_wall_ratio": lit / dark,
        "telemetry.profiler_share": profiler.report().telemetry_share,
    }
