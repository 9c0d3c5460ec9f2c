"""The five benchmark workloads. Names are fixed; later issues cite them.

Each workload is a ``SystemSpec`` plus, for ``l1s_merge_burst``, inputs
generated before the build (the burst schedule) and applied to the built
system through public attributes. Load is open loop in simulated time:
arrivals are scheduled regardless of backlog, and a round trip runs from
the exchange event time to the order's arrival at the exchange edge, so
queue wait is counted.

``run_ns`` sizes are for the 2-core reference host (~6.5 µs of host time
per simulated event): every timed repeat stays >= 2 s so host noise is a
small share of it. On a different host scale only ``run_ns``
(``--seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass

MS = 1_000_000

#: ``--seconds`` at which ``run_ns`` below applies unscaled: 5 repeats of
#: ~3 s each on the reference host.
REFERENCE_SECONDS = 15

BURST_SEED = 11  # the paper-calibrated Fig 2(c) trace; never reseeded
BURST_WINDOW_NS = 100_000
BURST_SCALE = 0.1
NORMALIZER_SERVICE_NS = 5_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    run_ns: int
    #: The same workload with telemetry off: simulated results must be
    #: equal, and the telemetry on/off cost is measured against it.
    dark_twin: str | None = None
    burst: bool = False

    def make_spec(self, seed: int, run_ns: int):
        from repro.core.config import SystemSpec

        return SystemSpec(seed=seed, run_ns=run_ns, **self.spec)

    def generate_inputs(self, run_ns: int):
        """Inputs made before the build; ``None`` when the spec is all."""
        if not self.burst:
            return None
        return burst_rate_schedule(run_ns)

    def configure(self, system, inputs) -> None:
        """Apply generated inputs to a freshly built system."""
        if inputs is None:
            return
        for normalizer in system.normalizers:
            normalizer.service_time_ns = NORMALIZER_SERVICE_NS
        system.flow.batch_ns = BURST_WINDOW_NS
        system.flow.rate_per_s = inputs


def burst_rate_schedule(run_ns: int):
    """``rate_per_s(now_ns)`` replaying Fig 2(c)'s busiest stretch.

    The slice of ``busy_second_window_counts(seed=11)`` of length
    ``run_ns`` centred on its busiest 100 µs window, scaled x0.1 so mean
    load stays below the serial normalizer's capacity while the peak
    windows overrun it: the backlog builds, then drains.
    """
    from repro.workload.daily import busy_second_window_counts

    counts = busy_second_window_counts(seed=BURST_SEED)
    n_windows = max(1, run_ns // BURST_WINDOW_NS)
    start = max(0, min(int(counts.argmax()) - n_windows // 2, len(counts) - n_windows))
    rates = [
        float(count) * BURST_SCALE * 1e9 / BURST_WINDOW_NS
        for count in counts[start:start + n_windows]
    ]

    def rate_per_s(now_ns: int) -> float:
        index = now_ns // BURST_WINDOW_NS
        return rates[index] if index < len(rates) else 0.0

    return rate_per_s


_LEAFSPINE = dict(design="design1", n_strategies=8, n_symbols=24, flow_rate_per_s=40_000.0)

WORKLOADS = (
    Workload(
        "leafspine_steady",
        "12 switch hops and 8-way multicast: net and sim do most of the work, "
        "no queue builds; baseline for kernel and packet hot-path changes",
        _LEAFSPINE,
        run_ns=400 * MS,
    ),
    Workload(
        "l1s_merge_burst",
        "Fig 2(c) burst through 2 serial normalizers and merge units: workload, "
        "exchange, protocols, firm dominate; the only real queueing tail",
        dict(design="design3", n_normalizers=2, n_symbols=52, exchange_partitions=26),
        run_ns=150 * MS,
        burst=True,
    ),
    Workload(
        "tick_to_trade",
        "write path: every tick becomes an order, so order entry, BOE codec and "
        "matching dominate; no flow generator, no normalizer",
        dict(design="ticktotrade"),
        run_ns=1500 * MS,
    ),
    Workload(
        "leafspine_observed",
        "leafspine_steady with telemetry on: the only workload where the "
        "telemetry layer does work; its cost budget is claimed here",
        dict(_LEAFSPINE, telemetry=True),
        run_ns=400 * MS,
        dark_twin="leafspine_steady",
    ),
    Workload(
        "wan_lossy",
        "2% wire loss, A/B arbitration, retransmit timers armed and cancelled: "
        "off the fast path, exercises sim cancel and heap compaction",
        dict(design="wan", n_strategies=3, microwave_loss=0.02),
        run_ns=500 * MS,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


def guard_failures(name: str, m: dict) -> list[str]:
    """Mechanism-engaged guards: has a refactor changed what ``name`` measures?

    ``m`` holds the untraced run's counts and pooled simulated metrics.
    Returns one line per broken guard (empty = the workload still
    exercises what it was chosen for).
    """
    checks: list[tuple[bool, str]] = [
        (m["rtt_samples"] >= 1000, "pooled round-trip samples >= 1000"),
        (m["firm.decode_errors"] == 0, "firm.decode_errors == 0"),
    ]
    telemetry_on = bool(BY_NAME[name].spec.get("telemetry"))
    checks.append((
        (m["telemetry.counters"] > 0) == telemetry_on,
        "telemetry does work only where the workload turns it on",
    ))
    if name == "leafspine_steady":
        checks += [
            (m["net.switch_packets"] > 0, "net.switch_packets > 0"),
            (m["firm.normalizer_queue_peak"] == 0, "firm.normalizer_queue_peak == 0"),
        ]
    elif name == "l1s_merge_burst":
        checks += [
            (m["firm.normalizers_idle"] == 0, "every normalizer has messages_in > 0"),
            (m["firm.normalizer_queue_peak"] >= 50, "firm.normalizer_queue_peak >= 50"),
            (m["rtt_p99_ns"] >= 10 * m["rtt_p50_ns"], "rtt_p99_ns >= 10 x rtt_p50_ns"),
            (m["order_fail_share"] <= 0.02, "order_fail_share <= 0.02"),
        ]
    elif name == "tick_to_trade":
        requests = m["exchange.order_entry_requests"]
        checks += [
            (requests >= 0.9 * m["exchange.feed_msgs"],
             "exchange.order_entry_requests >= 0.9 x ticks published"),
            (0 <= m["firm.orders_sent"] - requests <= 5 * m["repeats"],
             "order entry requests within the in-flight handful of orders sent"),
            (m["workload.flow_events"] == 0, "workload.flow_events == 0"),
        ]
    elif name == "wan_lossy":
        checks += [
            (m["net.link_drops"] > 0, "net.link_drops > 0"),
            (m["net.reliable_retransmits"] > 0, "net.reliable_retransmits > 0"),
            (m["sim.pending_dead"] > 0, "sim cancel engaged (dead heap entries seen)"),
        ]
    return [text for ok, text in checks if not ok]


def traced_guard_failures(name: str, m: dict) -> list[str]:
    """What the traced run must show for its numbers to be trusted."""
    telemetry_on = bool(BY_NAME[name].spec.get("telemetry"))
    checks = [
        (m["trace.overhead_ratio"] <= 2.5, "trace.overhead_ratio <= 2.5"),
        (m["trace.unattributed_share"] <= 0.10, "trace.unattributed_share <= 0.10"),
        ((m["telemetry.self_share"] > 0) == telemetry_on,
         "telemetry.self_share > 0 only with telemetry on"),
        ((m["sim.cancel_calls"] > 0) == (name == "wan_lossy"),
         "sim.cancel_calls > 0 only on wan_lossy"),
    ]
    if name == "tick_to_trade":
        checks.append((m["workload.self_share"] == 0, "workload.self_share == 0"))
    return [text for ok, text in checks if not ok]
