"""What the harness knows about the program: entry points and counters.

Layer = package name under ``src/repro/``. Two views of each layer are
taken from outside:

* :func:`component_counts` reads component ``.stats`` off a finished
  system (exact, free — available on the untraced run);
* :func:`install_entry_points` tells a :class:`~tracer.SpanTracer` which
  public methods to wrap, so the traced run yields per-layer self times
  and call counts for the entry points that keep no ``.stats``.
"""

from __future__ import annotations

from collections import deque

from tracer import SpanTracer

# (module, class, layer, methods). Subclass overrides are wrapped too.
ENTRY_POINTS = (
    ("repro.sim.kernel", "Simulator", "sim",
     ("run", "schedule_at", "schedule_after", "cancel")),
    ("repro.exchange.exchange", "Exchange", "exchange",
     ("inject_order", "inject_cancel", "inject_modify")),
    ("repro.exchange.matching", "MatchingEngine", "exchange",
     ("submit", "cancel", "modify")),
    ("repro.exchange.book", "OrderBook", "exchange",
     ("add_order", "cancel", "reduce", "modify")),
    ("repro.exchange.publisher", "FeedPublisher", "exchange",
     ("publish", "publish_to_partition", "flush_all")),
    ("repro.protocols.pitch", "PitchFrameCodec", "protocols", ("pack", "unpack")),
    ("repro.protocols.seqfeed", "FeedArbiter", "protocols", ("on_payload",)),
    ("repro.protocols.itf", "ItfCodec", "protocols",
     ("encode", "decode", "encode_batch", "decode_batch")),
    ("repro.protocols.boe", "BoeSession", "protocols",
     ("encode_new_order", "encode_cancel", "encode_modify", "on_bytes")),
    ("repro.net.link", "Link", "net", ("send",)),
    ("repro.net.nic", "Nic", "net", ("send", "handle_packet")),
    ("repro.net.switch", "CommoditySwitch", "net", ("handle_packet",)),
    ("repro.net.l1switch", "Layer1Switch", "net", ("handle_packet",)),
    ("repro.net.l1switch", "MergeUnit", "net", ("handle_packet",)),
    ("repro.firm.strategy", "Strategy", "firm", ("on_update", "on_fill")),
    ("repro.firm.risk", "RiskChecker", "firm", ("check",)),
    ("repro.telemetry.session", "TelemetrySession", "telemetry",
     ("count", "gauge_set", "gauge_add", "start_trace", "finish_trace")),
    ("repro.telemetry.context", "TraceContext", "telemetry", ("record", "fork")),
    ("repro.telemetry.hdr", "LogLinearHistogram", "telemetry", ("record",)),
)

# Handlers one layer registers with another: (module, class, method,
# positional index of the callback incl. self, keyword name).
REGISTRATIONS = (
    ("repro.net.nic", "Nic", "bind", 1, "handler"),
    ("repro.protocols.seqfeed", "FeedArbiter", "__init__", 2, "sink"),
)


def install_entry_points(tracer: SpanTracer) -> None:
    """Wrap every entry point above; ``tracer.unpatch_all()`` undoes it."""
    import importlib

    for module, cls_name, layer, methods in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in methods:
            tracer.patch_method(cls, method, layer)
    for module, cls_name, method, index, keyword in REGISTRATIONS:
        cls = getattr(importlib.import_module(module), cls_name)
        tracer.patch_registration(cls, method, index, keyword)


def _reachable(system) -> list:
    """Every ``repro`` object reachable from the system's handles.

    The testbeds keep no flat device registry, so the harness walks the
    handle graph (attributes, containers, bound handlers) once after the
    run. The simulator and telemetry session are not descended into:
    their contents are events and samples, not components.
    """
    from repro.sim.kernel import Simulator
    from repro.telemetry.session import TelemetrySession

    found = []
    seen: set[int] = set()
    frontier = deque([system])
    while frontier:
        obj = frontier.popleft()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (Simulator, TelemetrySession)):
            continue
        if isinstance(obj, dict):
            frontier.extend(obj.values())
            continue
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            frontier.extend(obj)
            continue
        owner = getattr(obj, "__self__", None)  # bound handler
        if owner is not None:
            frontier.append(owner)
            continue
        wrapped = getattr(obj, "__wrapped__", None)  # a tracer wrapper
        if wrapped is not None:
            frontier.append(wrapped)
            continue
        closure = getattr(obj, "__closure__", None)  # nested handler
        if closure:
            frontier.extend(cell.cell_contents for cell in closure)
            continue
        if not (type(obj).__module__ or "").startswith("repro."):
            continue
        found.append(obj)
        attrs = getattr(obj, "__dict__", None)
        if attrs:
            frontier.extend(attrs.values())
        for slot in getattr(type(obj), "__slots__", ()):
            if hasattr(obj, slot):
                frontier.append(getattr(obj, slot))
    return found


def component_counts(system) -> dict[str, float]:
    """Per-layer work counts read off component ``.stats``. All exact."""
    from repro.core.ticktotrade import HardwareStrategy
    from repro.exchange.exchange import Exchange
    from repro.firm.feedhandler import FeedHandler
    from repro.firm.gateway import OrderGateway
    from repro.firm.normalizer import Normalizer
    from repro.firm.strategy import Strategy
    from repro.net.l1switch import Layer1Switch, MergeUnit
    from repro.net.link import Link
    from repro.net.nic import Nic
    from repro.net.reliable import ReliableChannel
    from repro.net.switch import CommoditySwitch
    from repro.protocols.seqfeed import FeedArbiter
    from repro.workload.orderflow import OrderFlowGenerator

    c = dict.fromkeys((
        "net.link_sends", "net.link_drops", "net.switch_packets", "net.l1s_copies",
        "net.merge_packets", "net.merge_send_failures", "net.nic_delivered",
        "net.reliable_retransmits", "net.reliable_failures",
        "protocols.itf_records", "protocols.boe_msgs", "protocols.arbiter_gaps",
        "exchange.feed_msgs", "exchange.publisher_frames",
        "exchange.order_entry_requests", "exchange.order_entry_rejects",
        "exchange.rtt_samples",
        "firm.normalizer_msgs_in", "firm.normalizer_queue_peak",
        "firm.normalizers_idle", "firm.feed_payloads", "firm.decode_errors",
        "firm.strategy_updates_in", "firm.orders_sent", "firm.gateway_rejects",
        "workload.flow_events",
    ), 0)
    nic_received = nic_filtered = 0  # wasted deliveries: filtered / received
    for obj in _reachable(system):
        if isinstance(obj, Link):
            for end in (obj.end_a, obj.end_b):
                stats = obj.stats_from(end)
                c["net.link_sends"] += stats.packets_sent
                c["net.link_drops"] += stats.packets_dropped_queue + stats.packets_lost
        elif isinstance(obj, CommoditySwitch):
            c["net.switch_packets"] += obj.stats.packets_forwarded
        elif isinstance(obj, Layer1Switch):
            c["net.l1s_copies"] += obj.stats.copies_out
        elif isinstance(obj, MergeUnit):
            c["net.merge_packets"] += obj.stats.packets_in
            c["net.merge_send_failures"] += obj.stats.egress_send_failures
        elif isinstance(obj, Nic):
            c["net.nic_delivered"] += obj.stats.packets_delivered
            nic_received += obj.stats.packets_received
            nic_filtered += obj.stats.packets_filtered
        elif isinstance(obj, ReliableChannel):
            c["net.reliable_retransmits"] += obj.stats.retransmits
            c["net.reliable_failures"] += obj.stats.failures
        elif isinstance(obj, FeedArbiter):
            c["protocols.arbiter_gaps"] += obj.stats.gaps_detected
        elif isinstance(obj, Exchange):
            oe = obj.order_entry.stats
            c["exchange.feed_msgs"] += obj.publisher.stats.messages
            c["exchange.publisher_frames"] += obj.publisher.stats.frames
            c["exchange.order_entry_requests"] += oe.requests
            c["exchange.order_entry_rejects"] += oe.rejects
            c["exchange.rtt_samples"] += len(obj.order_entry.roundtrip_samples)
            c["protocols.boe_msgs"] += (
                oe.requests + oe.acks + oe.rejects + oe.fills_sent
                + oe.cancel_acks + oe.cancel_rejects
            )
        elif isinstance(obj, Normalizer):
            c["firm.normalizer_msgs_in"] += obj.stats.messages_in
            c["firm.normalizer_queue_peak"] = max(
                c["firm.normalizer_queue_peak"], obj.stats.queue_peak
            )
            c["firm.normalizers_idle"] += obj.stats.messages_in == 0
            c["protocols.itf_records"] += obj.stats.updates_out
        elif isinstance(obj, FeedHandler):
            c["firm.feed_payloads"] += obj.stats.payloads
            c["firm.decode_errors"] += obj.stats.decode_errors
        elif isinstance(obj, Strategy):
            c["firm.strategy_updates_in"] += obj.stats.updates_in
            c["firm.orders_sent"] += obj.stats.orders_sent
            c["protocols.itf_records"] += obj.stats.updates_in
        elif isinstance(obj, OrderGateway):
            c["firm.gateway_rejects"] += (
                obj.stats.rejects + obj.stats.risk_blocked + obj.stats.unknown_exchange
            )
        elif isinstance(obj, OrderFlowGenerator):
            c["workload.flow_events"] += obj.stats.total
        elif isinstance(obj, HardwareStrategy):
            c["firm.orders_sent"] += obj.orders_sent
    c["net.nic_received"] = nic_received
    c["net.nic_filtered"] = nic_filtered
    c["sim.events"] = system.sim.events_executed
    return c


def pool_counts(runs: list[dict]) -> dict[str, float]:
    """Sum counts over repeats (queue peak: max) and derive the ratios."""
    c: dict[str, float] = {}
    for counts in runs:
        for key, value in counts.items():
            if key == "firm.normalizer_queue_peak":
                c[key] = max(c.get(key, 0), value)
            else:
                c[key] = c.get(key, 0) + value
    c["net.nic_filtered_share"] = _per(c["net.nic_filtered"], c["net.nic_received"])
    c["exchange.msgs_per_frame"] = _per(
        c["exchange.feed_msgs"], c["exchange.publisher_frames"]
    )
    c["sim.events_per_feed_msg"] = _per(c["sim.events"], c["exchange.feed_msgs"])
    return c


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def traced_metrics(tracer: SpanTracer, counts: dict, traced_wall_ns: int) -> dict:
    """Per-layer times from one traced run's aggregates (host ns)."""
    layer_ns = tracer.layer_self_ns()
    _, dispatch_self = tracer.entries("sim", "Simulator.run")
    sched_calls, sched_self = tracer.entries("sim", "Simulator.schedule")
    cancel_calls, _ = tracer.entries("sim", "Simulator.cancel")
    book_calls, book_self = tracer.entries("exchange", "OrderBook.")
    pack_calls, _ = tracer.entries("protocols", "PitchFrameCodec.pack")
    unpack_calls, _ = tracer.entries("protocols", "PitchFrameCodec.unpack")
    record_calls = sum(
        tracer.entries("telemetry", prefix)[0]
        for prefix in ("TelemetrySession.", "TraceContext.", "LogLinearHistogram.")
    )
    feed_msgs = counts["exchange.feed_msgs"]
    named_ns = sum(layer_ns[layer] for layer in layer_ns if layer != "other")
    m = {
        f"{layer}.self_share": _per(self_ns, traced_wall_ns)
        for layer, self_ns in layer_ns.items() if layer != "other"
    }
    m.update({
        "sim.dispatch_self_ns_per_event": _per(dispatch_self, counts["sim.events"]),
        "sim.schedule_calls": sched_calls,
        "sim.schedule_self_ns_per_call": _per(sched_self, sched_calls),
        "sim.cancel_calls": cancel_calls,
        "sim.heap_peak_entries": tracer.heap_peak_entries,
        "sim.dead_entry_peak_share": tracer.dead_entry_peak_share,
        "net.self_ns_per_link_send": _per(layer_ns["net"], counts["net.link_sends"]),
        "protocols.pitch_pack_calls": pack_calls,
        "protocols.pitch_unpack_calls": unpack_calls,
        "protocols.self_ns_per_msg": _per(layer_ns["protocols"], feed_msgs),
        "exchange.book_ops": book_calls,
        "exchange.book_self_ns_per_op": _per(book_self, book_calls),
        "exchange.self_ns_per_feed_msg": _per(layer_ns["exchange"], feed_msgs),
        "firm.self_ns_per_msg": _per(layer_ns["firm"], feed_msgs),
        "workload.self_ns_per_flow_event": _per(
            layer_ns["workload"], counts["workload.flow_events"]
        ),
        "telemetry.records": record_calls,
        "telemetry.self_ns_per_record": _per(layer_ns["telemetry"], record_calls),
        "trace.unattributed_share": 1.0 - _per(named_ns, traced_wall_ns),
        "trace.spans": tracer.spans,
    })
    return m
