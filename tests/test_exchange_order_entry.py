"""Integration tests for the exchange order-entry port over a real link."""

import pytest

from repro.exchange.matching import MatchingEngine
from repro.exchange.order_entry import OrderEntryPort
from repro.net.addressing import EndpointAddress
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.protocols.boe import (
    BoeSession,
    CancelAck,
    CancelReject,
    NewOrderRequest,
    OrderAck,
    OrderFill,
    OrderReject,
    OrderState,
)
from repro.net.headers import frame_bytes_tcp
from repro.sim.kernel import Simulator


def _rig(n_clients=1, matching_latency_ns=1_000):
    sim = Simulator(seed=1)
    engine = MatchingEngine("X", ["AAPL"])
    exch_nic = Nic(sim, "nic.exch", EndpointAddress("exch", "oe"))
    port = OrderEntryPort(
        sim, "oe", engine, exch_nic, matching_latency_ns=matching_latency_ns
    )

    # A tiny hub so several clients can share the exchange NIC's segment.
    class Hub:
        name = "hub"

        def __init__(self):
            self.links = {}

        def handle_packet(self, packet, ingress):
            for key, link in self.links.items():
                if link is not ingress:
                    link.send(packet.clone(), self)

    hub = Hub()
    exch_link = Link(sim, "l.exch", exch_nic, hub, propagation_delay_ns=10)
    exch_nic.attach(exch_link)
    hub.links["exch"] = exch_link

    clients = []
    for i in range(n_clients):
        nic = Nic(sim, f"nic.c{i}", EndpointAddress(f"client{i}", "orders"))
        link = Link(sim, f"l.c{i}", nic, hub, propagation_delay_ns=10)
        nic.attach(link)
        hub.links[f"c{i}"] = link
        session = BoeSession()
        responses = []

        def on_packet(packet, session=session, responses=responses):
            if isinstance(packet.message, (bytes, bytearray)):
                responses.extend(session.on_bytes(bytes(packet.message)))

        nic.bind(on_packet)
        clients.append((nic, session, responses))
    return sim, engine, port, exch_nic, clients


def _send(sim, nic, exch_address, data):
    nic.send(
        Packet(
            src=nic.address, dst=exch_address,
            wire_bytes=frame_bytes_tcp(len(data)), payload_bytes=len(data),
            message=data,
        )
    )


def test_new_order_acked_and_rested():
    sim, engine, port, exch_nic, clients = _rig()
    nic, session, responses = clients[0]
    data = session.encode_new_order(NewOrderRequest(1, "B", 100, "AAPL", 10_000))
    _send(sim, nic, exch_nic.address, data)
    sim.run()
    assert any(isinstance(r, OrderAck) for r in responses)
    assert session.orders[1].state is OrderState.OPEN
    assert engine.bbo("AAPL")[0] == (10_000, 100)
    assert port.stats.acks == 1


def test_unknown_symbol_rejected_end_to_end():
    sim, engine, port, exch_nic, clients = _rig()
    nic, session, responses = clients[0]
    data = session.encode_new_order(NewOrderRequest(1, "B", 100, "NOPE", 10_000))
    _send(sim, nic, exch_nic.address, data)
    sim.run()
    [reject] = [r for r in responses if isinstance(r, OrderReject)]
    assert reject.reason == MatchingEngine.REJECT_UNKNOWN_SYMBOL
    assert session.orders[1].state is OrderState.REJECTED


def test_duplicate_client_id_rejected_by_exchange():
    sim, engine, port, exch_nic, clients = _rig()
    nic, session, responses = clients[0]
    d1 = session.encode_new_order(NewOrderRequest(1, "B", 100, "AAPL", 9_000))
    _send(sim, nic, exch_nic.address, d1)
    sim.run()
    # Bypass the session's local duplicate check to test the server side.
    raw = BoeSession()
    d2 = raw.encode_new_order(NewOrderRequest(1, "B", 100, "AAPL", 9_100))
    _send(sim, nic, exch_nic.address, d2)
    sim.run()
    rejects = [r for r in responses if isinstance(r, OrderReject)]
    assert any(r.reason == OrderReject.REASON_DUPLICATE_ID for r in rejects)


def test_fills_delivered_to_both_sessions():
    sim, engine, port, exch_nic, clients = _rig(n_clients=2)
    nic0, s0, r0 = clients[0]
    nic1, s1, r1 = clients[1]
    _send(sim, nic0, exch_nic.address,
          s0.encode_new_order(NewOrderRequest(1, "S", 100, "AAPL", 10_000)))
    sim.run()
    _send(sim, nic1, exch_nic.address,
          s1.encode_new_order(NewOrderRequest(1, "B", 100, "AAPL", 10_000)))
    sim.run()
    assert s0.orders[1].state is OrderState.FILLED  # maker filled
    assert s1.orders[1].state is OrderState.FILLED  # taker filled
    assert any(isinstance(r, OrderFill) for r in r0)
    assert any(isinstance(r, OrderFill) for r in r1)
    assert port.stats.fills_sent == 2


def test_cancel_ack_when_order_still_open():
    sim, engine, port, exch_nic, clients = _rig()
    nic, session, responses = clients[0]
    _send(sim, nic, exch_nic.address,
          session.encode_new_order(NewOrderRequest(1, "B", 100, "AAPL", 9_000)))
    sim.run()
    _send(sim, nic, exch_nic.address, session.encode_cancel(1))
    sim.run()
    assert any(isinstance(r, CancelAck) for r in responses)
    assert session.orders[1].state is OrderState.CANCELED


def test_cancel_fill_race_end_to_end():
    """The full §2 race over the wire: the cancel is in flight when the
    contra order fills; the firm gets fill + too-late cancel reject."""
    sim, engine, port, exch_nic, clients = _rig(n_clients=2, matching_latency_ns=5_000)
    nic0, s0, r0 = clients[0]
    nic1, s1, r1 = clients[1]
    _send(sim, nic0, exch_nic.address,
          s0.encode_new_order(NewOrderRequest(1, "S", 100, "AAPL", 10_000)))
    sim.run()
    # Client 1's aggressive buy and client 0's cancel depart ~simultaneously;
    # the buy wins the race to the matching engine.
    _send(sim, nic1, exch_nic.address,
          s1.encode_new_order(NewOrderRequest(1, "B", 100, "AAPL", 10_000)))
    sim.schedule_after(
        1_000, lambda: _send(sim, nic0, exch_nic.address, s0.encode_cancel(1))
    )
    sim.run()
    assert s0.orders[1].state is OrderState.FILLED
    rejects = [r for r in r0 if isinstance(r, CancelReject)]
    assert len(rejects) == 1
    assert rejects[0].reason == CancelReject.REASON_TOO_LATE
    assert port.stats.cancel_rejects == 1


def test_cancel_unknown_order_rejected():
    sim, engine, port, exch_nic, clients = _rig()
    nic, session, responses = clients[0]
    raw = BoeSession()
    raw.orders[9] = None  # bypass local validation entirely
    from repro.protocols.boe import CancelOrderRequest, encode_message

    data = encode_message(CancelOrderRequest(9), 1, 1)
    _send(sim, nic, exch_nic.address, data)
    sim.run()
    rejects = [r for r in responses if isinstance(r, CancelReject)]
    assert rejects and rejects[0].reason == CancelReject.REASON_UNKNOWN_ORDER


def test_modify_via_wire():
    sim, engine, port, exch_nic, clients = _rig()
    nic, session, responses = clients[0]
    _send(sim, nic, exch_nic.address,
          session.encode_new_order(NewOrderRequest(1, "B", 100, "AAPL", 9_000)))
    sim.run()
    _send(sim, nic, exch_nic.address, session.encode_modify(1, 50, 9_000))
    sim.run()
    assert engine.bbo("AAPL")[0] == (9_000, 50)


def test_roundtrip_samples_recorded_from_client_timestamps():
    sim, engine, port, exch_nic, clients = _rig()
    nic, session, responses = clients[0]
    data = session.encode_new_order(
        NewOrderRequest(1, "B", 100, "AAPL", 10_000, client_timestamp_ns=0)
    )
    _send(sim, nic, exch_nic.address, data)
    sim.run()
    assert port.roundtrip_samples == []  # zero timestamp = not measured
    data = BoeSession().encode_new_order(
        NewOrderRequest(2, "B", 100, "AAPL", 10_000,
                        client_timestamp_ns=1)
    )
    _send(sim, nic, exch_nic.address, data)
    sim.run()
    assert len(port.roundtrip_samples) == 1
    assert port.roundtrip_samples[0] > 0


def test_multi_fill_taker_leaves_sequence():
    """A taker sweeping several makers gets decreasing leaves, and its
    order is only FILLED when the last share executes — intermediate
    fills must not report zero leaves (regression)."""
    sim, engine, port, exch_nic, clients = _rig(n_clients=2)
    nic0, s0, r0 = clients[0]
    nic1, s1, r1 = clients[1]
    # Two resting asks from client 0.
    _send(sim, nic0, exch_nic.address,
          s0.encode_new_order(NewOrderRequest(1, "S", 60, "AAPL", 10_000)))
    sim.run()
    _send(sim, nic0, exch_nic.address,
          s0.encode_new_order(NewOrderRequest(2, "S", 40, "AAPL", 10_000)))
    sim.run()
    # Client 1 sweeps 120: fills 60 + 40, rests 20.
    _send(sim, nic1, exch_nic.address,
          s1.encode_new_order(NewOrderRequest(1, "B", 120, "AAPL", 10_000)))
    sim.run()
    fills = [m for m in r1 if isinstance(m, OrderFill)]
    assert [f.quantity for f in fills] == [60, 40]
    assert [f.leaves_quantity for f in fills] == [60, 20]
    # 20 shares rest: the taker's order is OPEN, not FILLED.
    assert s1.orders[1].state is OrderState.OPEN
    assert s1.orders[1].leaves_quantity == 20
