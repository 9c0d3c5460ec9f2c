"""Tests for the gap-request retransmission plane."""

import pytest

from repro.exchange.publisher import FeedPublisher, alphabetical_scheme
from repro.firm.feedhandler import FeedHandler
from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.multicast import MulticastFabric
from repro.net.nic import HostStack, Nic
from repro.net.routing import compute_unicast_routes
from repro.net.topology import build_leaf_spine
from repro.protocols.gapfill import GapFillClient, GapProxy
from repro.protocols.pitch import DeleteOrder
from repro.sim.kernel import MICROSECOND, MILLISECOND, Simulator


class TestGapProxy:
    def _proxy(self, history=100):
        sim = Simulator(seed=1)
        nic = Nic(sim, "proxy", EndpointAddress("proxy", "gap"))
        from repro.net.link import Link

        class Sink:
            name = "sink"
            responses = []

            def handle_packet(self, packet, ingress):
                Sink.responses.append(packet.message)

        Sink.responses = []
        nic.attach(Link(sim, "l", nic, Sink()))
        proxy = GapProxy(sim, "gp", nic, history=history)
        return sim, proxy, Sink

    def test_record_and_range(self):
        sim, proxy, _ = self._proxy()
        proxy.record(1, 1, [DeleteOrder(0, i) for i in range(1, 6)])
        assert proxy.available_range(1) == (1, 5)
        proxy.record(1, 6, [DeleteOrder(0, 6)])
        assert proxy.available_range(1) == (1, 6)
        assert proxy.available_range(9) is None

    def test_record_must_be_contiguous(self):
        sim, proxy, _ = self._proxy()
        proxy.record(1, 1, [DeleteOrder(0, 1)])
        with pytest.raises(ValueError):
            proxy.record(1, 5, [DeleteOrder(0, 5)])

    def test_ring_evicts_old_history(self):
        sim, proxy, _ = self._proxy(history=10)
        proxy.record(1, 1, [DeleteOrder(0, i) for i in range(1, 31)])
        assert proxy.available_range(1) == (21, 30)

    def test_serves_requested_range(self):
        sim, proxy, sink = self._proxy()
        proxy.record(1, 1, [DeleteOrder(0, i) for i in range(1, 11)])
        proxy._on_packet(_request(3, 4))
        sim.run_until_idle()
        [(tag, unit, start, messages)] = sink.responses
        assert (tag, unit, start) == ("gap_rsp", 1, 3)
        assert [m.order_id for m in messages] == [3, 4, 5, 6]
        assert proxy.stats.replayed == 4

    def test_unavailable_range_returns_empty(self):
        sim, proxy, sink = self._proxy(history=5)
        proxy.record(1, 1, [DeleteOrder(0, i) for i in range(1, 21)])
        proxy._on_packet(_request(2, 3))  # evicted
        sim.run_until_idle()
        [(tag, _unit, _start, messages)] = sink.responses
        assert messages == []
        assert proxy.stats.unavailable == 1


def _request(start, count):
    from repro.net.packet import Packet

    return Packet(
        src=EndpointAddress("rx", "md"), dst=EndpointAddress("proxy", "gap"),
        wire_bytes=64, payload_bytes=16, message=("gap_req", 1, start, count),
    )


class TestEndToEndRecovery:
    def _rig(self, loss=0.25, history=65_536):
        sim = Simulator(seed=9)
        topo = build_leaf_spine(sim, n_racks=2, servers_per_rack=1)
        exch = HostStack("exch")
        feed_nic = topo.attach_server(exch, topo.exchange_leaf, "feed")
        proxy_nic = topo.attach_server(exch, topo.exchange_leaf, "gap")
        rx_host = topo.hosts["rack0-s0"]
        rx_md = rx_host.nic()
        rx_req = topo.attach_server(rx_host, topo.leaves[1], "req")
        # Induce loss on the receiver's access link (downstream of the tree).
        topo.access_link_of(rx_md.address).loss_prob = loss
        compute_unicast_routes(topo)
        fabric = MulticastFabric(topo)
        publisher = FeedPublisher(
            sim, "pub", "X.PITCH", alphabetical_scheme(1), feed_nic,
            coalesce_window_ns=500,
        )
        group = MulticastGroup("X.PITCH", 0)
        fabric.announce_server_source(group, feed_nic)
        received = []
        handler = FeedHandler(
            sim, "fh", rx_md, sink=lambda g, m: received.append(m.order_id)
        )
        handler.subscribe(group, fabric)
        proxy = GapProxy(sim, "gp", proxy_nic, history=history)
        client = GapFillClient(
            sim, "gc", handler, rx_req, proxy_nic.address,
            grace_ns=50 * MICROSECOND, poll_interval_ns=50 * MICROSECOND,
        )
        client.start()
        return sim, publisher, proxy, client, handler, received

    def test_losses_recovered_via_retransmission(self):
        sim, publisher, proxy, client, handler, received = self._rig()
        n = 400
        for i in range(n):
            # Publish on a spaced schedule so gaps open between frames.
            sim.schedule_at(
                i * 20_000, lambda i=i: self._publish_one(publisher, proxy, i + 1)
            )
        # A trailing loss is invisible until a later message arrives (no
        # gap opens past the stream's end); real feeds close the day with
        # heartbeats. Publish several sentinels so at least one survives
        # the lossy leg and flushes any trailing gap.
        for k in range(5):
            sim.schedule_at(
                n * 20_000 + (k + 1) * MILLISECOND,
                lambda k=k: self._publish_one(publisher, proxy, n + 1 + k),
            )
        sim.run(until=80 * MILLISECOND)
        assert received[:n] == list(range(1, n + 1))
        assert client.stats.requests_sent > 0
        assert client.stats.messages_recovered > 0
        assert client.stats.declared_lost == 0

    def test_shallow_history_forces_declared_loss(self):
        sim, publisher, proxy, client, handler, received = self._rig(
            loss=0.4, history=4
        )
        n = 300
        for i in range(n):
            sim.schedule_at(
                i * 20_000, lambda i=i: self._publish_one(publisher, proxy, i + 1)
            )
        sim.run(until=60 * MILLISECOND)
        # The stream still advances to the end; some ranges were written
        # off because the proxy's ring was too small to replay them.
        assert received and received[-1] >= n - 5
        assert received == sorted(received)
        assert client.stats.declared_lost > 0

    @staticmethod
    def _publish_one(publisher, proxy, order_id):
        message = DeleteOrder(0, order_id)
        seq = publisher._units[0].next_sequence
        publisher.publish("AAPL", [message])
        proxy.record(1, seq, [message])
