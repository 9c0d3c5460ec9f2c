"""Failure injection: lossy WANs, overloaded queues, membership churn.

These tests exercise the degradation paths §2–§4 describe: microwave
links that drop frames in rain, A/B arbitration hiding single-leg loss,
merge overruns, and multicast membership churn under load.
"""

import numpy as np
import pytest

from repro.exchange.colo import default_nj_metro
from repro.net.addressing import EndpointAddress, MulticastGroup
from repro.net.link import Link
from repro.net.nic import Nic
from repro.net.packet import Packet
from repro.net.multicast import MulticastFabric
from repro.net.topology import build_leaf_spine
from repro.protocols.pitch import DeleteOrder
from repro.protocols.seqfeed import FeedArbiter, SequencedPublisher
from repro.sim.kernel import MILLISECOND, SECOND, Simulator
from repro.sim.process import Timer


class Sink:
    def __init__(self, name):
        self.name = name
        self.received = []

    def handle_packet(self, packet, ingress):
        self.received.append(packet)


class TestWanAbFeeds:
    """§2: microwave is lossy but fast; fiber is slow but reliable.
    A/B arbitration over both gets microwave latency with fiber
    completeness."""

    def _run(self, microwave_loss=0.05, n_frames=800):
        sim = Simulator(seed=5)
        metro = default_nj_metro()
        publisher = SequencedPublisher(unit=1)
        src = Sink("carteret-src")
        rx_mw, rx_fiber = Sink("rx-mw"), Sink("rx-fiber")
        mw = metro.wan_link(
            sim, "carteret", "mahwah", src, rx_mw,
            medium="microwave", loss_prob=microwave_loss,
        )
        fiber = metro.wan_link(sim, "carteret", "mahwah", src, rx_fiber)

        delivered = []
        arbiter = FeedArbiter(unit=1, sink=delivered.append)
        latencies = []

        def receive(leg_sink, packet):
            sent_at = packet.created_at
            before = arbiter.stats.delivered
            arbiter.on_payload(packet.message)
            if arbiter.stats.delivered > before:
                latencies.append(sim.now - sent_at)

        rx_mw.handle_packet = lambda p, i: receive(rx_mw, p)
        rx_fiber.handle_packet = lambda p, i: receive(rx_fiber, p)

        interval = 50_000  # 20k frames/s
        for i in range(n_frames):
            payload = publisher.publish([DeleteOrder(0, i + 1)])[0]

            def send(payload=payload):
                for link in (mw, fiber):
                    link.send(
                        Packet(
                            src=EndpointAddress("src"),
                            dst=EndpointAddress("dst"),
                            wire_bytes=100, payload_bytes=len(payload),
                            message=payload, created_at=sim.now,
                        ),
                        src,
                    )

            sim.schedule_at(i * interval, send)
        sim.run_until_idle()
        return metro, arbiter, delivered, latencies, mw, fiber

    def test_all_messages_delivered_despite_microwave_loss(self):
        metro, arbiter, delivered, latencies, mw, fiber = self._run()
        assert len(delivered) == 800
        assert mw.stats_from(mw.end_a).packets_lost > 0

    def test_latency_tracks_microwave_not_fiber(self):
        metro, arbiter, delivered, latencies, mw, fiber = self._run()
        mw_delay = metro.microwave_latency_ns("carteret", "mahwah")
        fiber_delay = metro.fiber_latency_ns("carteret", "mahwah")
        median = float(np.median(latencies))
        assert median < mw_delay * 1.1  # wins on the fast leg
        assert median < fiber_delay * 0.75

    def test_heavy_loss_still_complete_but_slower_tail(self):
        metro, arbiter, delivered, latencies, mw, fiber = self._run(
            microwave_loss=0.5
        )
        assert len(delivered) == 800  # fiber backstops everything
        mw_delay = metro.microwave_latency_ns("carteret", "mahwah")
        p90 = float(np.percentile(latencies, 90))
        assert p90 > mw_delay  # the tail now waits for fiber


class TestGapTimeout:
    def test_timer_driven_declare_loss(self):
        """A receiver arms a gap timer; on expiry it writes the gap off."""
        sim = Simulator()
        delivered = []
        arbiter = FeedArbiter(unit=1, sink=delivered.append)
        timer = Timer(sim, arbiter.declare_loss)

        def on_frames(first_seq, messages):
            arbiter.on_messages(first_seq, messages)
            if arbiter.gap is not None and not timer.armed:
                timer.start(5 * MILLISECOND)
            elif arbiter.gap is None:
                timer.cancel()

        sim.schedule_at(0, lambda: on_frames(1, [DeleteOrder(0, 1)]))
        # Frames 2-3 never arrive; frame 4 opens a gap at t=1ms.
        sim.schedule_at(1 * MILLISECOND, lambda: on_frames(4, [DeleteOrder(0, 4)]))
        sim.run()
        assert [m.order_id for m in delivered] == [1, 4]
        assert arbiter.stats.messages_skipped == 2
        assert sim.now == 6 * MILLISECOND  # gap declared exactly on expiry

    def test_late_fill_cancels_the_timer(self):
        sim = Simulator()
        delivered = []
        arbiter = FeedArbiter(unit=1, sink=delivered.append)
        timer = Timer(sim, arbiter.declare_loss)

        sim.schedule_at(0, lambda: arbiter.on_messages(1, [DeleteOrder(0, 1)]))

        def open_gap():
            arbiter.on_messages(3, [DeleteOrder(0, 3)])
            timer.start(5 * MILLISECOND)

        def fill_gap():
            arbiter.on_messages(2, [DeleteOrder(0, 2)])
            if arbiter.gap is None:
                timer.cancel()

        sim.schedule_at(1 * MILLISECOND, open_gap)
        sim.schedule_at(2 * MILLISECOND, fill_gap)
        sim.run()
        assert [m.order_id for m in delivered] == [1, 2, 3]
        assert arbiter.stats.messages_skipped == 0


class TestMembershipChurn:
    def test_rapid_join_leave_under_traffic_never_misroutes(self):
        """Receivers flapping their membership only ever gain/lose their
        own deliveries; other receivers are unaffected."""
        sim = Simulator(seed=8)
        topo = build_leaf_spine(sim, n_racks=2, servers_per_rack=2)
        fabric = MulticastFabric(topo)
        group = MulticastGroup("feed", 0)
        source = topo.hosts["rack0-s0"].nic()
        stable = topo.hosts["rack1-s0"].nic()
        flapper = topo.hosts["rack1-s1"].nic()
        stable_count, flapper_count = [], []
        stable.bind(lambda p: stable_count.append(sim.now))
        flapper.bind(lambda p: flapper_count.append(sim.now))
        fabric.announce_server_source(group, source)
        fabric.join(group, stable)

        def blast():
            source.send(
                Packet(src=source.address, dst=group,
                       wire_bytes=100, payload_bytes=50)
            )

        n = 200
        for i in range(n):
            sim.schedule_at(i * 100_000, blast)
            if i % 20 == 0:
                sim.schedule_at(i * 100_000 + 1, lambda: fabric.join(group, flapper))
            if i % 20 == 10:
                sim.schedule_at(i * 100_000 + 1, lambda: fabric.leave(group, flapper))
        sim.run_until_idle()
        assert len(stable_count) == n  # the stable receiver never lost one
        assert 0 < len(flapper_count) < n  # the flapper got a subset


class TestQueueOverload:
    def test_sender_overrun_drops_at_queue_not_silently(self):
        sim = Simulator(seed=1)
        a, b = Sink("a"), Sink("b")
        link = Link(
            sim, "thin", a, b, bandwidth_bps=1e8, queue_limit_bytes=4_000,
        )
        sent = 0
        for _ in range(100):
            ok = link.send(
                Packet(src=EndpointAddress("a"), dst=EndpointAddress("b"),
                       wire_bytes=1_000, payload_bytes=900),
                a,
            )
            sent += 1 if ok else 0
        sim.run()
        stats = link.stats_from(a)
        assert stats.packets_dropped_queue == 100 - sent
        assert len(b.received) == sent
        assert stats.packets_dropped_queue > 50  # the overload was real
